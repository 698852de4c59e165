import importlib
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import comb
from pathlib import Path

import pytest

import bidouble

from bidouble.codes import (BinaryCode, EnumerationCapError, NodalInputError,
                            code_of_classes, de_code, is_doubly_even,
                            isotropy_bound, weights)
from bidouble.examples import data_path, load_document
from bidouble.lattice import BlowupLattice, DivisorClass

LAT6 = BlowupLattice(6)
SIDES = [DivisorClass(1, (1, 1, 0, 0, 1, 0)),
         DivisorClass(1, (0, 1, 1, 0, 0, 1)),
         DivisorClass(1, (0, 0, 1, 1, 1, 0)),
         DivisorClass(1, (1, 0, 0, 1, 0, 1))]


def _load_fixture(name):
    doc = load_document(data_path(name))
    lat = BlowupLattice(doc["lattice_n"])
    return lat, [lat.from_vector(v) for v in doc["classes"]]


def _span(rows):
    """Brute-force row span of int rows over F_2, as a set of ints."""
    span = {0}
    for row in rows:
        span |= {s ^ row for s in span}
    return span


def _appearing(code):
    """Number of coordinates where some code word is nonzero: those where
    some generator is."""
    return sum(map(any, zip(*code.to_rows())))


def _xor_subset(rng, pool):
    out = 0
    for row in pool:
        if rng.getrandbits(1):
            out ^= row
    return out


def test_sides_code():
    # S1+S2+S3+S4 = 4l - 2(e1+...+e6) is divisible by 2
    v = code_of_classes(SIDES, LAT6)
    assert v.to_rows() == [[1, 1, 1, 1]]
    assert sorted(weights(v).items()) == [(0, 1), (4, 1)]
    assert is_doubly_even(v)
    assert _appearing(v) == 4
    # in the rank-7 lattice the isotropy bound reads 2*3 <= 7
    assert isotropy_bound(v, LAT6.rank) == (6, 7, True)
    assert isotropy_bound(code_of_classes([], LAT6), LAT6.rank) == (0, 7, True)


def test_single_and_empty():
    v = code_of_classes([SIDES[0]], LAT6)
    assert v.dim == 0
    v = code_of_classes([], LAT6)
    assert v.dim == 0 and v.length == 0


def test_nodal_validation():
    with pytest.raises(NodalInputError):
        code_of_classes([DivisorClass(1, (1, 1, 0, 0, 0, 0))], LAT6)  # square -1
    with pytest.raises(NodalInputError):
        code_of_classes([SIDES[0], DivisorClass(1, (1, 1, 0, 0, 0, 1))], LAT6)
    with pytest.raises(NodalInputError):
        code_of_classes([DivisorClass(1, (1, 1, 0, 0, 1, 0, 0))], LAT6)


def test_kernel_image_dimensions():
    lat, classes = _load_fixture("nodal10_rank14.json")
    rng = random.Random(23)
    for _ in range(30):
        k = rng.randint(1, len(classes))
        subset = rng.sample(classes, k)
        v = code_of_classes(subset, lat)
        # the image of each class in Pic/2Pic, coordinate j in bit j
        rows = [sum((x & 1) << j for j, x in enumerate(c.to_vector()))
                for c in subset]
        # exact F2 rank oracle: brute enumeration of the row span
        exact_im = len(_span(rows)).bit_length() - 1
        assert v.dim + exact_im == k


def test_kernel_matches_brute_force():
    # independent oracle: enumerate all 2^10 subsets and keep those whose
    # class sum is divisible by 2
    lat, classes = _load_fixture("nodal10_rank14.json")
    v = code_of_classes(classes, lat)
    brute = []
    for mask in range(1 << len(classes)):
        total = lat.zero
        for i, c in enumerate(classes):
            if mask >> i & 1:
                total = total + c
        if all(x % 2 == 0 for x in total.to_vector()):
            brute.append(mask)
    assert sorted(brute) == sorted(_span(v.generators))


def test_code_closed_under_addition():
    # the sum of any two code words is again a relation: its classes add
    # up to a class divisible by 2
    lat, classes = _load_fixture("nodal10_rank14.json")
    words = sorted(_span(code_of_classes(classes, lat).generators))
    assert len(words) == 8
    for a in words:
        for b in words:
            total = sum((c for i, c in enumerate(classes) if (a ^ b) >> i & 1),
                        lat.zero)
            assert all(x % 2 == 0 for x in total.to_vector())


def test_ten_nodal_fixture():
    lat, classes = _load_fixture("nodal10_rank14.json")
    assert lat.rank == 14 and len(classes) == 10
    v = code_of_classes(classes, lat)
    assert v.dim == 3
    assert sorted(weights(v).items()) == [(0, 1), (4, 6), (8, 1)]
    assert is_doubly_even(v)
    assert isotropy_bound(v, lat.rank) == (14, 14, True)
    # two of the ten classes never appear in a kernel relation
    assert _appearing(v) == 8


def test_hamming_shaped_code_is_representable():
    # dim 3 with 7 appearing coordinates, all nonzero weights 4: the type
    # carries this configuration even though no geometry below produces it
    v = BinaryCode(10, [[1, 0, 0, 1, 0, 1, 1, 0, 0, 0],
                        [0, 1, 0, 1, 1, 0, 1, 0, 0, 0],
                        [0, 0, 1, 1, 1, 1, 0, 0, 0, 0]])
    assert v.dim == 3 and _appearing(v) == 7
    assert sorted(weights(v).items()) == [(0, 1), (4, 7)]
    assert is_doubly_even(v)


def test_geometric_fixtures_doubly_even():
    for name in ("nodal_sides.json", "nodal10_rank14.json"):
        lat, classes = _load_fixture(name)
        v = code_of_classes(classes, lat)
        assert is_doubly_even(v)
        assert isotropy_bound(v, lat.rank)[2]


def test_synthetic_isotropy_violation():
    # ten independent mod-2 images cannot fit isotropically in rank 14
    code = BinaryCode(10)
    assert isotropy_bound(code, 14) == (20, 14, False)


def test_de_code():
    assert de_code(1).dim == 0 and de_code(1).length == 2
    v2 = de_code(2)
    assert sorted(_span(v2.generators)) == [0, 0b1111]
    v5 = de_code(5)
    assert v5.dim == 4 and v5.length == 10
    assert set(weights(v5)) <= {0, 4, 8}
    with pytest.raises(ValueError):
        de_code(0)


def test_de_codes_doubly_even():
    for s in range(1, 9):
        v = de_code(s)
        assert v.dim == s - 1
        assert is_doubly_even(v)


def test_not_doubly_even():
    v = BinaryCode(4, [[1, 1, 0, 0]])
    assert not is_doubly_even(v)
    assert 2 in weights(v)


def test_enumeration_cap():
    # is_doubly_even needs no enumeration, so it answers past the cap
    assert de_code(22).dim == 21 and is_doubly_even(de_code(22))
    big = BinaryCode(22, [[int(i == j) for j in range(22)] for i in range(21)])
    assert big.dim == 21
    assert not is_doubly_even(big)
    # weights refuses rather than answer from a sample
    with pytest.raises(EnumerationCapError,
                       match="dim 21 exceeds the enumeration cap 20"):
        weights(big)


def test_weights_with_repeated_and_zero_columns():
    # the count reads the multiset of columns: seeded codes of dimension
    # 11-16 whose columns repeat up to three times, with zero columns and
    # shuffled coordinates; oracle: brute-force span
    rng = random.Random(12)
    dims = set()
    for _ in range(12):
        k = rng.randint(11, 16)
        columns = [c for c in (rng.getrandbits(k) for _ in range(k + 4))
                   for _ in range(rng.randint(1, 3))]
        columns += [0] * rng.randint(1, 3)
        rng.shuffle(columns)
        rows = [sum((c >> i & 1) << j for j, c in enumerate(columns))
                for i in range(k)]
        code = BinaryCode(len(columns), rows)
        got = weights(code)
        assert got == Counter(w.bit_count() for w in _span(rows)), rows
        assert list(got) == sorted(got)
        dims.add(code.dim)
    assert dims <= set(range(11, 17)) and len(dims) > 3


def test_weights_edge_cases_match_brute_force():
    # the carry-save planes on seeded codes of every dimension 0-16: column
    # multiplicities 1-9 (2, 4 and 8 enter a single higher plane, 7 three
    # planes at once) and zero columns; oracle: brute-force span
    rng = random.Random(20)
    mults = set()
    for dim in range(17):
        columns = [1 << i for i in range(dim)]  # the unit columns give rank dim
        columns += [rng.getrandbits(dim) for _ in range(rng.randint(1, 6))]
        columns += [0] * (1 + dim % 3)
        mult = [1 + (dim + j) % 9 for j in range(len(columns))]
        mults.update(mult)
        columns = [c for c, m in zip(columns, mult) for _ in range(m)]
        rng.shuffle(columns)
        rows = [sum((c >> i & 1) << j for j, c in enumerate(columns))
                for i in range(dim)]
        code = BinaryCode(len(columns), rows)
        assert code.dim == dim
        got = weights(code)
        assert got == Counter(w.bit_count() for w in _span(rows)), dim
        assert list(got) == sorted(got)
    assert mults == set(range(1, 10))


def test_weights_of_the_all_ones_word_at_length_two_to_the_k():
    # weight = length = 2^k is the only weight with bit k set: it sits alone
    # on the top plane
    rng = random.Random(21)
    for k in range(8):
        n = 1 << k
        rows = [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(min(n, 9))]
        got = weights(BinaryCode(n, rows))
        assert got == Counter(w.bit_count() for w in _span(rows)), n
        assert list(got) == sorted(got) and got[n] == 1


def test_weights_of_the_full_space_and_of_de21():
    for n in (0, 1, 5, 13, 20):
        full = BinaryCode(n, [1 << j for j in range(n)])
        assert weights(full) == {w: comb(n, w) for w in range(n + 1)}
    # DE(21) has dimension 20, the cap: the even words of length 21, doubled
    de21 = de_code(21)
    assert de21.dim == 20
    assert weights(de21) == {4 * j: comb(21, 2 * j) for j in range(11)}


def test_weights_of_empty_codes_and_key_order():
    assert weights(BinaryCode(0)) == {0: 1}
    assert weights(BinaryCode(7)) == {0: 1}
    # keys come out in ascending order, as dict() and the demo print them
    assert list(weights(de_code(9))) == [0, 4, 8, 12, 16]
    assert list(weights(BinaryCode(6, [0b111111, 0b000011]))) == [0, 2, 4, 6]


def test_weights_memory_does_not_grow_with_length():
    # the planes of weight bits and the masks being split are 2^18 bits
    # (32 KiB) each; keeping all 400 column masks alive would take 12.5 MiB
    rng = random.Random(18)
    code = BinaryCode(400, [rng.getrandbits(400) for _ in range(18)])
    assert code.dim == 18
    tracemalloc.start()
    try:
        weights(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_weights_memory_at_the_cap():
    # dimension 20, the cap: 20 generator masks of 2^20 bits (2.5 MiB) and
    # two words on each of 9 planes (2.25 MiB) while adding, then the 9
    # planes and the split's stack of two masks a plane (3.4 MiB), plus a
    # few temporaries, bound the peak by 6 MiB; it is about 5.2 MiB
    rng = random.Random(20)
    code = BinaryCode(400, [rng.getrandbits(400) for _ in range(20)])
    assert code.dim == 20
    tracemalloc.start()
    try:
        weights(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_doubly_even_matches_enumeration():
    # seeded random codes of dimension <= 10 from three families: random rows,
    # subcodes of DE(s) (doubly even), and rows of weight 4 (generator weights
    # fine, overlaps often odd); coordinates shuffled; oracle: brute-force span
    rng = random.Random(31)
    seen = Counter()
    for trial in range(300):
        length = rng.randint(4, 14)
        k = rng.randint(0, 10)
        if trial % 3 == 0:
            rows = [rng.getrandbits(length) for _ in range(k)]
        elif trial % 3 == 1:
            pool = [0b1111 << 2 * i for i in range(length // 2 - 1)]
            rows = [_xor_subset(rng, pool) for _ in range(k)]
        else:
            rows = [sum(1 << j for j in rng.sample(range(length), 4))
                    for _ in range(k)]
        perm = rng.sample(range(length), length)
        rows = [sum((r >> j & 1) << perm[j] for j in range(length)) for r in rows]
        code = BinaryCode(length, rows)
        span = _span(rows)
        want = all(w.bit_count() % 4 == 0 for w in span)
        assert is_doubly_even(code) == want, rows
        assert weights(code) == Counter(w.bit_count() for w in span)
        seen[want, all(g.bit_count() % 4 == 0 for g in code.generators)] += 1
    # both answers occur, and so do codes that only the overlap test rejects
    assert seen[True, True] and seen[False, False] and seen[False, True]


def _fresh_interpreter(probe: str) -> str:
    """Standard output of ``probe`` run by a fresh interpreter that finds
    this package first.  ``-S`` skips the site step, whose ``.pth`` hooks
    may load modules (``pathlib``, ``typing``) before the probe looks."""
    src = str(Path(bidouble.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, check=True,
                          env=env).stdout


def test_import_loads_only_the_standard_library():
    # the package has no dependencies: a fresh interpreter that imports it
    # and resolves every public name loads no module from outside the
    # standard library
    out = _fresh_interpreter(
        "import sys; before = set(sys.modules); import bidouble; "
        "[getattr(bidouble, name) for name in bidouble.__all__]; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'bidouble'}))")
    assert out == "[]\n"


def test_import_codes_loads_only_codes():
    # the package resolves its public names on first use, and codes reads
    # a lattice's classes without importing it: the F_2 layer loads nothing
    # else
    out = _fresh_interpreter(
        "import sys; before = set(sys.modules); import bidouble.codes; "
        "print(*sorted(set(sys.modules) - before))")
    loaded = set(out.split())
    assert {"bidouble", "bidouble.codes"} <= loaded
    assert not loaded & {"bidouble.lattice", "bidouble.plane",
                         "bidouble.covers", "bidouble.examples",
                         "bidouble.scenarios", "dataclasses", "fractions",
                         "typing"}


def _modules_loaded_by(statement: str) -> set[str]:
    """Modules that a fresh interpreter loads to run ``statement``, with the
    CLI's standard output swallowed."""
    return set(_fresh_interpreter(
        "import io, sys; before = set(sys.modules); out = sys.stdout; "
        f"sys.stdout = io.StringIO(); {statement}; sys.stdout = out; "
        "print(*sorted(set(sys.modules) - before))").split())


@pytest.mark.parametrize("statement, modules", (
    ("import bidouble.cli", {"cli"}),
    ("from bidouble.cli import main; assert main(['code', '--fixture', "
     f"{str(data_path('nodal_sides.json'))!r}]) == 0", {"cli", "codes", "lattice"}),
    ("from bidouble.cli import main; assert main(['h0', '--degree', '5', "
     "'--mults', '1,2,1,2,2,2,1', '--with-p7']) == 0", {"cli", "lattice", "plane"}),
    ("from bidouble.cli import main; assert main(['custom', "
     f"{str(data_path('example2.json'))!r}]) == 0",
     {"cli", "scenarios", "covers", "examples", "plane", "lattice"}),
), ids=("import", "code", "h0", "custom"))
def test_cli_loads_only_the_modules_of_its_command(statement, modules):
    loaded = _modules_loaded_by(statement)
    assert {m for m in loaded if m.startswith("bidouble.")} == \
        {f"bidouble.{m}" for m in modules}
    # nothing the package runs needs either
    assert not loaded & {"pathlib", "typing"}


@pytest.mark.parametrize("statement", (
    "import bidouble.cli",
    "from bidouble.cli import main; assert main(['verify', 'all']) == 0"),
    ids=("import", "verify"))
def test_cli_loads_no_argument_parser(statement):
    # the command line is read by a table, not by argparse, whose help
    # formatter would also load gettext, locale and shutil
    loaded = _modules_loaded_by(statement)
    assert "bidouble.cli" in loaded
    assert not loaded & {"argparse", "gettext", "locale", "shutil"}


def test_cli_verify_loads_no_dataclasses():
    loaded = _modules_loaded_by(
        "from bidouble.cli import main; assert main(['verify', 'all']) == 0")
    assert "bidouble.scenarios" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "pathlib",
                         "typing"}


def test_public_names_are_their_home_objects():
    homes = {m: importlib.import_module(f"bidouble.{m}")
             for m in ("lattice", "plane", "codes", "covers", "examples")}
    for name in bidouble.__all__:
        value = getattr(bidouble, name)
        if name in homes:
            assert value is homes[name]
            continue
        owners = [mod for mod in homes.values() if name in mod.__all__]
        assert len(owners) == 1 and value is getattr(owners[0], name), name
    assert set(bidouble.__all__) <= set(dir(bidouble))
    star = {}
    exec("from bidouble import *", star)
    assert all(star[name] is getattr(bidouble, name) for name in bidouble.__all__)
    with pytest.raises(AttributeError):
        bidouble.no_such_name
    with pytest.raises(ImportError):
        exec("from bidouble import no_such_name", {})


def test_codes_compare_by_length_and_words():
    # the benchmark checks that a repeated code_of_classes equals the first
    v = de_code(3)
    assert v == BinaryCode(6, [[1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 1, 1]])
    assert v != BinaryCode(6, [[1, 1, 1, 1, 0, 0]])
    assert v != BinaryCode(8, [0b1111, 0b111100])
    assert v != v.to_rows()


def test_non_integral_input_rejected():
    # int() used to truncate both: the row read as [1, 0, 1], the length as 2
    with pytest.raises(TypeError):
        BinaryCode(3, [[1.9, 0.5, 1]])
    with pytest.raises(TypeError):
        BinaryCode(2.7, [])
    assert BinaryCode(3, [[True, 0, 3]]).to_rows() == [[1, 0, 1]]


def test_negative_length_rejected():
    # BinaryCode(-3) used to construct, with weights {0: 1} and the isotropy
    # bound (-6, 7, True); with a row it failed on a negative shift count
    for rows in ((), [5], [[1, 0, 1]]):
        with pytest.raises(ValueError, match="length must be >= 0"):
            BinaryCode(-3, rows)
    assert BinaryCode(0).dim == 0
