"""Seeded workloads of the bidouble benchmark, each with independent checks.

A workload is a fixed list of operations built from a seed.  An operation
calls one public entry point of the package and returns its result; its
checker compares that result with a value worked out here, apart from the
package: the paper's numbers, Riemann-Roch, a hand derivation, or an
enumeration over integer bitmasks.  Nothing is compared with a stored copy
of the package's own output.

The package is imported inside the builders, so that importing this module
costs nothing and the set-up probe times the package import itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "bidouble" / "data"
ARRAY_DOC = Path(__file__).resolve().parent / "data" / "top_level_array.json"

WORKLOADS = ("cli-session", "h0-ladder", "code-ladder")


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` runs it, ``check`` returns a problem or None.

    Operations with the same ``key`` must return equal results, within a
    round and across rounds.
    """

    key: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# reference values, worked out apart from the package

# The paper's numbers: chi, p_g, q, K^2 of the minimal model, double fibres.
PAPER = {
    "example1": (1, 0, 0, 7, 5),
    "example1-degenerate": (1, 0, 0, 6, 4),
    "example2": (1, 0, 0, 6, 5),
    "example3": (1, 0, 0, 6, 5),
}
# the bicanonical map has degree 2 and factors through the first involution
BICANONICAL = (2, 1)


def paper_problems(name: str, got: dict) -> list[str]:
    """Compare a surface's reported invariants with the paper's table.

    ``got`` may hold chi, pg, q, K2_minimal, double_fibres, degree,
    involution, P2, h0_invariant and h0_characters; absent keys are not
    checked.  Besides the table, P_2 = chi + K^2_min and the invariant plus
    character parts of the bicanonical space must add up to P_2.
    """
    chi, pg, q, k2, fibres = PAPER[name]
    want = {"chi": chi, "pg": pg, "q": q, "K2_minimal": k2,
            "double_fibres": fibres, "degree": BICANONICAL[0],
            "involution": BICANONICAL[1], "P2": chi + k2}
    out = [f"{name}: {key} = {got[key]}, expected {value}"
           for key, value in want.items() if key in got and got[key] != value]
    if "h0_invariant" in got:
        parts = got["h0_invariant"] + sum(got["h0_characters"])
        if parts != chi + k2:
            out.append(f"{name}: bicanonical parts add up to {parts}, "
                       f"not P2 = {chi + k2}")
    return out


def riemann_roch(degree: int, mults) -> int:
    """chi(D) = 1 + (D^2 - K.D)/2 for D = d*l - sum m_i e_i, K = -3l + sum e_i."""
    d2 = degree * degree - sum(m * m for m in mults)
    kd = -3 * degree + sum(mults)
    return 1 + (d2 - kd) // 2


# Rank-deficient rungs, h^0 by hand (perfbench/README.md gives each
# derivation): (configuration, degree, multiplicities, h^0).
SPECIAL_RUNGS = (
    ("six", 2, (2, 2, 0, 0, 0, 0), 1),
    ("six", 4, (2, 2, 2, 2, 2, 0), 2),
    ("P7", 10, (0, 6, 0, 6, 0, 0, 6), 19),
    ("P7", 14, (0, 8, 0, 8, 0, 0, 8), 37),
)


def de_weights(s: int) -> dict[int, int]:
    """Weight distribution of DE(s): C(s, 2j) words of weight 4j."""
    return {4 * j: comb(s, 2 * j) for j in range(s // 2 + 1)}


def span(rows) -> list[int]:
    """Every F_2 combination of the bitmask ``rows``, in Gray-code order."""
    words = [0]
    word = 0
    for i in range(1, 1 << len(rows)):
        word ^= rows[(i & -i).bit_length() - 1]
        words.append(word)
    return words


def bits(row) -> int:
    """Bitmask of a 0/1 row, first entry in bit 0."""
    return sum(1 << j for j, b in enumerate(row) if int(b) % 2)


@cache
def span_weights(rows: tuple[int, ...]) -> dict[int, int]:
    return dict(Counter(w.bit_count() for w in span(rows)))


@cache
def nodal_kernel(fixture: str) -> frozenset[int]:
    """Code words of a nodal fixture: subsets of classes summing to 0 mod 2."""
    doc = json.loads((DATA / fixture).read_text(encoding="utf-8"))
    images = [bits(v) for v in doc["classes"]]
    return frozenset(mask for mask in range(1 << len(images))
                     if _xor_of(images, mask) == 0)


def _xor_of(images, mask: int) -> int:
    out = 0
    for j, image in enumerate(images):
        if mask >> j & 1:
            out ^= image
    return out


def _expect(want):
    def check(got):
        return None if got == want else f"got {got!r}, expected {want!r}"
    return check


# ---------------------------------------------------------------------------
# cli-session


def run_cli(main, argv):
    """Call the CLI's ``main`` in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


_LABELS = {"example1": "ex1", "example1-degenerate": "ex1deg",
           "example2": "ex2", "example3": "ex3"}


def check_verify(result) -> str | None:
    rc, out, _ = result
    if rc != 0:
        return f"verify all exited {rc}"
    reports = {r["scenario"]: r for r in json.loads(out)}
    problems = []
    for name, label in _LABELS.items():
        got = {c["id"]: c["computed"] for c in reports[name]["checks"]}
        inv, chars = got[f"{label}-bicanonical"]
        degree, involution = got[f"{label}-involution"]
        problems += paper_problems(name, {
            "chi": got[f"{label}-chi"], "pg": got[f"{label}-pg"],
            "K2_minimal": got[f"{label}-K2-minimal"],
            "double_fibres": got[f"{label}-double-fibres"],
            "degree": degree, "involution": involution,
            "P2": got[f"{label}-P2"], "h0_invariant": inv,
            "h0_characters": chars})
    return "; ".join(problems) or None


def check_custom_json(result) -> str | None:
    rc, out, _ = result
    if rc != 0:
        return f"custom exited {rc}"
    rep = json.loads(out)
    inv, bic = rep["invariants"], rep["bicanonical"]
    return "; ".join(paper_problems(rep["source"], {
        "chi": inv["chi"], "pg": inv["pg"], "q": inv["q"],
        "K2_minimal": inv["K2_minimal"],
        "double_fibres": inv["double_fibres"],
        "degree": inv["bicanonical_degree"],
        "involution": inv["involution_index"], "P2": bic["total"],
        "h0_invariant": bic["h0_invariant"],
        "h0_characters": bic["h0_characters"]})) or None


def check_custom_text(result) -> str | None:
    rc, out, _ = result
    if rc != 0:
        return f"custom exited {rc}"
    name = re.match(r"custom cover (\S+)", out).group(1)
    got = {k: int(v) for k, v in re.findall(r"^  (\w+) = (-?\d+)$", out, re.M)}
    return "; ".join(paper_problems(name, {
        "chi": got["chi"], "pg": got["pg"], "q": got["q"],
        "K2_minimal": got["K2_minimal"],
        "double_fibres": got["double_fibres"],
        "degree": got["bicanonical_degree"],
        "involution": got["involution_index"]})) or None


def check_h0_text(degree: int, mults):
    want = riemann_roch(degree, mults)

    def check(result):
        rc, out, _ = result
        m = re.fullmatch(r"h0\(degree (\d+), mults \[[\d, ]*\]\) = (\d+)\n", out)
        if rc != 0 or m is None:
            return f"h0 exited {rc} with {out!r}"
        return None if int(m.group(2)) == want else \
            f"h0 = {m.group(2)}, Riemann-Roch gives {want}"
    return check


def code_report_problems(fixture: str, k: int, dim: int, generators,
                         weights, doubly_even, isotropy) -> list[str]:
    """Compare a ``bidouble code`` report with the bitmask enumeration."""
    doc = json.loads((DATA / fixture).read_text(encoding="utf-8"))
    words = nodal_kernel(fixture)
    dist = Counter(w.bit_count() for w in words)
    lhs = 2 * (len(doc["classes"]) - (len(words).bit_length() - 1))
    want = {
        "k": len(doc["classes"]),
        "dim": len(words).bit_length() - 1,
        "code words": sorted(words),
        "weights": sorted([w, c] for w, c in dist.items()),
        "doubly even": all(w % 4 == 0 for w in dist),
        "isotropy": [lhs, doc["lattice_n"] + 1, lhs <= doc["lattice_n"] + 1],
    }
    got = {"k": k, "dim": dim,
           "code words": sorted(span([bits(r) for r in generators])),
           "weights": weights, "doubly even": doubly_even,
           "isotropy": isotropy}
    return [f"{fixture}: {key} = {got[key]}, expected {value}"
            for key, value in want.items() if got[key] != value]


def check_code_text(fixture: str):
    def check(result):
        rc, out, _ = result
        head = re.search(r"k=(\d+), dim=(\d+)", out)
        gens = re.search(r"generators: (.*)$", out, re.M)
        wts = re.search(r"weights: (\[.*\])  doubly even: (True|False)", out)
        iso = re.search(r"isotropy bound: (\d+) <= (\d+) -> (True|False)", out)
        if rc != 0 or not (head and gens and wts and iso):
            return f"code exited {rc} with {out!r}"
        return "; ".join(code_report_problems(
            fixture, int(head.group(1)), int(head.group(2)),
            json.loads(gens.group(1)), json.loads(wts.group(1)),
            wts.group(2) == "True",
            [int(iso.group(1)), int(iso.group(2)), iso.group(3) == "True"])) \
            or None
    return check


def check_code_json(fixture: str):
    def check(result):
        rc, out, _ = result
        if rc != 0:
            return f"code exited {rc}"
        rep = json.loads(out)
        iso = rep["isotropy"]
        return "; ".join(code_report_problems(
            fixture, rep["k"], rep["dim"], rep["generators"], rep["weights"],
            rep["doubly_even"], [iso["lhs"], iso["rhs"], iso["holds"]])) \
            or None
    return check


def check_one_line_error(result) -> str | None:
    """Malformed input: exit 2 and a one-line message, no traceback."""
    rc, out, err = result
    if rc != 2 or out or len(err.strip().splitlines()) != 1:
        return f"exit {rc}, stderr {err!r}; expected exit 2 and one line"
    return None


def cli_session(seed: int, tiny: bool = False) -> list[Op]:
    """``verify all`` over nine seeds (each twice), the shipped documents,
    the README's ``h0`` and ``code`` commands and one malformed document."""
    from bidouble.cli import main
    seeds = random.Random(seed).sample(range(1_000_000), 1 if tiny else 9)
    verify = [Op(f"verify {s}", lambda s=s: run_cli(main,
        ["verify", "all", "--format", "json", "--seed", str(s)]), check_verify)
        for s in seeds]
    ops = list(verify)
    for n in (1, 2, 3):
        path = str(DATA / f"example{n}.json")
        for fmt, check in (("json", check_custom_json),
                           ("text", check_custom_text)):
            argv = ["custom", path, "--format", fmt, "--seed", str(seeds[0])]
            ops.append(Op(f"custom example{n} {fmt}",
                          lambda argv=argv: run_cli(main, argv), check))
    h0 = ["h0", "--degree", "5", "--mults", "1,2,1,2,2,2,1", "--with-p7"]
    ops.append(Op("h0 readme", lambda: run_cli(main, h0),
                  check_h0_text(5, (1, 2, 1, 2, 2, 2, 1))))
    for fixture, fmt, check in (
            ("nodal10_rank14.json", "text", check_code_text),
            ("nodal_sides.json", "json", check_code_json)):
        argv = ["code", "--fixture", str(DATA / fixture), "--format", fmt]
        ops.append(Op(f"code {fixture} {fmt}", lambda argv=argv: run_cli(main, argv),
                      check(fixture)))
    ops.append(Op("custom top-level array", lambda: run_cli(
        main, ["custom", str(ARRAY_DOC)]), check_one_line_error))
    return ops + verify


# ---------------------------------------------------------------------------
# h0-ladder


def h0_ladder(seed: int, tiny: bool = False) -> list[Op]:
    """Nef rungs (3m; m^7) on P7 and on a seeded general point, then the
    rank-deficient rungs, each as a fat-point system and through h0_class."""
    from bidouble.lattice import DivisorClass
    from bidouble.plane import (FatPointSystem, h0_class, h0_fat_points,
                                standard_quadrilateral)
    general_seed = random.Random(seed).randrange(1 << 30)
    cfgs = {"six": standard_quadrilateral(),
            "P7": standard_quadrilateral(with_p7=True),
            "general": standard_quadrilateral(with_general_point=True,
                                              seed=general_seed)}
    top = 2 if tiny else 4
    ops = []
    for name in ("P7", "general"):
        for m in range(1, top + 1):
            system = FatPointSystem(3 * m, tuple((i, m) for i in range(7)))
            ops.append(Op(f"h0_fat_points {name} ({3 * m}; {m}^7)",
                          lambda c=cfgs[name], s=system: h0_fat_points(c, s),
                          _expect(riemann_roch(3 * m, (m,) * 7))))
    for name, d, mults, h0 in SPECIAL_RUNGS[:2] if tiny else SPECIAL_RUNGS:
        cfg = cfgs[name]
        system = FatPointSystem(d, tuple((i, m) for i, m in enumerate(mults) if m))
        ops.append(Op(f"h0_fat_points {name} ({d}; {mults})",
                      lambda c=cfg, s=system: h0_fat_points(c, s), _expect(h0)))
        cls = DivisorClass(d, mults)
        ops.append(Op(f"h0_class {name} ({d}; {mults})",
                      lambda c=cfg, x=cls: h0_class(c, x), _expect(h0)))
    return ops


# ---------------------------------------------------------------------------
# code-ladder


def random_code_rows(rng: random.Random, dim: int, length: int) -> tuple[int, ...]:
    """``dim`` independent random rows, one of weight not divisible by 4, so
    the code is not doubly even."""
    while True:
        rows = tuple(rng.getrandbits(length) for _ in range(dim))
        if independent(rows) and any(r.bit_count() % 4 for r in rows):
            return rows


def independent(rows) -> bool:
    """Whether the bitmask ``rows`` are linearly independent over F_2."""
    basis = []  # reduced rows, leading bits distinct, largest first
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if not row:
            return False
        basis.append(row)
        basis.sort(reverse=True)
    return True


def check_weights(want):
    def check(got):
        got = dict(got)
        return None if got == want else \
            f"weights {sorted(got.items())}, expected {sorted(want.items())}"
    return check


def check_rows_weights(rows):
    return lambda got: check_weights(span_weights(rows))(got)


def check_code_words(fixture: str):
    def check(code):
        words = frozenset(span([bits(r) for r in code.to_rows()]))
        return None if words == nodal_kernel(fixture) else \
            f"{fixture}: code words {sorted(words)}, expected " \
            f"{sorted(nodal_kernel(fixture))}"
    return check


def code_ladder(seed: int, tiny: bool = False) -> list[Op]:
    """is_doubly_even and weights on DE(s) and on seeded random codes of the
    same dimensions, code_of_classes on both fixtures, and the exact
    doubly-even question at dimension 21."""
    from bidouble.codes import (BinaryCode, code_of_classes, de_code,
                                is_doubly_even, weights)
    from bidouble.lattice import BlowupLattice
    rng = random.Random(seed)
    ops = []
    for dim in range(4, 7) if tiny else range(8, 17):
        de = de_code(dim + 1)
        rows = random_code_rows(rng, dim, 2 * (dim + 1))
        code = BinaryCode(2 * (dim + 1),
                          [[r >> j & 1 for j in range(2 * (dim + 1))] for r in rows])
        ops += [
            Op(f"is_doubly_even DE({dim + 1})", lambda c=de: is_doubly_even(c),
               _expect(True)),
            Op(f"weights DE({dim + 1})", lambda c=de: weights(c),
               check_weights(de_weights(dim + 1))),
            Op(f"is_doubly_even random dim {dim}",
               lambda c=code: is_doubly_even(c), _expect(False)),
            Op(f"weights random dim {dim}", lambda c=code: weights(c),
               check_rows_weights(rows)),
        ]
    for fixture in ("nodal_sides.json", "nodal10_rank14.json"):
        doc = json.loads((DATA / fixture).read_text(encoding="utf-8"))
        lat = BlowupLattice(doc["lattice_n"])
        classes = [lat.from_vector(v) for v in doc["classes"]]
        ops.append(Op(f"code_of_classes {fixture}",
                      lambda cl=classes, la=lat: code_of_classes(cl, la),
                      check_code_words(fixture)))
    # DE(22): every generator weight is 4 and every pairwise overlap is 0 or
    # 2, so the code is doubly even (its weights are the 4j of de_weights).
    de22 = de_code(22)
    ops.append(Op("is_doubly_even DE(22)", lambda: is_doubly_even(de22),
                  _expect(True)))
    return ops


BUILDERS = {"cli-session": cli_session, "h0-ladder": h0_ladder,
            "code-ladder": code_ladder}
