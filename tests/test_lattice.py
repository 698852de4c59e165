import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bidouble.lattice import (BlowupLattice, DivisorClass,
                              LatticeMismatchError, arithmetic_genus,
                              castelnuovo_bound, riemann_roch_chi)

# named classes on the 6-point blowup
F1 = DivisorClass(2, (0, 1, 0, 1, 1, 1))
F2 = DivisorClass(2, (1, 0, 1, 0, 1, 1))
F3 = DivisorClass(2, (1, 1, 1, 1, 0, 0))
D1 = DivisorClass(1, (1, 0, 1, 0, 0, 0))
D2 = DivisorClass(1, (0, 1, 0, 1, 0, 0))
D3 = DivisorClass(1, (0, 0, 0, 0, 1, 1))
S1 = DivisorClass(1, (1, 1, 0, 0, 1, 0))
S2 = DivisorClass(1, (0, 1, 1, 0, 0, 1))
S3 = DivisorClass(1, (0, 0, 1, 1, 1, 0))
S4 = DivisorClass(1, (1, 0, 0, 1, 0, 1))
LAT6 = BlowupLattice(6)


def random_class(rng, n, bound=9):
    return DivisorClass(rng.randint(-bound, bound),
                        tuple(rng.randint(-bound, bound) for _ in range(n)))


def test_basis_normalization():
    lat = BlowupLattice(6)
    assert lat.line.dot(lat.line) == 1
    for i in range(1, 7):
        assert lat.exceptional(i).dot(lat.exceptional(i)) == -1
        assert lat.line.dot(lat.exceptional(i)) == 0
        for j in range(i + 1, 7):
            assert lat.exceptional(i).dot(lat.exceptional(j)) == 0
    assert lat.canonical == DivisorClass(-3, (-1,) * 6)


def test_diagonal_pencil_products():
    # Delta_i . f_j = 2 delta_ij, Delta_i . S_j = 0
    for i, d in enumerate((D1, D2, D3)):
        for j, f in enumerate((F1, F2, F3)):
            assert d.dot(f) == (2 if i == j else 0)
        for s in (S1, S2, S3, S4):
            assert d.dot(s) == 0


def test_relation_list():
    minus_k = -1 * LAT6.canonical
    assert F1 == D2 + D3 and F2 == D3 + D1 and F3 == D1 + D2
    assert minus_k == D1 + D2 + D3
    for f, d in ((F1, D1), (F2, D2), (F3, D3)):
        assert minus_k == f + d
    for s in (S1, S2, S3, S4):
        assert s.dot(s) == -2 and s.dot(LAT6.canonical) == 0


def test_arithmetic_genus_values():
    # independent oracle: genus computed straight from the pairing numbers
    s, k = F1.dot(F1), F1.dot(LAT6.canonical)
    assert (s, k) == (0, -2)
    assert arithmetic_genus(F1) == (s + k) // 2 + 1 == 0
    assert arithmetic_genus(LAT6.zero) == 1
    # a class with D^2 = 12 and K.D = 0 has genus 7
    lat = BlowupLattice(13)
    h = DivisorClass(7, (2,) * 8 + (1,) * 5)
    assert h.dot(h) == 12 and h.dot(lat.canonical) == 0
    assert arithmetic_genus(h) == 7


def test_riemann_roch_chi_values():
    assert riemann_roch_chi(LAT6.zero) == 1
    minus_k = -1 * LAT6.canonical
    assert minus_k.dot(minus_k) == 3
    assert riemann_roch_chi(minus_k) == 4
    h = DivisorClass(7, (2,) * 8 + (1,) * 5)  # D^2 = 12, K.D = 0
    assert riemann_roch_chi(h) == 7


def test_chi_literal_identity():
    rng = random.Random(7)
    for _ in range(300):
        d = random_class(rng, 6)
        k = LAT6.canonical
        assert riemann_roch_chi(d) - 1 == (d.dot(d) - d.dot(k)) // 2
        # Serre symmetry at the chi level
        assert riemann_roch_chi(d) == riemann_roch_chi(k - d)


def test_adjunction_parity():
    rng = random.Random(11)
    for _ in range(1000):
        n = rng.randint(0, 9)
        d = random_class(rng, n)
        k = DivisorClass(-3, (-1,) * n)
        assert d.dot(d + k) % 2 == 0
        # both read K.D off the entries, with no canonical class built
        assert arithmetic_genus(d) == d.dot(d + k) // 2 + 1
        assert riemann_roch_chi(d) == d.dot(d - k) // 2 + 1


def test_pairing_symmetric_bilinear():
    rng = random.Random(13)
    for _ in range(200):
        a, b, c = (random_class(rng, 5) for _ in range(3))
        x, y = rng.randint(-4, 4), rng.randint(-4, 4)
        assert a.dot(b) == b.dot(a)
        assert (x * a + y * b).dot(c) == x * a.dot(c) + y * b.dot(c)


def test_blow_up():
    lat7 = BlowupLattice(7)
    assert lat7.rank == 8
    assert lat7.canonical == DivisorClass(-3, (-1,) * 7)
    assert lat7.exceptional(7).dot(lat7.exceptional(7)) == -1
    # lifted classes pair as before, and miss the new exceptional class
    rng = random.Random(17)
    for _ in range(100):
        a, b = random_class(rng, 6), random_class(rng, 6)
        assert a.lift().n == lat7.n
        assert a.lift().dot(b.lift()) == a.dot(b)
        assert a.lift().dot(lat7.exceptional(7)) == 0
    assert F1.lift().dot(D1.lift()) == 2
    # K + L3 = l - e1 - e2 - e3 on the 7-point lattice
    l3 = DivisorClass(4, (2, 2, 2, 1, 1, 1, 1))
    assert lat7.canonical + l3 == DivisorClass(1, (1, 1, 1, 0, 0, 0, 0))


def test_mod2():
    rng = random.Random(19)
    for _ in range(50):
        a = random_class(rng, 6)
        assert (2 * a).mod2() == (0,) * 7
        b = random_class(rng, 6)
        assert (a + b).mod2() == tuple((x + y) % 2
                                       for x, y in zip(a.mod2(), b.mod2()))
    # example-1 relation: D2 + D3 and 2L1 agree mod 2
    d2 = D2 + F3
    d3 = D3 + 2 * F1 + S3 + S4
    l1 = DivisorClass(5, (1, 2, 1, 3, 2, 2))
    assert (d2 + d3 - 2 * l1).mod2() == (0,) * 7
    assert (S1 + S2 + S3 + S4).mod2() == (0,) * 7


def test_mod2_detects_divisibility():
    assert DivisorClass(4, (2, 0, 2, 2, 0, 0)).mod2() == (0,) * 7
    assert S1.mod2() != (0,) * 7


def test_castelnuovo_bound():
    assert castelnuovo_bound(8, 5) == 3
    assert castelnuovo_bound(12, 6) == 7
    # twisted cubic and elliptic quartic in P^3
    assert castelnuovo_bound(3, 3) == 0
    assert castelnuovo_bound(4, 3) == 1
    with pytest.raises(ValueError):
        castelnuovo_bound(8, 2)
    with pytest.raises(ValueError):
        castelnuovo_bound(0, 5)


def test_rank_mismatch_rejected():
    with pytest.raises(LatticeMismatchError):
        F1.dot(DivisorClass(1, (1, 0, 1, 0, 0, 0, 0)))
    with pytest.raises(LatticeMismatchError):
        F1 + DivisorClass(0, (0,) * 5)


def test_vector_round_trip():
    assert DivisorClass.from_vector([5, 1, 2, 1, 3, 2, 2]).to_vector() == \
        [5, 1, 2, 1, 3, 2, 2]
    assert LAT6.from_vector(F1.to_vector()) == F1
    with pytest.raises(LatticeMismatchError):
        LAT6.from_vector([1, 0, 0])


def test_pretty_printing():
    assert str(DivisorClass(5, (1, 2, 1, 3, 2, 2))) == "5l-e1-2e2-e3-3e4-2e5-2e6"
    assert str(LAT6.zero) == "0"
    assert str(LAT6.exceptional(3)) == "e3"


def _entries(n):
    return st.lists(st.integers(-10**12, 10**12), min_size=n + 1, max_size=n + 1)


@settings(database=None, deadline=None)
@given(st.data())
def test_class_arithmetic_matches_public_constructor(data):
    # the operators build their results without re-validating; each must
    # equal, and hash like, the class the public constructor makes
    n = data.draw(st.integers(0, 8))
    a, b, c = (data.draw(_entries(n)) for _ in range(3))
    k = data.draw(st.integers(-10**6, 10**6))
    A, B, C = (DivisorClass.from_vector(v) for v in (a, b, c))
    for got, want in ((A + B, [x + y for x, y in zip(a, b)]),
                      (A - B, [x - y for x, y in zip(a, b)]),
                      (-A, [-x for x in a]),
                      (k * A, [k * x for x in a]),
                      (A * k, [k * x for x in a]),
                      (A.lift().lift(), a + [0, 0])):
        public = DivisorClass(want[0], tuple(want[1:]))
        assert got == public and hash(got) == hash(public)
        assert all(type(x) is int for x in got.to_vector())
    assert A.dot(B) == B.dot(A)
    assert (A + B).dot(C) == A.dot(C) + B.dot(C)
    assert (k * A).dot(B) == k * A.dot(B)
    assert A.dot(B) == a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))
    other = DivisorClass(0, (0,) * (n + 1))
    for op in (lambda: A + other, lambda: A - other, lambda: A.dot(other),
               lambda: other - A):
        with pytest.raises(LatticeMismatchError):
            op()


@settings(database=None, deadline=None)
@given(st.data())
def test_class_equality_and_hash_go_by_the_vector(data):
    # DivisorClass compares and hashes its (degree, mults) directly
    small = st.integers(-2, 2) | st.integers(-10**12, 10**12)
    a = data.draw(st.lists(small, min_size=1, max_size=9))
    b = data.draw(st.just(list(a)) | st.lists(small, min_size=1, max_size=9))
    n, m = len(a) - 1, len(b) - 1
    A, B = DivisorClass.from_vector(a), DivisorClass.from_vector(b)
    assert hash(A) == hash((A.degree, A.mults))
    assert (A == B) is (B == A) is (a == b) is not (A != B)
    assert A.__eq__((A.degree, A.mults)) is NotImplemented
    assert A.__eq__(BlowupLattice(n)) is NotImplemented
    assert A != (A.degree, A.mults) and A != BlowupLattice(n)
    if n != m:
        with pytest.raises(LatticeMismatchError,
                           match=f"^rank mismatch: {n + 1} vs {m + 1}$"):
            A.dot(B)


def test_non_integral_entries_rejected():
    # int() would truncate these: 1.9 to 1, 2.5 to 2, Fraction(1, 2) to 0
    with pytest.raises(TypeError):
        DivisorClass(1.9, (0.5, 1))
    with pytest.raises(TypeError):
        DivisorClass(1, (Fraction(1, 2), 1))
    e = DivisorClass(1, (1, 0))
    for k in (2.5, Fraction(1, 2), 2.0):
        with pytest.raises(TypeError):
            e * k
        with pytest.raises(TypeError):
            k * e
    for vec in ([5.4, 1, 2], [5, 1, Fraction(4, 2)], ["5", 1, 2]):
        with pytest.raises(TypeError):
            DivisorClass.from_vector(vec)
        with pytest.raises(TypeError):
            BlowupLattice(2).from_vector(vec)
    # integral types are accepted, and stored as int
    vec = DivisorClass(True, (False, 2)).to_vector()
    assert vec == [1, 0, 2] and all(type(x) is int for x in vec)


def test_classes_are_immutable_values():
    # the classes are hand-written __slots__ classes: pin what the frozen
    # dataclasses they replace gave
    d, lat = DivisorClass(2, (0, 1)), BlowupLattice(6)
    assert repr(d) == "DivisorClass(degree=2, mults=(0, 1))"
    assert repr(lat) == "BlowupLattice(n=6)"
    for obj, field in ((d, "degree"), (d, "mults"), (lat, "n")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 1)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        with pytest.raises(AttributeError):
            obj.other = 1
        assert not hasattr(obj, "__dict__")
    same = (d, DivisorClass._of(2, (0, 1)), DivisorClass.from_vector([2, 0, 1]),
            copy.deepcopy(d), pickle.loads(pickle.dumps(d)))
    assert all(x == d and hash(x) == hash(d) for x in same)
    assert d != DivisorClass(2, (1, 0)) and d != DivisorClass(2, (0, 1, 0))
    assert d.__eq__((2, (0, 1))) is NotImplemented and d != (2, (0, 1))
    assert lat == BlowupLattice(6) == pickle.loads(pickle.dumps(lat))
    assert hash(lat) == hash(BlowupLattice(6)) and lat != BlowupLattice(7)
    assert lat.__eq__(6) is NotImplemented
    assert len({d, *same, lat, BlowupLattice(6)}) == 2
    with pytest.raises(ValueError):
        BlowupLattice(-1)


def test_lattice_size_is_a_non_negative_integer():
    # 2.5 used to construct and fail later, in .canonical, with TypeError
    for n in (2.5, 6.0, Fraction(1, 2), "6", -1):
        with pytest.raises(ValueError):
            BlowupLattice(n)
    assert BlowupLattice(True).n == 1 and type(BlowupLattice(True).n) is int
