import itertools
import random
from fractions import Fraction
from math import gcd, perm

import pytest

from bidouble.lattice import BlowupLattice, DivisorClass
from bidouble.plane import (FatPointSystem, PointConfiguration,
                            class_to_system, collinear, det3,
                            effective_decompositions, h0_class, h0_fat_points,
                            interpolation_dimension, rank_rational,
                            standard_quadrilateral, sum_of_decomposition)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _proportional(p, q):
    return _cross(p, q) == (0, 0, 0)


def test_standard_points():
    cfg = standard_quadrilateral(with_p7=True)
    # oracle: intersect the lines by cross products of their coefficients
    line = lambda p, q: _cross(p, q)
    p = cfg.points
    p5 = _cross(line(p[0], p[1]), line(p[2], p[3]))
    assert _proportional(p5, p[4])
    p6 = _cross(line(p[0], p[3]), line(p[1], p[2]))
    assert _proportional(p6, p[5])
    p7 = _cross(line(p[1], p[3]), line(p[4], p[5]))
    assert _proportional(p7, p[6])
    assert p[6] == (1, 2, 1)


def test_recorded_collinearities():
    cfg = standard_quadrilateral(with_p7=True)
    assert cfg.collinear_triples == {
        frozenset(t) for t in ((1, 2, 5), (3, 4, 5), (2, 3, 6), (1, 4, 6),
                               (5, 6, 7), (2, 4, 7))}
    for triple in cfg.collinear_triples:
        i, j, k = sorted(triple)
        assert collinear(cfg.point(i), cfg.point(j), cfg.point(k))
    # no unrecorded collinearity; in particular {1,3,7} is not collinear
    assert not collinear(cfg.point(1), cfg.point(3), cfg.point(7))
    for tri in itertools.combinations(range(1, 8), 3):
        if frozenset(tri) not in cfg.collinear_triples:
            assert det3(*(cfg.point(i) for i in tri)) != 0


def test_catalogue_classes():
    cfg = standard_quadrilateral()
    assert cfg.cls("S1") == DivisorClass(1, (1, 1, 0, 0, 1, 0))
    assert cfg.cls("Delta3") == DivisorClass(1, (0, 0, 0, 0, 1, 1))
    assert cfg.cls("f1") == DivisorClass(2, (0, 1, 0, 1, 1, 1))
    for name in ("S1", "S2", "S3", "S4"):
        s = cfg.cls(name)
        assert s.dot(s) == -2 and s.dot(cfg.lattice.canonical) == 0
    cfg7 = standard_quadrilateral(with_p7=True)
    assert cfg7.cls("Delta2bar") == DivisorClass(1, (0, 1, 0, 1, 0, 0, 1))
    assert cfg7.cls("C") == DivisorClass(4, (2, 1, 2, 1, 1, 1, 2))


def test_general_point_misses_catalogued_lines():
    for seed in (0, 1, 2, 34):
        cfg = standard_quadrilateral(with_general_point=True, seed=seed)
        p = cfg.points[-1]
        for e in cfg.entries:
            if e.line is not None:
                a, b, c = e.line
                assert a * p[0] + b * p[1] + c * p[2] != 0


def test_points_are_coprime_integer_triples():
    cfgs = [standard_quadrilateral(), standard_quadrilateral(with_p7=True)]
    cfgs += [standard_quadrilateral(with_general_point=True, seed=seed)
             for seed in (0, 7, 37)]
    for cfg in cfgs:
        for p in cfg.points:
            assert len(p) == 3 and all(type(c) is int for c in p)
            assert gcd(*p) == 1
    # the general point of seed 37 is the affine (9/2, 7/9, 1), drawn with
    # rational coordinates and stored as the coprime triple
    assert cfgs[-1].points[-1] == (81, 14, 18)


def test_p7_and_general_point_exclusive():
    with pytest.raises(ValueError):
        standard_quadrilateral(with_p7=True, with_general_point=True)


def test_h0_no_assignments():
    cfg = standard_quadrilateral()
    for d in range(7):
        assert h0_fat_points(cfg, FatPointSystem(d, ())) == \
            (d + 1) * (d + 2) // 2


def test_h0_pinned_systems():
    cfg = standard_quadrilateral(with_p7=True)
    # a line through the three non-collinear points P1, P2, P3
    assert h0_fat_points(cfg, FatPointSystem(1, ((0, 1), (1, 1), (2, 1)))) == 0
    # conic through P2, double at P4, through P5, P6
    assert h0_fat_points(
        cfg, FatPointSystem(2, ((1, 1), (3, 2), (4, 1), (5, 1)))) == 0
    # quartic through P1, P3, P7 with double points at P2, P4, P5, P6
    assert h0_fat_points(
        cfg, FatPointSystem(4, ((0, 1), (2, 1), (6, 1), (1, 2), (3, 2),
                                (4, 2), (5, 2)))) == 0
    # quintics: simple at P1, P3, P7, double at P2, P4, P5, P6
    assert h0_fat_points(
        cfg, FatPointSystem(5, ((0, 1), (2, 1), (6, 1), (1, 2), (3, 2),
                                (4, 2), (5, 2)))) == 6


def test_h0_cubic_adjoint_vanishes():
    # cubic through P1..P4 with double points at P5, P6 (K+L2 of example 1)
    cfg = standard_quadrilateral()
    assert h0_fat_points(
        cfg, FatPointSystem(3, ((0, 1), (1, 1), (2, 1), (3, 1), (4, 2),
                                (5, 2)))) == 0


def test_h0_lower_bound_and_monotonicity():
    cfg = standard_quadrilateral(with_p7=True)
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(0, 5)
        k = rng.randint(0, min(7, d + 2))
        pts = rng.sample(range(7), k)
        mults = [rng.randint(1, 2) for _ in pts]
        sys_ = FatPointSystem(d, tuple(zip(pts, mults)))
        h = h0_fat_points(cfg, sys_)
        assert h >= sys_.expected_dimension
        # adding one more condition never increases h0
        free = [i for i in range(7) if i not in pts]
        if free:
            bigger = FatPointSystem(d, sys_.assignments + ((free[0], 1),))
            assert h0_fat_points(cfg, bigger) <= h


def test_h0_multiplicity_exceeding_degree():
    cfg = standard_quadrilateral()
    assert h0_fat_points(cfg, FatPointSystem(1, ((0, 2),))) == 0
    assert h0_fat_points(cfg, FatPointSystem(0, ((0, 2),))) == 0
    # degree = multiplicity is fine: conics singular at a point = line pairs
    assert h0_fat_points(cfg, FatPointSystem(2, ((0, 2),))) == 3


def test_general_position_stability():
    # the same systems over independently drawn general points
    values = []
    for seed in (3, 14, 15):
        cfg = standard_quadrilateral(with_general_point=True, seed=seed)
        vals = (
            h0_fat_points(cfg, FatPointSystem(3, ((6, 1), (0, 1), (1, 1)))),
            h0_fat_points(cfg, FatPointSystem(4, ((6, 2), (1, 2), (3, 1)))),
            h0_fat_points(cfg, FatPointSystem(5, tuple((i, 2) for i in range(5)))),
        )
        values.append(vals)
    assert values[0] == values[1] == values[2]


def test_class_to_system():
    cfg = standard_quadrilateral()
    sys_ = class_to_system(cfg, DivisorClass(2, (1, 0, 1, 0, 1, 1)))
    assert sys_.degree == 2
    assert sys_.assignments == ((0, 1), (2, 1), (4, 1), (5, 1))
    minus_k = -1 * cfg.lattice.canonical
    assert class_to_system(cfg, minus_k).assignments == \
        tuple((i, 1) for i in range(6))
    with pytest.raises(ValueError):
        class_to_system(cfg, DivisorClass(2, (0, 0, 0, -1, 0, 0)))


def test_h0_class_fixed_parts():
    cfg = standard_quadrilateral(with_p7=True)
    k = cfg.lattice.canonical
    # the rigid class e4 + Delta2bar + S1 + S2 + S3 + S4
    rigid = DivisorClass(5, (2, 3, 2, 2, 2, 2, 1))
    assert h0_class(cfg, rigid) == 1
    assert h0_class(cfg, -1 * k + cfg.cls("f1")) == 6
    m = 2 * k + DivisorClass(16, (5, 7, 5, 7, 6, 6, 4))  # 2K + D of example 2
    assert m == DivisorClass(10, (3, 5, 3, 5, 4, 4, 2))
    l2 = DivisorClass(7, (2, 3, 2, 3, 3, 3, 2))
    l3 = DivisorClass(4, (2, 2, 2, 1, 1, 1, 1))
    assert h0_class(cfg, m - l2) == 0
    assert h0_class(cfg, m - l3) == 0
    # negative degree after removal
    assert h0_class(cfg, DivisorClass(-1, (0,) * 7)) == 0


def test_h0_class_negative_multiplicity_cleanup():
    # m7 = -1 forces subtracting e7 before interpolating
    cfg = standard_quadrilateral(with_p7=True)
    d = DivisorClass(2, (1, 1, 1, 1, 1, 1, -1))
    assert h0_class(cfg, d) == 0


def test_h0_class_nine_four_six():
    # (9; 4^6) = l + 2(S1 + S2 + S3 + S4), each point lying on two sides:
    # every side in turn meets the residue as -3 and is fixed ceil(3/2) = 2
    # times, and the residue l has 3 sections
    cfg = standard_quadrilateral()
    assert h0_class(cfg, DivisorClass(9, (4, 4, 4, 4, 4, 4))) == 3


def _configurations():
    yield "six", standard_quadrilateral()
    yield "P7", standard_quadrilateral(with_p7=True)
    for seed in (0, 5, 11, 37):
        yield f"general{seed}", standard_quadrilateral(with_general_point=True,
                                                       seed=seed)


def test_negative_curve_counts():
    # (-2)- and (-1)-curves.  P6: the four sides; e1..e6 and the three
    # diagonals.  P7: the six lines through three points; e1..e7, Delta1,
    # l-e1-e7 and l-e3-e7.  A general point: the four sides; e1..e7, nine
    # lines through two points, three conics and one cubic
    want = {"six": (4, 9), "P7": (6, 10)}
    for name, cfg in _configurations():
        entries = cfg.negative_entries
        counts = tuple(sum(e.self_intersection == s for e in entries)
                       for s in (-2, -1))
        assert counts == want.get(name, (4, 20)), name
        assert len(entries) == sum(counts)
        k = cfg.lattice.canonical
        assert all(e.cls.dot(k) == -2 - e.self_intersection for e in entries)
        # every catalogued negative curve is derived, under its own name
        derived = set(entries)
        assert all(e in derived for e in cfg.entries
                   if e.kind != "pencil" and e.self_intersection < 0)
        assert cfg.negative_entries is entries


def test_almost_general_position_enforced():
    lat = BlowupLattice(5)
    four_on_a_line = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1))
    points = tuple(tuple(map(Fraction, p)) for p in four_on_a_line)
    triples = frozenset(map(frozenset, itertools.combinations(range(1, 5), 3)))
    with pytest.raises(ValueError, match="one line"):
        PointConfiguration(points, triples, lat, ())
    # seven points of the conic y z = x^2, no three collinear
    conic = tuple((Fraction(t), Fraction(t * t), Fraction(1)) for t in range(7))
    with pytest.raises(ValueError, match="conic"):
        PointConfiguration(conic, frozenset(), BlowupLattice(7), ())
    # six of them are fine, and the conic through them is a (-2)-curve
    six = PointConfiguration(conic[:6], frozenset(), BlowupLattice(6), ())
    assert [str(e.cls) for e in six.negative_entries
            if e.self_intersection == -2] == ["2l-e1-e2-e3-e4-e5-e6"]


def test_h0_class_matches_interpolation():
    # h0 of (d; m) is the fat-point dimension with the negative
    # multiplicities clamped to 0, the e_i being fixed there
    rng = random.Random(12)
    positive = 0
    for name, cfg in _configurations():
        for _ in range(40):
            d = rng.randint(0, 12)
            top = rng.choice((d, rng.randint(0, d)))
            mults = tuple(rng.randint(-2, top) for _ in range(cfg.lattice.n))
            want = interpolation_dimension(
                cfg.points, d, [(i, m) for i, m in enumerate(mults) if m > 0])
            assert h0_class(cfg, DivisorClass(d, mults)) == want, (name, d, mults)
            positive += want > 0
    assert positive >= 60


def test_h0_class_recognises_empty_systems_early():
    # (10^6; 500001^4): 2d < m1 + m2 + m3 + m4 on the nef conic class f3,
    # so there are no sections; splitting off fixed curves alone would take
    # about 1.5 * 10^6 steps to drive the degree negative
    cfg = standard_quadrilateral()
    a = 500001
    assert h0_class(cfg, DivisorClass(10**6, (a, a, a, a, 0, 0))) == 0
    assert h0_class(cfg, DivisorClass(10**12, (10**12 // 2 + 1,) * 4 + (0, 0))) == 0
    # (10^6; 500000^3, 499999) is nef: it meets S1, S2 and Delta1 as 0 and
    # every other negative curve positively; D^2 = 999999, -K.D = 1000001
    # and h0 = chi = 1 + (999999 + 1000001) / 2
    assert h0_class(cfg, DivisorClass(10**6, (a - 1,) * 3 + (a - 2, 0, 0))) \
        == 1000001


def test_effective_decompositions_f1():
    cfg = standard_quadrilateral()
    decs = effective_decompositions(cfg, cfg.cls("f1"))
    assert decs == [
        (("Delta2", 1), ("Delta3", 1)),
        (("S1", 1), ("S4", 1), ("e1", 2)),
        (("S2", 1), ("S3", 1), ("e3", 2)),
        (("f1", 1),),
    ]
    for dec in decs:
        assert sum_of_decomposition(cfg, dec) == cfg.cls("f1")


def test_effective_decompositions_p7():
    cfg = standard_quadrilateral(with_p7=True)
    decs = effective_decompositions(cfg, cfg.cls("f1"))
    assert (("Delta2bar", 1), ("Delta3bar", 1), ("e7", 2)) in decs
    assert len(decs) == 4
    for dec in decs:
        assert sum_of_decomposition(cfg, dec) == cfg.cls("f1")


def test_effective_decompositions_rigid():
    cfg = standard_quadrilateral(with_p7=True)
    rigid = DivisorClass(5, (2, 3, 2, 2, 2, 2, 1))
    decs = effective_decompositions(cfg, rigid)
    assert decs == [(("Delta2bar", 1), ("S1", 1), ("S2", 1), ("S3", 1),
                     ("S4", 1), ("e4", 1))]


def test_effective_decompositions_exceptional():
    cfg = standard_quadrilateral()
    decs = effective_decompositions(cfg, cfg.lattice.exceptional(1))
    assert decs == [(("e1", 1),)]


def test_interpolation_dimension_standalone():
    # raw-point interface used by the random suites
    pts = [(Fraction(1), Fraction(0), Fraction(0)),
           (Fraction(0), Fraction(1), Fraction(0)),
           (Fraction(0), Fraction(0), Fraction(1))]
    assert interpolation_dimension(pts, 1, [(0, 1), (1, 1), (2, 1)]) == 0
    assert interpolation_dimension(pts, 2, [(0, 1), (1, 1), (2, 1)]) == 3


# ---------------------------------------------------------------------------
# the integer kernel against a Fraction reference


def _fraction_rank(rows):
    """Reference rank over Q: Fraction Gauss-Jordan elimination."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return 0
    rank = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [v - f * w for v, w in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _exponents(total):
    return [(a, b, total - a - b)
            for a in range(total + 1) for b in range(total - a + 1)]


def _reference_dimension(points, degree, assignments):
    """h^0 from Fraction derivative values at the points as given."""
    if any(m > degree for _, m in assignments):
        return 0
    monos = _exponents(degree)
    rows = []
    for idx, m in assignments:
        for alpha in _exponents(m - 1):
            row = []
            for exp in monos:
                val = Fraction(1)
                for e, a, c in zip(exp, alpha, points[idx]):
                    val *= perm(e, a) * Fraction(c) ** (e - a) if a <= e else 0
                row.append(val)
            rows.append(row)
    return len(monos) - _fraction_rank(rows)


def test_rank_multiples_of_the_prime():
    # every entry vanishes mod 2^61 - 1: a rank of 0 mod p is no answer
    p = 2**61 - 1
    assert rank_rational([[p, 0], [0, p]]) == 2
    assert rank_rational([[p, 2 * p, 3 * p], [4 * p, 5 * p, 6 * p]]) == 2
    assert rank_rational([[p, 2 * p], [3 * p, 6 * p]]) == 1
    assert rank_rational([[0, 0], [0, 0]]) == 0
    assert rank_rational([]) == 0


def test_rank_matches_fraction_reference():
    rng = random.Random(61)
    p = 2**61 - 1
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.choice((0, 0, 1, -1, 2, p, -p, 3 * p + 1))
                for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5 and nrows > 1:
            # a dependent row
            mat[-1] = [a * 3 - b * p for a, b in zip(mat[0], mat[1])]
        copy = [list(r) for r in mat]
        assert rank_rational(mat) == _fraction_rank(mat)
        assert mat == copy


def test_interpolation_matches_reference_random():
    # criterion-8-style systems at random rational points, including the
    # special (2; 2, 2) and (4; 2^5), whose rank is not full
    rng = random.Random(808)
    systems = [(2, [2, 2]), (4, [2] * 5)]
    systems += [(rng.randint(0, 6), [rng.randint(1, 2)
                                     for _ in range(rng.randint(0, 8))])
                for _ in range(60)]
    for d, mults in systems:
        pts = [(Fraction(rng.randint(-15, 15), rng.randint(1, 8)),
                Fraction(rng.randint(-15, 15), rng.randint(1, 8)),
                Fraction(rng.randint(1, 3))) for _ in mults]
        assignments = list(enumerate(mults))
        assert interpolation_dimension(pts, d, assignments) == \
            _reference_dimension(pts, d, assignments), (d, mults, pts)
    rng_pts = [(Fraction(1, 2), Fraction(-3, 7), Fraction(1)),
               (Fraction(2, 3), Fraction(5), Fraction(1))]
    assert interpolation_dimension(rng_pts, 2, [(0, 2), (1, 2)]) == 1
    five = [(Fraction(t), Fraction(t * t), Fraction(1)) for t in range(5)]
    assert interpolation_dimension(five, 4, [(i, 2) for i in range(5)]) == 1


def test_interpolation_rank_deficient_fallback():
    # (d; m at P2, P4, P7): the triple points of the diagonal Delta2bar
    # make the system special, so the mod-p rank cannot certify it
    cfg = standard_quadrilateral(with_p7=True)
    for d, m, want in ((10, 6, 19), (14, 8, 37)):
        system = FatPointSystem(d, ((1, m), (3, m), (6, m)))
        got = interpolation_dimension(cfg.points, d, system.assignments)
        assert got > system.expected_dimension
        assert got == want == h0_fat_points(cfg, system) == \
            _reference_dimension(cfg.points, d, system.assignments)


def test_interpolation_general_point_scaling():
    # (1/2 : 1/3 : 1) = (3 : 2 : 6) and (1 : 2/3 : 1) = (3 : 2 : 3) lie on
    # 2x = 3y with (0 : 0 : 1); their numerators alone would not
    third = (Fraction(1, 2), Fraction(1, 3), Fraction(1))
    twothirds = (Fraction(1), Fraction(2, 3), Fraction(1))
    pts = [third, twothirds, (Fraction(0), Fraction(0), Fraction(1))]
    assert interpolation_dimension(pts, 1, [(0, 1), (1, 1), (2, 1)]) == 1
    assert interpolation_dimension(pts, 2, [(0, 2), (1, 1), (2, 1)]) == 2
    # the seeded general point is drawn with rational affine coordinates and
    # stored scaled to coprime integers; the affine form (x/z, y/z, 1) is
    # scaled back inside interpolation_dimension, with the same dimensions
    for seed in (0, 7, 37):
        cfg = standard_quadrilateral(with_general_point=True, seed=seed)
        x, y, z = cfg.points[-1]
        assert z > 1
        affine = cfg.points[:-1] + ((Fraction(x, z), Fraction(y, z), Fraction(1)),)
        for d, assignments in ((4, ((6, 3),)), (5, ((6, 3), (0, 2))),
                               (6, ((6, 4), (1, 3))), (3, ((6, 2), (2, 2))),
                               (6, tuple((i, 2) for i in range(7)))):
            assert interpolation_dimension(cfg.points, d, assignments) == \
                interpolation_dimension(affine, d, assignments) == \
                h0_fat_points(cfg, FatPointSystem(d, assignments)) == \
                _reference_dimension(affine, d, assignments)
