import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd, perm

import pytest

from bidouble.lattice import BlowupLattice, DivisorClass
from bidouble.plane import (_LINES, CurveEntry, FatPointSystem, PointConfiguration,
                            _fixed_part, _on_a_conic, _quadrilateral, collinear,
                            det3, h0_class, h0_fat_points, reducible_fibres,
                            standard_quadrilateral)
from reference import (effective_decompositions, interpolation_dimension,
                       rank_rational, sum_of_decomposition)


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
        assert not any(7 in t for t in cfg.collinear_triples)
        for e in cfg.entries:
            if e.kind == "line":
                # the plane line through the entry's first two points
                i, j = [k for k, m in enumerate(e.cls.mults) if m][:2]
                a, b, c = _cross(cfg.points[i], cfg.points[j])
                assert a * p[0] + b * p[1] + c * p[2] != 0
                assert e.cls.mults[-1] == 0


def test_general_point_draws_are_pinned():
    # any change to the redraw rule changes some of the first 1000 draws
    draws = [standard_quadrilateral(with_general_point=True, seed=s).points[-1]
             for s in range(1000)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == \
        "8bdfce54e3b134830664f78bd4bab8aadc52229f36c0c036720b36c3446e35c1"
    assert (draws[0], draws[37]) == ((4, -3, 3), (81, 14, 18))


def test_incidence_is_derived_from_the_points():
    cfgs = [standard_quadrilateral(), standard_quadrilateral(with_p7=True)]
    cfgs += [standard_quadrilateral(with_general_point=True, seed=seed)
             for seed in range(-20, 40)]
    for cfg in cfgs:
        n = len(cfg.points)
        assert cfg.lattice == BlowupLattice(n)
        assert cfg.collinear_triples == {
            frozenset(t) for t in itertools.combinations(range(1, n + 1), 3)
            if det3(*(cfg.point(i) for i in t)) == 0}
        # each line passes through the points on the line its two naming
        # points span, found here by a cross product
        lines = [e for e in cfg.entries if e.kind == "line"]
        assert [e.name.removesuffix("bar") for e in lines] == list(_LINES)
        for e, (i, j) in zip(lines, _LINES.values()):
            a, b, c = _cross(cfg.point(i), cfg.point(j))
            assert e.cls == DivisorClass(1, tuple(
                int(a * p[0] + b * p[1] + c * p[2] == 0) for p in cfg.points))


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


# the curve tables in order, as names and as SHA-256 digests of
# repr([(name, class vector), ...]) and of repr(conic_bundles): the walk
# splits curves in table order, and reducible_fibres orders members by it
_SIDES = ["S1", "S4", "S2", "S3"]
_TABLES = {
    "six": (_SIDES + [f"e{i}" for i in range(1, 7)] + ["Delta1", "Delta2", "Delta3"],
            "001efaea0358286c4665be6030553948babf76464b89e88f41e16771aafc26eb",
            "37f9617b2e18b9bc0eba2708579877d65623aea1198f438ac8d734cd242b47c1"),
    "P7": (["S1", "S4", "S2", "Delta2bar", "S3", "Delta3bar"]
           + [f"e{i}" for i in range(1, 8)] + ["Delta1", "l-e1-e7", "l-e3-e7"],
           "fc024f1da58e39f5b69e65ddfd40f99807a33b8e24d9d13fcebe0f5921965e6d",
           "1a19cb517161968870bafcbafdd4bf2f01d5eb3fbe718026e78b6274891342e4"),
    "general": (_SIDES + [f"e{i}" for i in range(1, 8)]
                + ["Delta1", "l-e1-e7", "Delta2", "l-e2-e7", "l-e3-e7", "l-e4-e7",
                   "Delta3", "l-e5-e7", "l-e6-e7", "f3_strict", "f2_strict",
                   "f1_strict", "3l-e1-e2-e3-e4-e5-e6-2e7"],
                "455fe89c79d16ac3d6e4790bc38b546f7f79fdf72262d983fe13884652c2c0c8",
                "0401f7a75014bf61f083117d1a5a670c47bf57de50d62aa09ba9b86cf820136b"),
}


@pytest.mark.parametrize("name, cfg", (
    ("six", standard_quadrilateral()),
    ("P7", standard_quadrilateral(with_p7=True)),
    ("general", standard_quadrilateral(with_general_point=True, seed=0)),
    ("general", standard_quadrilateral(with_general_point=True, seed=37))),
    ids=("six", "P7", "general-0", "general-37"))
def test_curve_tables_keep_their_order(name, cfg):
    names, negative_digest, bundle_digest = _TABLES[name]
    negative = [(e.name, e.cls.to_vector()) for e in cfg.negative_entries]
    assert [e.name for e in cfg.negative_entries] == names
    assert hashlib.sha256(repr(negative).encode()).hexdigest() == negative_digest
    assert hashlib.sha256(repr(cfg.conic_bundles).encode()).hexdigest() == \
        bundle_digest


def test_almost_general_position_enforced():
    four_on_a_line = ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (0, 0, 1))
    points = tuple(tuple(map(Fraction, p)) for p in four_on_a_line)
    with pytest.raises(ValueError, match="one line"):
        PointConfiguration(points, ())
    # seven points of the conic y z = x^2, no three collinear
    conic = tuple((Fraction(t), Fraction(t * t), Fraction(1)) for t in range(7))
    with pytest.raises(ValueError, match="conic"):
        PointConfiguration(conic, ())
    with pytest.raises(ValueError, match="at most 7"):
        PointConfiguration(conic + ((2, 3, 5),), ())
    # six of them are fine, and the conic through them is a (-2)-curve
    six = PointConfiguration(conic[:6], ())
    assert [str(e.cls) for e in six.negative_entries
            if e.self_intersection == -2] == ["2l-e1-e2-e3-e4-e5-e6"]
    # so are six of them and a point off the conic, wherever it stands
    for i in range(7):
        points = list(conic[:6])
        points.insert(i, (2, 3, 5))
        cfg = PointConfiguration(tuple(points), ())
        assert [e.cls for e in cfg.negative_entries if e.self_intersection == -2] \
            == [DivisorClass(2, tuple(int(j != i) for j in range(7)))]


def test_coinciding_and_zero_points_refused():
    with pytest.raises(ValueError, match=r"points 1 \(1, 0, 0\) and 2 \(1, 0, 0\) coincide"):
        PointConfiguration(((1, 0, 0), (1, 0, 0)), ())
    with pytest.raises(ValueError, match=r"point 1 is \(0, 0, 0\)"):
        PointConfiguration(((0, 0, 0),), ())
    # proportional triples are one point of P^2, rational ones included
    with pytest.raises(ValueError, match="points 2 .* and 3 .* coincide"):
        PointConfiguration(((1, 0, 0), (Fraction(1, 2), 1, 0), (1, 2, 0)), ())
    with pytest.raises(ValueError, match="point 3 is"):
        PointConfiguration(((1, 0, 0), (0, 1, 0), (0, 0, 0)), ())


def test_configurations_are_shared_per_process():
    p7 = standard_quadrilateral(with_p7=True)
    assert p7 is standard_quadrilateral(with_p7=True, seed=5)
    assert standard_quadrilateral() is standard_quadrilateral(seed=5)
    assert p7.negative_entries is standard_quadrilateral(with_p7=True).negative_entries
    one, two = (standard_quadrilateral(with_general_point=True, seed=s) for s in (1, 2))
    assert one is not two and one.points != two.points
    assert one is standard_quadrilateral(with_general_point=True, seed=1)
    for _ in range(2):  # the check runs on every call, not once
        with pytest.raises(ValueError, match="at most one extra point"):
            standard_quadrilateral(with_p7=True, with_general_point=True)
    # bounded: a process that draws many general points keeps the last few
    assert _quadrilateral.cache_info().maxsize is not None
    for seed in range(100, 100 + 2 * _quadrilateral.cache_info().maxsize):
        standard_quadrilateral(with_general_point=True, seed=seed)
    assert _quadrilateral.cache_info().currsize == _quadrilateral.cache_info().maxsize


def test_bracket_conic_test_matches_interpolation():
    # every six of P6, of P7 and of the general points of seeds 0-29, and
    # seeded sets of points of the conic xz = y^2 with up to two moved off it
    cfgs = [standard_quadrilateral(), standard_quadrilateral(with_p7=True)]
    cfgs += [standard_quadrilateral(with_general_point=True, seed=seed)
             for seed in range(30)]
    sets = [six for cfg in cfgs for six in itertools.combinations(cfg.points, 6)]
    rng = random.Random(6)
    for _ in range(400):
        six = [(s * s, s * t, t * t)
               for s, t in ((rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6))]
        for i in rng.sample(range(6), rng.randint(0, 2)):
            six[i] = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
        sets.append(tuple(six))
    on = 0
    for six in sets:
        want = interpolation_dimension(six, 2, [(i, 1) for i in range(6)]) > 0
        assert _on_a_conic(*six) is want, six
        on += want
    assert (len(sets), on) == (618, 167)


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


def _names(member):
    return tuple(sorted((e.name, a) for e, a in member))


def _check_fibration(cfg, F, members):
    # every member re-sums to F, and the reducible fibres account for the
    # Picard rank: rho = n + 1 = 2 + sum (components - 1)
    for member in members:
        assert sum((a * e.cls for e, a in member), cfg.lattice.zero) == F
        assert all(a >= 1 and e.cls.dot(F) == 0 for e, a in member)
    assert sum(len(m) - 1 for m in members) == cfg.lattice.n - 1


def test_reducible_fibres_match_catalogue_oracle():
    # on these configurations every curve in a reducible member of f1, f2
    # and f3 is catalogued, so the brute-force oracle's decompositions
    # with more than one component are exactly the reducible members
    for name, cfg in _configurations():
        for pencil in ("f1", "f2", "f3"):
            F = cfg.cls(pencil)
            members = reducible_fibres(cfg, F)
            assert len(members) == (4 if name.startswith("general") else 3)
            assert sorted(map(_names, members)) == \
                [d for d in effective_decompositions(cfg, F) if len(d) > 1]
            _check_fibration(cfg, F, members)


def test_reducible_fibres_of_c_on_p7():
    # C = f2 + f3 - 2e7 = 4l - 2e1 - e2 - 2e3 - e4 - e5 - e6 - 2e7, and
    #   S1 + 2(l-e3-e7) + S4 = (l-e1-e2-e5) + (l-e1-e4-e6) + 2(l-e3-e7),
    #   S2 + 2(l-e1-e7) + S3 = (l-e2-e3-e6) + (l-e3-e4-e5) + 2(l-e1-e7),
    #   Delta2bar + 2 Delta1 + Delta3bar
    #     = (l-e2-e4-e7) + 2(l-e1-e3) + (l-e5-e6-e7);
    # the lines l-e3-e7 and l-e1-e7 are not catalogued, so the catalogue
    # oracle finds the last member only
    cfg = standard_quadrilateral(with_p7=True)
    C = cfg.cls("C")
    members = reducible_fibres(cfg, C)
    assert [[(e.name, a) for e, a in m] for m in members] == [
        [("S1", 1), ("S4", 1), ("l-e3-e7", 2)],
        [("S2", 1), ("S3", 1), ("l-e1-e7", 2)],
        [("Delta2bar", 1), ("Delta3bar", 1), ("Delta1", 2)],
    ]
    _check_fibration(cfg, C, members)
    assert [d for d in effective_decompositions(cfg, C) if len(d) > 1] == \
        [_names(members[2])]


def test_reducible_fibres_of_a_pencil_of_lines():
    # l - e1, the lines through P1: S1 + e2 + e5, S4 + e4 + e6, Delta1 + e3
    cfg = standard_quadrilateral()
    F = DivisorClass(1, (1, 0, 0, 0, 0, 0))
    members = reducible_fibres(cfg, F)
    assert sorted(map(_names, members)) == [
        (("Delta1", 1), ("e3", 1)),
        (("S1", 1), ("e2", 1), ("e5", 1)),
        (("S4", 1), ("e4", 1), ("e6", 1)),
    ]
    _check_fibration(cfg, F, members)


def test_reducible_fibres_refuse_other_classes():
    cfg = standard_quadrilateral(with_p7=True)
    f1 = cfg.cls("f1")
    refused = (
        2 * f1,                                      # K.F = -4
        cfg.cls("S1"),                               # F^2 = -1
        DivisorClass(1, (0,) * 7),                   # F^2 = 1
        # conics through P1, P2, P3, P5: F^2 = 0 and K.F = -2, but
        # F.S1 = -1, S1 passing through three of the base points
        DivisorClass(2, (1, 1, 1, 0, 1, 0, 0)),
    )
    for F in refused:
        with pytest.raises(ValueError, match="not a conic bundle"):
            reducible_fibres(cfg, F)
    with pytest.raises(ValueError, match="lattice"):
        reducible_fibres(cfg, DivisorClass(2, (0, 1, 0, 1, 1, 1)))


def _memo_configurations():
    # the configurations a process shares: P6, P7 and one general point
    return (standard_quadrilateral(), standard_quadrilateral(with_p7=True),
            standard_quadrilateral(with_general_point=True, seed=9))


def _seeded_classes(rng, n):
    classes = []
    for _ in range(240):
        d = rng.randint(-1, 14)
        top = rng.choice((d, rng.randint(0, max(d, 0))))
        classes.append(DivisorClass(d, tuple(rng.randint(-2, max(top, 0))
                                             for _ in range(n))))
    return classes


def test_memoised_h0_equals_a_fresh_configuration():
    # a copy through the constructor starts with an empty memo, so it walks
    # every class again; the shared configuration answers from its memo
    rng = random.Random(2021)
    checked = 0  # classes with sections checked against interpolation
    for cfg in _memo_configurations():
        classes = _seeded_classes(rng, cfg.lattice.n)
        classes += classes[:40]  # asked again
        first = [h0_class(cfg, c) for c in classes]
        assert all((c.degree, c.mults) in cfg._h0_memo for c in classes)
        warm = [h0_class(cfg, c) for c in classes]
        fresh = cfg.replace()
        assert "_h0_memo" not in fresh.__dict__
        cold = [h0_class(fresh, c) for c in classes]
        assert first == warm == cold
        # one entry per distinct class asked
        assert len(fresh._h0_memo) == len(set(classes))
        small = [(c, h0) for c, h0 in zip(classes, warm) if 0 <= c.degree <= 8]
        for c, h0 in small[:10]:
            assert h0 == interpolation_dimension(
                cfg.points, c.degree,
                [(i, m) for i, m in enumerate(c.mults) if m > 0]), c
            checked += h0 > 0
    assert checked >= 10


def test_fibres_refuse_a_wrong_curve_table():
    # S4 and e1 lie in the member S1 + S4 + 2e1 of f1 on P6, Delta3 in
    # Delta2 + Delta3; with e1 gone that member has no (-1)-curve left to
    # walk from, so only the check that every curve orthogonal to F is
    # placed catches it.  The (-1)-class f1 - e1 = S1 + S4 + e1 is no
    # curve: listed as one, its walk splits off e1 a second time
    p6 = standard_quadrilateral()
    table, f1 = p6.negative_entries, p6.cls("f1")
    bogus = CurveEntry("f1-e1", f1 - p6.cls("e1"), "conic")
    wrong = [tuple(e for e in table if e.name != name)
             for name in ("S4", "e1", "Delta3")] + [table + (bogus,)]
    for entries in wrong:
        cfg = p6.replace()
        cfg.__dict__["negative_entries"] = entries
        with pytest.raises(ValueError, match="do not sum to it"):
            reducible_fibres(cfg, f1)
        assert not cfg._fibre_memo


def test_fixed_part_splits_the_class_into_curves_and_a_nef_residue():
    # the seeded classes of test_memoised_h0_equals_a_fresh_configuration
    rng = random.Random(2021)
    for cfg in _memo_configurations():
        curves = cfg.negative_entries
        for c in _seeded_classes(rng, cfg.lattice.n):
            walk = _fixed_part(cfg, c.degree, c.mults)
            assert (walk is None) == (h0_class(cfg, c) == 0), c
            if walk is None:
                continue
            residue, split = DivisorClass(*walk[0]), walk[1]
            assert all(k >= 1 for k in split.values())
            assert residue + sum((k * curves[i].cls for i, k in split.items()),
                                 cfg.lattice.zero) == c
            assert all(residue.dot(e.cls) >= 0 for e in curves), c


def test_memoised_fibres_equal_a_fresh_configuration():
    for cfg in _memo_configurations():
        fresh = cfg.replace()
        for deg, mults in cfg.conic_bundles:
            F = DivisorClass(deg, mults)
            first = reducible_fibres(cfg, F)
            assert reducible_fibres(cfg, F) == first == reducible_fibres(fresh, F)
            _check_fibration(cfg, F, first)
        assert len(fresh._fibre_memo) == len(cfg.conic_bundles)


def test_memo_never_stores_an_error():
    cfg = standard_quadrilateral(with_p7=True)
    h0_class(cfg, cfg.cls("f1"))
    reducible_fibres(cfg, cfg.cls("f1"))
    sizes = len(cfg._h0_memo), len(cfg._fibre_memo)
    six = DivisorClass(2, (0, 1, 0, 1, 1, 1))
    for _ in range(2):  # the second call raises as the first did
        with pytest.raises(ValueError, match="lattice"):
            h0_class(cfg, six)
        with pytest.raises(ValueError, match="lattice"):
            reducible_fibres(cfg, six)
        with pytest.raises(ValueError, match="not a conic bundle"):
            reducible_fibres(cfg, 2 * cfg.cls("f1"))
    assert (len(cfg._h0_memo), len(cfg._fibre_memo)) == sizes


def test_memoised_fibres_come_in_a_new_list():
    cfg = standard_quadrilateral(with_p7=True)
    C = cfg.cls("C")
    members = reducible_fibres(cfg, C)
    want = list(members)
    members.pop()
    members.append(members[0])
    again = reducible_fibres(cfg, C)
    assert again == want and again is not members


def test_conic_bundles_match_a_brute_force():
    # every class of degree 0..6 and multiplicities -1..2 with F^2 = 0 and
    # -K.F = 2 that meets each negative curve non-negatively
    general = [standard_quadrilateral(with_general_point=True, seed=s)
               for s in (0, 37)]
    for cfg, size in ((standard_quadrilateral(), 9),
                      (standard_quadrilateral(with_p7=True), 19),
                      (general[0], 35), (general[1], 35)):
        brute = {(d, m) for d in range(7)
                 for m in itertools.product(range(-1, 3), repeat=cfg.lattice.n)
                 if d * d == sum(x * x for x in m) and 3 * d - sum(m) == 2
                 and all(DivisorClass(d, m).dot(e.cls) >= 0
                         for e in cfg.negative_entries)}
        assert len(cfg.conic_bundles) == size
        assert set(cfg.conic_bundles) == brute
        pencils = {(e.cls.degree, e.cls.mults) for e in cfg.entries
                   if e.kind == "pencil"}
        assert pencils <= brute


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
