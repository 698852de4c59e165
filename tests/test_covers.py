import os
import random

import pytest

from bidouble.covers import (BidoubleData, BranchComponent, BranchPreimage,
                             IncidenceError, RelationError, analyse,
                             branch_preimage, contraction_count,
                             count_double_fibres, double_cover_chi,
                             etale_double, fibre_multiplicity,
                             numeri_identities, resolve_111, slope_check)
from bidouble.examples import example1, example2, example3, halve
from bidouble.lattice import BlowupLattice, DivisorClass
from bidouble.plane import PointConfiguration, standard_quadrilateral

CFG6 = standard_quadrilateral()
CFG7 = standard_quadrilateral(with_p7=True)


def test_validate_example1():
    bd = example1()
    l3 = bd.L3
    assert l3.to_vector() == [4, 2, 2, 2, 1, 1, 1]
    # independent re-derivation of the relations from the component sums
    d1, d2, d3 = (bd.branch_class(i) for i in (1, 2, 3))
    assert 2 * bd.L1 == d2 + d3
    assert 2 * bd.L2 == d1 + d3
    assert 2 * l3 == d1 + d2


def test_validate_example2():
    bd = example2()
    assert bd.L3.to_vector() == [4, 2, 2, 2, 1, 1, 1, 1]


def test_validate_rejects_corruption():
    # a cover is checked when it is built, by the constructor or by replace
    bd = example2()
    e5 = CFG7.lattice.exceptional(5)
    for build in (lambda: bd.replace(L1=bd.L1 + e5),
                  lambda: BidoubleData(bd.configuration, bd.components,
                                       bd.L1 + e5, bd.L2)):
        with pytest.raises(RelationError) as err:
            build()
        (name, residue), = err.value.residues
        assert name == "2L1 - (D2+D3)"
        assert residue == 2 * e5
    with pytest.raises(RelationError) as err:
        bd.replace(L1=bd.L1 + e5, L2=bd.L2 - e5)
    assert err.value.residues == [("2L1 - (D2+D3)", 2 * e5),
                                  ("2L2 - (D1+D3)", -2 * e5)]


def test_validate_compares_each_class_once(monkeypatch):
    # smoothness compares distinct classes of one D_i pairwise and a
    # repeated class with itself: 2,000 more members of f1 in D3 (which
    # move L1 and L2 by 1000 f1) cost no more products than example 2's 14
    bd = example2()
    f1 = next(c for c in bd.components if c.name == "f1")
    comps = bd.components + tuple(
        f1.replace(name=f"f1#{k}") for k in range(2, 2002))
    calls = []
    real = DivisorClass.dot
    monkeypatch.setattr(DivisorClass, "dot",
                        lambda a, b: calls.append(b) or real(a, b))
    more = bd.replace(components=comps, L1=bd.L1 + 1000 * f1.cls,
                      L2=bd.L2 + 1000 * f1.cls)
    assert len(calls) == 14
    assert bd.replace() == bd and len(calls) == 2 * 14
    assert more.L3 == bd.L3


def test_validate_corruption_sweep():
    # perturbing any single component class breaks at least one relation
    for bd, cfg in ((example1(), CFG6), (example2(), CFG7),
                    (example3(), CFG7)):
        for idx, comp in enumerate(bd.components):
            e1 = cfg.lattice.exceptional(1)
            comps = list(bd.components)
            comps[idx] = comp.replace(cls=comp.cls + e1)
            with pytest.raises(RelationError):
                bd.replace(components=tuple(comps))


def test_example3_derived_classes():
    bd = example3()
    assert bd.l_provenance == "derived"
    assert bd.L1.to_vector() == [4, 1, 1, 1, 2, 2, 2, 0]
    assert bd.L2 == example2().L2
    assert 2 * bd.L3 == bd.branch_class(1) + bd.branch_class(2)


def test_halve():
    assert halve(DivisorClass(4, (2, 0, 2, 2, 0, 0))) == \
        DivisorClass(2, (1, 0, 1, 1, 0, 0))
    with pytest.raises(ValueError):
        halve(DivisorClass(3, (0,) * 6))


def test_examples_read_each_shipped_document_once(monkeypatch):
    from bidouble import examples

    reads = []
    real = examples.load_document

    def counting(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(examples, "load_document", counting)
    examples._cover.cache_clear()
    for _ in range(3):
        # each lives on the configuration its document names
        assert example1().configuration is CFG6
        assert example2().configuration is CFG7
        assert example3().configuration is CFG7
    assert sorted(map(os.path.basename, reads)) == \
        ["example1.json", "example2.json", "example3.json"]


def test_invariants_example1():
    bd = example1()
    rep = analyse(bd)
    # oracle for K^2 of the cover: (2K + D)^2 recomputed from raw sums
    m = 2 * CFG6.lattice.canonical + bd.branch_total
    assert m == DivisorClass(9, (3, 4, 3, 4, 4, 4))
    assert m.dot(m) == -1
    assert (rep.chi, rep.pg, rep.q) == (1, 0, 0)
    assert (rep.K2_cover, rep.contractions, rep.K2_minimal) == (-1, 8, 7)


def test_invariants_example2():
    rep = analyse(example2())
    assert (rep.chi, rep.pg, rep.K2_cover, rep.contractions, rep.K2_minimal) \
        == (1, 0, -4, 10, 6)


def test_invariants_example3():
    rep = analyse(example3())
    assert (rep.chi, rep.pg, rep.K2_cover, rep.contractions, rep.K2_minimal) \
        == (1, 0, -2, 8, 6)


def test_branch_preimage_split():
    bd = example1()
    pre = branch_preimage(bd, "S1")
    assert pre.branch_degree == 0 and pre.splits
    assert pre.pieces == 2 and pre.self_intersection == -1
    assert pre.genus == 0 and pre.contracted == 2
    assert contraction_count(bd) == 8


def test_branch_preimage_irreducible():
    bd = example3()
    e = branch_preimage(bd, "e7")
    assert (e.branch_degree, e.genus, e.self_intersection) == (4, 1, -1)
    th1 = branch_preimage(bd, "Delta2bar")
    assert (th1.branch_degree, th1.genus, th1.self_intersection) == (2, 0, -2)
    th2 = branch_preimage(bd, "Delta3bar")
    assert (th2.branch_degree, th2.genus, th2.self_intersection) == (2, 0, -2)
    assert contraction_count(bd) == 8


def test_branch_preimage_example2_contractions():
    bd = example2()
    for name in ("S1", "S2", "S3", "S4", "Delta2bar"):
        assert branch_preimage(bd, name).contracted == 2
    assert contraction_count(bd) == 10


def _preimage_from_scratch(bd, comp):
    """The preimage record of a component, from a fresh D - D_i."""
    b = comp.cls.dot(bd.branch_total - bd.branch_class(comp.branch))
    sq = comp.cls.dot(comp.cls)
    if b:
        return BranchPreimage(comp.name, b, False, 1, sq, b // 2 - 1, 0)
    return BranchPreimage(comp.name, 0, True, 2, sq // 2, 0,
                          2 if sq == -2 else 0)


def test_branch_preimage_matches_a_fresh_residual():
    # each cover works out D - D_i once per branch divisor; every preimage,
    # on the shipped covers, their (1,1,1) resolutions and fresh copies,
    # matches one worked out from scratch
    cfg = standard_quadrilateral(with_general_point=True, seed=3)
    built = [example1(), example2(), example3(),
             resolve_111(example1(), cfg, THROUGH),
             resolve_111(example1(), cfg, ("f2", "f3", "f1p"))]
    for bd in built + [bd.replace() for bd in built]:
        assert bd._residuals is bd._residuals == tuple(
            bd.branch_total - bd.branch_class(i) for i in (1, 2, 3))
        want = [_preimage_from_scratch(bd, c) for c in bd.components]
        assert [branch_preimage(bd, c.name) for c in bd.components] == want
        assert contraction_count(bd) == sum(
            c.count * p.contracted for c, p in zip(bd.components, want))


def test_branch_preimage_corrupt_inputs():
    # data whose preimages branch_preimage used to refuse (an odd b, and
    # b = 0 with an odd self-intersection) breaks the relations, so it is
    # refused when it is built
    two = PointConfiguration(((1, 0, 0), (0, 1, 0)), ())
    zero = two.lattice.zero
    with pytest.raises(RelationError):
        BidoubleData(two, (
            BranchComponent("a", DivisorClass(1, (1, 0)), 1),
            BranchComponent("b", DivisorClass(1, (0, 1)), 2),
            BranchComponent("c", DivisorClass(1, (1, 1)), 3),
        ), L1=zero, L2=zero)
    with pytest.raises(RelationError):
        BidoubleData(two, (
            BranchComponent("a", DivisorClass(0, (-1, 0)), 1),
            BranchComponent("b", DivisorClass(0, (0, -1)), 2),
        ), L1=zero, L2=zero)


# the members of D1, D2, D3 of example 1 sent through the general point
THROUGH = ("f2", "f3", "f1")


def test_resolve_111():
    bd = example1()
    cfg = standard_quadrilateral(with_general_point=True, seed=0)
    out = resolve_111(bd, cfg, THROUGH)
    assert out.L3.to_vector() == [4, 2, 2, 2, 1, 1, 1, 1]
    assert out.component("f1").cls == DivisorClass(2, (0, 1, 0, 1, 1, 1, 1))
    assert out.component("f1p").cls == DivisorClass(2, (0, 1, 0, 1, 1, 1, 0))
    rep = analyse(out)
    assert (rep.chi, rep.pg) == (1, 0)
    assert (rep.K2_cover, rep.contractions, rep.K2_minimal) == (-2, 8, 6)


def test_resolve_111_preserves_chi_pg_drops_k2():
    bd = example1()
    before = analyse(bd)
    cfg = standard_quadrilateral(with_general_point=True, seed=1)
    after = analyse(resolve_111(bd, cfg, THROUGH))
    assert after.chi == before.chi and after.pg == before.pg
    assert after.K2_minimal == before.K2_minimal - 1


def test_resolve_111_through_either_member_of_f1():
    # f1 and f1p are two members of one pencil in D3: either may pass the
    # point, and the resolved covers have the same report
    cfg = standard_quadrilateral(with_general_point=True, seed=0)
    f1 = cfg.cls("f1")
    via_f1 = resolve_111(example1(), cfg, THROUGH)
    via_f1p = resolve_111(example1(), cfg, ("f2", "f3", "f1p"))
    assert via_f1p.component("f1p").cls == via_f1.component("f1").cls
    assert analyse(via_f1p, f1) == analyse(via_f1, f1)


def test_resolve_111_incidence_errors():
    cfg = standard_quadrilateral(with_general_point=True, seed=0)
    bd = example1()
    # two names from D1 (and none from D2), or too few names
    for through in (("f2", "Delta1", "f1"), ("Delta1", "f2", "f1"),
                    ("f2", "f3")):
        with pytest.raises(IncidenceError):
            resolve_111(bd, cfg, through)
    # f1 standing for both members of |f1| in D3 (in place of f1 and f1p):
    # only one of them can pass the point
    comps = tuple(c.replace(count=2) if c.name == "f1" else c
                  for c in bd.components if c.name != "f1p")
    with pytest.raises(IncidenceError, match="f1 \\(2 of D3\\)"):
        resolve_111(bd.replace(components=comps), cfg, THROUGH)
    with pytest.raises(KeyError, match="f4"):
        resolve_111(bd, cfg, ("f2", "f3", "f4"))
    # no extra point in the configuration
    with pytest.raises(IncidenceError):
        resolve_111(bd, CFG6, THROUGH)
    # an extra point in a collinear triple: P7, on both diagonals, and
    # (1:0:2), on Delta1 = P1P3
    on_delta1 = PointConfiguration(CFG6.points + ((1, 0, 2),), ())
    assert on_delta1.collinear_triples - CFG6.collinear_triples == {
        frozenset((1, 3, 7))}
    for cfg in (CFG7, on_delta1):
        with pytest.raises(IncidenceError, match="collinear triple"):
            resolve_111(example1(), cfg, THROUGH)


def test_resolve_111_refuses_a_reordered_configuration():
    # the new configuration must extend the cover's own points: with P1 and
    # P3 swapped (and the entries kept) the resolved cover counted 2 double
    # fibres of f1 instead of 4
    general = standard_quadrilateral(with_general_point=True, seed=0)
    points = list(general.points)
    points[0], points[2] = points[2], points[0]
    swapped = PointConfiguration(tuple(points), general.entries)
    with pytest.raises(IncidenceError, match="points plus one extra point"):
        resolve_111(example1(), swapped, THROUGH)
    out = resolve_111(example1(), general, THROUGH)
    assert out.configuration is general
    assert count_double_fibres(out, general.cls("f1")) == 4


def test_fibre_multiplicity():
    bd = example1()
    f1 = CFG6.cls("f1")
    e1 = CFG6.lattice.exceptional(1)
    member = [(CFG6.cls("S1"), 1, 1), (CFG6.cls("S4"), 1, 3), (e1, 2, None)]
    assert fibre_multiplicity(bd, member, f1) == 2
    # odd unbranched multiplicity forces multiplicity 1
    member = [(CFG6.cls("Delta2"), 1, 2), (CFG6.cls("Delta3"), 1, None)]
    assert fibre_multiplicity(bd, member, f1) == 1
    with pytest.raises(ValueError, match="sums to"):
        fibre_multiplicity(bd, [(f1, 2, 3)], f1)
    with pytest.raises(ValueError, match="no component"):
        fibre_multiplicity(bd, [(CFG6.cls("Delta2"), 1, 1),
                                (CFG6.cls("Delta3"), 1, 3)], f1)


def test_fibre_multiplicity_example2_member():
    bd = example2()
    f1 = CFG7.cls("f1")
    e7 = CFG7.lattice.exceptional(7)
    member = [(CFG7.cls("Delta2bar"), 1, 3), (CFG7.cls("Delta3bar"), 1, 3),
              (e7, 2, None)]
    assert fibre_multiplicity(bd, member, f1) == 2


def test_fibre_multiplicity_synthetic_odd_components():
    bd = example1()
    f1 = CFG6.cls("f1")
    rng = random.Random(31)
    # any member with an unbranched odd-multiplicity part has multiplicity 1
    e1 = CFG6.lattice.exceptional(1)
    e3 = CFG6.lattice.exceptional(3)
    members = [
        [(CFG6.cls("S1"), 1, 1), (CFG6.cls("S4"), 1, 3), (e1, 1, None),
         (e1, 1, None)],
        [(CFG6.cls("S2"), 1, 1), (CFG6.cls("S3"), 1, 3), (e3, 2, None)],
    ]
    # first uses e1 twice with odd multiplicities -> not double
    assert fibre_multiplicity(bd, members[0], f1) == 1
    assert fibre_multiplicity(bd, members[1], f1) == 2


def test_count_double_fibres():
    assert count_double_fibres(example1(), CFG6.cls("f1")) == 5
    assert count_double_fibres(example2(), CFG7.cls("f1")) == 5
    assert count_double_fibres(example3(), CFG7.cls("f1")) == 5
    cfg = standard_quadrilateral(with_general_point=True, seed=0)
    out = resolve_111(example1(), cfg, THROUGH)
    assert count_double_fibres(out, cfg.cls("f1")) == 4


def test_count_double_fibres_guards():
    bd = example1()
    with pytest.raises(ValueError, match="self-intersection 0"):
        count_double_fibres(bd, CFG6.cls("S1"))
    # the count has no depth bound to exhaust
    assert count_double_fibres(bd, CFG6.cls("f1")) == 5
    # |2 f1| is not a pencil, so it has no double fibres to count
    with pytest.raises(ValueError, match="not a conic bundle"):
        count_double_fibres(bd, 2 * CFG6.cls("f1"))


def test_count_double_fibres_of_c():
    # |C| on P7 has the reducible members S1 + 2(l-e3-e7) + S4,
    # S2 + 2(l-e1-e7) + S3 and Delta2bar + 2 Delta1 + Delta3bar.  In
    # example 2, C is a branch component (one general member), S1..S4,
    # Delta2bar and Delta3bar are branched and the unbranched l-e3-e7,
    # l-e1-e7 and Delta1 carry coefficient 2: 1 + 3 = 4 double fibres.  In
    # example 3, Delta1 is branched too, which changes nothing.  The
    # catalogue search missed the first two members (the lines through P7
    # and P3 or P1 are not catalogued) and counted 2.
    assert count_double_fibres(example2(), CFG7.cls("C")) == 4
    assert count_double_fibres(example3(), CFG7.cls("C")) == 4


def test_count_double_fibres_other_pencils():
    # the catalogue search gave the same counts for f2 and f3, every
    # member of those pencils being catalogued
    counts = [[count_double_fibres(bd, cfg.cls(f)) for f in ("f2", "f3")]
              for bd, cfg in ((example1(), CFG6), (example2(), CFG7),
                              (example3(), CFG7))]
    assert counts == [[4, 4], [2, 3], [3, 3]]


def test_rigid_curve_in_two_branch_divisors_is_refused():
    # e1 listed in D1 and in D2 makes D non-reduced; the relations hold
    # (2l = e1 + (2l - e1)), and each D_i alone is smooth
    two = PointConfiguration(((1, 0, 0), (0, 1, 0)), ())
    e1, conic = two.lattice.exceptional(1), DivisorClass(2, (1, 0))
    line = two.lattice.line
    comps = (BranchComponent("e1", e1, 1), BranchComponent("e1'", e1, 2),
             BranchComponent("Q", conic, 3))
    with pytest.raises(IncidenceError,
                       match="rigid curve e1 lies in both D1 and D2"):
        BidoubleData(two, comps, L1=line, L2=line)
    # a class that moves may be listed in several D_i: three lines
    lines = tuple(BranchComponent(f"l{i}", line, i) for i in (1, 2, 3))
    assert BidoubleData(two, lines, L1=line, L2=line).L3 == line


def test_first_incidence_violation_is_reported_in_component_order():
    # two violations: e1 in D1 and in D2 (rigid, so D is not reduced), and
    # the conic Q and two members of |l| in D3, which meet.  The error names
    # the first pair in the order of the components, whichever the smoothness
    # check meets first.
    two = PointConfiguration(((1, 0, 0), (0, 1, 0)), ())
    e1, line = two.lattice.exceptional(1), two.lattice.line
    conic = DivisorClass(2, (1, 0))
    d1 = (BranchComponent("e1", e1, 1),)
    d2 = (BranchComponent("e1'", e1, 2),)
    d3 = (BranchComponent("Q", conic, 3), BranchComponent("l", line, 3, 2))
    for comps, message in (
            (d1 + d3 + d2, "the rigid curve e1 lies in both D1 and D2, so D is "
                           "not reduced"),
            (d3 + d1 + d2, "D3 is not smooth: its components 2l-e1 and l have "
                           "intersection 2"),
            (d2 + d1 + d3[::-1], "the rigid curve e1 lies in both D2 and D1, "
                                 "so D is not reduced"),
            (d3[::-1] + d1 + d2, "D3 is not smooth: its components l and l "
                                 "have intersection 1")):
        with pytest.raises(IncidenceError) as err:
            BidoubleData(two, comps, L1=2 * line, L2=2 * line)
        assert str(err.value) == message


def test_f1_is_a_genus_3_pencil():
    # the reports call |f1| "the genus-3 pencil": the fibre of pi*f1 on the
    # cover has genus 1 + (2K + D).f1
    general = standard_quadrilateral(with_general_point=True, seed=0)
    for bd in (example1(), resolve_111(example1(), general, THROUGH),
               example2(), example3()):
        cfg = bd.configuration
        m = 2 * cfg.lattice.canonical + bd.branch_total
        assert 1 + m.dot(cfg.cls("f1")) == 3


def test_bicanonical_example1():
    rep = analyse(example1())
    assert rep.h0_invariant == 7
    assert rep.h0_characters == (1, 0, 0)
    assert rep.P2 == 8
    assert (rep.bicanonical_degree, rep.involution_index) == (2, 1)


def test_bicanonical_example2():
    rep = analyse(example2())
    assert (rep.h0_invariant, rep.h0_characters) == (6, (1, 0, 0))
    assert rep.P2 == 7
    assert (rep.bicanonical_degree, rep.involution_index) == (2, 1)


def test_bicanonical_totals_match_p2():
    for bd, cfg in ((example1(), CFG6), (example2(), CFG7),
                    (example3(), CFG7)):
        rep = analyse(bd)
        assert rep.P2 == rep.chi + rep.K2_minimal


def test_analyse_report():
    bd = example2()
    rep = analyse(bd, CFG7.cls("f1"))
    assert rep.double_fibres == 5
    assert (rep.bicanonical_degree, rep.involution_index) == (2, 1)
    assert rep.P2 == rep.h0_invariant + sum(rep.h0_characters) == 7
    assert rep.K2_minimal == rep.K2_cover + rep.contractions
    assert rep.q == rep.pg + 1 - rep.chi >= 0
    # the invariants section of a report leaves out the h^0 of the summands
    assert list(rep.to_dict()) == [
        "chi", "K2_cover", "pg", "q", "contractions", "K2_minimal",
        "double_fibres", "bicanonical_degree", "involution_index"]
    # without a pencil nothing else changes and no fibres are counted
    assert analyse(bd) == rep.replace(double_fibres=None)


def test_branch_preimage_genus_nonnegative():
    # for valid data, every irreducible preimage has integer genus >= 0
    for bd in (example1(), example2(), example3()):
        for comp in bd.components:
            pre = branch_preimage(bd, comp.name)
            assert pre.branch_degree % 2 == 0
            if not pre.splits:
                assert pre.branch_degree > 0 and pre.genus >= 0


def test_double_cover_chi():
    lat = BlowupLattice(13)
    L = DivisorClass(4, (2, 2, 2) + (1,) * 10)
    assert L.dot(L) + L.dot(lat.canonical) == -2
    assert double_cover_chi(L) == 1
    assert double_cover_chi(lat.zero) == 2
    # K.L read off the entries agrees with the product with K, on every rank
    rng = random.Random(5)
    for n in range(10):
        k = BlowupLattice(n).canonical
        for _ in range(50):
            L = DivisorClass(rng.randint(-9, 9),
                             tuple(rng.randint(-9, 9) for _ in range(n)))
            assert double_cover_chi(L) == 2 + L.dot(L + k) // 2


def test_numeri_identities():
    assert numeri_identities(-4) == (8, -4)
    # H = 2K + B0 then has H^2 = 12 and K.H = 0
    kb0, b0sq = numeri_identities(-4)
    assert 4 * (-4) + 4 * kb0 + b0sq == 12
    assert 2 * (-4) + kb0 == 0


def test_numeri_concrete_realization():
    # independent oracle: realize 2L = B0 + C_1 + ... + C_10 with honest
    # lattice classes on the rank-14 lattice (where K^2 = -4) and reread
    # every identity off the pairing instead of the closed formulas
    from bidouble.lattice import arithmetic_genus
    from bidouble.examples import data_path, load_document

    doc = load_document(data_path("nodal10_rank14.json"))
    lat = BlowupLattice(doc["lattice_n"])
    nodal = [lat.from_vector(v) for v in doc["classes"]]
    k = lat.canonical
    assert k.dot(k) == -4
    L = DivisorClass(1, (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1))
    b0 = 2 * L - sum(nodal, lat.zero)
    assert all(b0.dot(c) == 0 for c in nodal)
    assert all(L.dot(c) == -1 for c in nodal)
    assert L.dot(L) + L.dot(k) == -2 and double_cover_chi(L) == 1
    assert k.dot(k) + k.dot(L) == 0
    assert (k.dot(b0), b0.dot(b0)) == numeri_identities(-4) == (8, -4)
    h = 2 * k + b0
    assert (h.dot(h), k.dot(h), arithmetic_genus(h)) == (12, 0, 7)


def test_etale_and_slope():
    assert etale_double(1, 6) == (2, 12)
    assert slope_check(12, 2, 3) is False
    assert slope_check(24, 2, 3) is True
    assert 24 - 8 * (2 - 1) * (3 - 1) == 8  # margin of the passing case
    assert slope_check(16, 2, 3) is True  # boundary case of the inequality
    with pytest.raises(ValueError):
        slope_check(12, 1, 3)


def test_moving_branch_curve_is_genus_zero_pencil():
    # the degree-4 branch class C moves in a pencil and has p_a = 0;
    # irreducibility of its general member is out of scope
    from bidouble.lattice import arithmetic_genus
    from bidouble.plane import h0_class
    c = CFG7.cls("C")
    assert c.dot(c) == 0
    assert arithmetic_genus(c) == 0
    assert h0_class(CFG7, c) == 2


def test_component_validation():
    two = PointConfiguration(((1, 0, 0), (0, 1, 0)), ())
    lat = two.lattice
    with pytest.raises(ValueError, match="distinct"):
        BidoubleData(two, (
            BranchComponent("a", DivisorClass(1, (1, 0)), 1),
            BranchComponent("a", DivisorClass(1, (0, 1)), 2),
        ), L1=lat.zero, L2=lat.zero)
    with pytest.raises(ValueError, match="branch index"):
        BranchComponent("a", DivisorClass(1, (1, 0)), 4)
