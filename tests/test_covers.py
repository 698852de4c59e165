import random
from dataclasses import replace

import pytest

from bidouble.covers import (BidoubleData, BranchComponent, IncidenceError,
                             RelationError, analyse, branch_preimage,
                             contraction_count, count_double_fibres,
                             double_cover_chi, etale_double,
                             fibre_multiplicity, numeri_identities,
                             resolve_111, slope_check, validate)
from bidouble.examples import example1, example2, example3, halve
from bidouble.lattice import BlowupLattice, DivisorClass
from bidouble.plane import standard_quadrilateral

CFG6 = standard_quadrilateral()
CFG7 = standard_quadrilateral(with_p7=True)


def test_validate_example1():
    bd = example1(CFG6)
    l3 = validate(bd)
    assert l3.to_vector() == [4, 2, 2, 2, 1, 1, 1]
    # independent re-derivation of the relations from the component sums
    d1, d2, d3 = (bd.branch_class(i) for i in (1, 2, 3))
    assert 2 * bd.L1 == d2 + d3
    assert 2 * bd.L2 == d1 + d3
    assert 2 * l3 == d1 + d2


def test_validate_example2():
    bd = example2(CFG7)
    assert validate(bd).to_vector() == [4, 2, 2, 2, 1, 1, 1, 1]


def test_validate_rejects_corruption():
    bd = example2(CFG7)
    wrong = replace(bd, L1=bd.L1 + CFG7.lattice.exceptional(5))
    with pytest.raises(RelationError) as err:
        validate(wrong)
    (name, residue), = err.value.residues
    assert name == "2L1 - (D2+D3)"
    assert residue == 2 * CFG7.lattice.exceptional(5)


def test_validate_compares_each_class_once(monkeypatch):
    # smoothness compares distinct classes of one D_i pairwise and a
    # repeated class with itself: 2,000 more members of f1 in D3 (which
    # move L1 and L2 by 1000 f1) cost no more products than example 2's 14
    bd = example2(CFG7)
    f1 = next(c for c in bd.components if c.name == "f1")
    more = replace(bd, components=bd.components + tuple(
        replace(f1, name=f"f1#{k}") for k in range(2, 2002)),
        L1=bd.L1 + 1000 * f1.cls, L2=bd.L2 + 1000 * f1.cls)
    calls = []
    real = DivisorClass.dot
    monkeypatch.setattr(DivisorClass, "dot",
                        lambda a, b: calls.append(b) or real(a, b))
    assert validate(more) == validate(bd)
    assert len(calls) == 2 * 14


def test_validate_corruption_sweep():
    # perturbing any single component class breaks at least one relation
    for bd, cfg in ((example1(CFG6), CFG6), (example2(CFG7), CFG7),
                    (example3(CFG7), CFG7)):
        for idx, comp in enumerate(bd.components):
            e1 = cfg.lattice.exceptional(1)
            comps = list(bd.components)
            comps[idx] = replace(comp, cls=comp.cls + e1)
            with pytest.raises(RelationError):
                validate(replace(bd, components=tuple(comps)))


def test_example3_derived_classes():
    bd = example3(CFG7)
    assert bd.l_provenance == "derived"
    assert bd.L1.to_vector() == [4, 1, 1, 1, 2, 2, 2, 0]
    assert bd.L2 == example2(CFG7).L2
    validate(bd)


def test_halve():
    assert halve(DivisorClass(4, (2, 0, 2, 2, 0, 0))) == \
        DivisorClass(2, (1, 0, 1, 1, 0, 0))
    with pytest.raises(ValueError):
        halve(DivisorClass(3, (0,) * 6))


def test_examples_refuse_other_configurations():
    general = standard_quadrilateral(with_general_point=True, seed=3)
    for cfg in (CFG7, general):
        with pytest.raises(ValueError, match="plain 6-point"):
            example1(cfg)
    for build in (example2, example3):
        for cfg in (CFG6, general):
            with pytest.raises(ValueError, match="P7"):
                build(cfg)


def test_examples_read_each_shipped_document_once(monkeypatch):
    from bidouble import examples

    reads = []
    real = examples.load_document

    def counting(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(examples, "load_document", counting)
    examples._shipped.cache_clear()
    for _ in range(3):
        # without a configuration, each takes the one its document names
        assert example1() == example1(CFG6)
        assert example2() == example2(CFG7)
        assert example3() == example3(CFG7)
    assert sorted(p.name for p in reads) == \
        ["example1.json", "example2.json", "example3.json"]
    marked = {c.name for c in example1(degenerating=True).components
              if c.through_point}
    assert marked == {"f1", "f2", "f3"}
    assert not any(c.through_point for c in example1().components)


def test_invariants_example1():
    bd = example1(CFG6)
    rep = analyse(bd, CFG6)[1]
    # oracle for K^2 of the cover: (2K + D)^2 recomputed from raw sums
    m = 2 * CFG6.lattice.canonical + bd.branch_total
    assert m == DivisorClass(9, (3, 4, 3, 4, 4, 4))
    assert m.dot(m) == -1
    assert (rep.chi, rep.pg, rep.q) == (1, 0, 0)
    assert (rep.K2_cover, rep.contractions, rep.K2_minimal) == (-1, 8, 7)


def test_invariants_example2():
    rep = analyse(example2(CFG7), CFG7)[1]
    assert (rep.chi, rep.pg, rep.K2_cover, rep.contractions, rep.K2_minimal) \
        == (1, 0, -4, 10, 6)


def test_invariants_example3():
    rep = analyse(example3(CFG7), CFG7)[1]
    assert (rep.chi, rep.pg, rep.K2_cover, rep.contractions, rep.K2_minimal) \
        == (1, 0, -2, 8, 6)


def test_branch_preimage_split():
    bd = example1(CFG6)
    pre = branch_preimage(bd, "S1")
    assert pre.branch_degree == 0 and pre.splits
    assert pre.pieces == 2 and pre.self_intersection == -1
    assert pre.genus == 0 and pre.contracted == 2
    assert contraction_count(bd) == 8


def test_branch_preimage_irreducible():
    bd = example3(CFG7)
    e = branch_preimage(bd, "e7")
    assert (e.branch_degree, e.genus, e.self_intersection) == (4, 1, -1)
    th1 = branch_preimage(bd, "Delta2bar")
    assert (th1.branch_degree, th1.genus, th1.self_intersection) == (2, 0, -2)
    th2 = branch_preimage(bd, "Delta3bar")
    assert (th2.branch_degree, th2.genus, th2.self_intersection) == (2, 0, -2)
    assert contraction_count(bd) == 8


def test_branch_preimage_example2_contractions():
    bd = example2(CFG7)
    for name in ("S1", "S2", "S3", "S4", "Delta2bar"):
        assert branch_preimage(bd, name).contracted == 2
    assert contraction_count(bd) == 10


def test_branch_preimage_corrupt_inputs():
    lat = BlowupLattice(2)
    # b odd: component meets the other branch divisors in an odd number
    bad = BidoubleData(lat, (
        BranchComponent("a", DivisorClass(1, (1, 0)), 1),
        BranchComponent("b", DivisorClass(1, (0, 1)), 2),
        BranchComponent("c", DivisorClass(1, (1, 1)), 3),
    ), L1=DivisorClass(0, (0, 0)), L2=DivisorClass(0, (0, 0)))
    with pytest.raises(ValueError, match="oddly"):
        branch_preimage(bad, "a")
    # b = 0 with odd self-intersection cannot split
    bad2 = BidoubleData(lat, (
        BranchComponent("a", DivisorClass(0, (-1, 0)), 1),
        BranchComponent("b", DivisorClass(0, (0, -1)), 2),
    ), L1=DivisorClass(0, (0, 0)), L2=DivisorClass(0, (0, 0)))
    with pytest.raises(ValueError, match="even self-intersection"):
        branch_preimage(bad2, "a")


def test_resolve_111():
    bd = example1(CFG6, degenerating=True)
    cfg = standard_quadrilateral(with_general_point=True, seed=0)
    out = resolve_111(bd, cfg)
    assert validate(out).to_vector() == [4, 2, 2, 2, 1, 1, 1, 1]
    assert out.component("f1").cls == DivisorClass(2, (0, 1, 0, 1, 1, 1, 1))
    assert out.component("f1p").cls == DivisorClass(2, (0, 1, 0, 1, 1, 1, 0))
    rep = analyse(out, cfg)[1]
    assert (rep.chi, rep.pg) == (1, 0)
    assert (rep.K2_cover, rep.contractions, rep.K2_minimal) == (-2, 8, 6)


def test_resolve_111_preserves_chi_pg_drops_k2():
    bd = example1(CFG6, degenerating=True)
    before = analyse(bd, CFG6)[1]
    cfg = standard_quadrilateral(with_general_point=True, seed=1)
    after = analyse(resolve_111(bd, cfg), cfg)[1]
    assert after.chi == before.chi and after.pg == before.pg
    assert after.K2_minimal == before.K2_minimal - 1


def test_resolve_111_incidence_errors():
    cfg = standard_quadrilateral(with_general_point=True, seed=0)
    # only two branch divisors meet the point
    bd = example1(CFG6)
    comps = tuple(replace(c, through_point=c.name in ("f2", "f3"))
                  for c in bd.components)
    with pytest.raises(IncidenceError):
        resolve_111(replace(bd, components=comps), cfg)
    # no general point in the configuration
    with pytest.raises(IncidenceError):
        resolve_111(example1(CFG6, degenerating=True), CFG6)


def test_fibre_multiplicity():
    bd = example1(CFG6)
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
    bd = example2(CFG7)
    f1 = CFG7.cls("f1")
    e7 = CFG7.lattice.exceptional(7)
    member = [(CFG7.cls("Delta2bar"), 1, 3), (CFG7.cls("Delta3bar"), 1, 3),
              (e7, 2, None)]
    assert fibre_multiplicity(bd, member, f1) == 2


def test_fibre_multiplicity_synthetic_odd_components():
    bd = example1(CFG6)
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
    assert count_double_fibres(example1(CFG6), CFG6.cls("f1"), CFG6) == 5
    assert count_double_fibres(example2(CFG7), CFG7.cls("f1"), CFG7) == 5
    assert count_double_fibres(example3(CFG7), CFG7.cls("f1"), CFG7) == 5
    bd = example1(CFG6, degenerating=True)
    cfg = standard_quadrilateral(with_general_point=True, seed=0)
    out = resolve_111(bd, cfg)
    assert count_double_fibres(out, cfg.cls("f1"), cfg) == 4


def test_count_double_fibres_guards():
    bd = example1(CFG6)
    with pytest.raises(ValueError, match="self-intersection 0"):
        count_double_fibres(bd, CFG6.cls("S1"), CFG6)
    # the count has no depth bound to exhaust
    assert count_double_fibres(bd, CFG6.cls("f1"), CFG6) == 5
    # |2 f1| is not a pencil, so it has no double fibres to count
    with pytest.raises(ValueError, match="not a conic bundle"):
        count_double_fibres(bd, 2 * CFG6.cls("f1"), CFG6)


def test_count_double_fibres_of_c():
    # |C| on P7 has the reducible members S1 + 2(l-e3-e7) + S4,
    # S2 + 2(l-e1-e7) + S3 and Delta2bar + 2 Delta1 + Delta3bar.  In
    # example 2, C is a branch component (one general member), S1..S4,
    # Delta2bar and Delta3bar are branched and the unbranched l-e3-e7,
    # l-e1-e7 and Delta1 carry coefficient 2: 1 + 3 = 4 double fibres.  In
    # example 3, Delta1 is branched too, which changes nothing.  The
    # catalogue search missed the first two members (the lines through P7
    # and P3 or P1 are not catalogued) and counted 2.
    assert count_double_fibres(example2(CFG7), CFG7.cls("C"), CFG7) == 4
    assert count_double_fibres(example3(CFG7), CFG7.cls("C"), CFG7) == 4


def test_count_double_fibres_other_pencils():
    # the catalogue search gave the same counts for f2 and f3, every
    # member of those pencils being catalogued
    counts = [[count_double_fibres(bd, cfg.cls(f), cfg) for f in ("f2", "f3")]
              for bd, cfg in ((example1(CFG6), CFG6), (example2(CFG7), CFG7),
                              (example3(CFG7), CFG7))]
    assert counts == [[4, 4], [2, 3], [3, 3]]


def test_count_double_fibres_counts_name_choices():
    # a member whose components are all branched counts once per choice of
    # branch components: with e1 listed twice, S1 + 2 e1 + S4 has the
    # choices {e1, e1}, {e1, e1'} and {e1', e1'}; f1, f1', Delta2 + Delta3
    # and S2 + 2 e3 + S3 add one each
    bd = example1(CFG6)
    e1 = CFG6.lattice.exceptional(1)
    twice = replace(bd, components=bd.components + (
        BranchComponent("e1", e1, 2), BranchComponent("e1'", e1, 2)))
    assert count_double_fibres(twice, CFG6.cls("f1"), CFG6) == 7


def test_bicanonical_example1():
    bic = analyse(example1(CFG6), CFG6)[2]
    assert bic.h0_invariant == 7
    assert bic.h0_characters == (1, 0, 0)
    assert bic.total == 8
    assert (bic.degree, bic.involution_index) == (2, 1)


def test_bicanonical_example2():
    bic = analyse(example2(CFG7), CFG7)[2]
    assert (bic.h0_invariant, bic.h0_characters) == (6, (1, 0, 0))
    assert bic.total == 7
    assert (bic.degree, bic.involution_index) == (2, 1)


def test_bicanonical_totals_match_p2():
    for bd, cfg in ((example1(CFG6), CFG6), (example2(CFG7), CFG7),
                    (example3(CFG7), CFG7)):
        _, rep, bic = analyse(bd, cfg)
        assert bic.total == rep.chi + rep.K2_minimal


def test_analyse_report():
    bd = example2(CFG7)
    l3, rep, bic = analyse(bd, CFG7, CFG7.cls("f1"))
    assert l3 == validate(bd)
    assert rep.double_fibres == 5
    assert rep.bicanonical_degree == bic.degree == 2
    assert rep.involution_index == bic.involution_index == 1
    assert rep.K2_minimal == rep.K2_cover + rep.contractions
    assert rep.q == rep.pg + 1 - rep.chi >= 0
    # without a pencil nothing else changes and no fibres are counted
    assert analyse(bd, CFG7) == (l3, replace(rep, double_fibres=None), bic)


def test_branch_preimage_genus_nonnegative():
    # for valid data, every irreducible preimage has integer genus >= 0
    for bd in (example1(CFG6), example2(CFG7), example3(CFG7)):
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
    from bidouble.scenarios import data_path, load_document

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
    lat = BlowupLattice(2)
    with pytest.raises(ValueError, match="distinct"):
        BidoubleData(lat, (
            BranchComponent("a", DivisorClass(1, (1, 0)), 1),
            BranchComponent("a", DivisorClass(1, (0, 1)), 2),
        ), L1=lat.zero, L2=lat.zero)
    with pytest.raises(ValueError, match="branch index"):
        BranchComponent("a", DivisorClass(1, (1, 0)), 4)
