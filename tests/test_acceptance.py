"""Acceptance suite: every pinned number is checked at exact equality.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import itertools
import random
from fractions import Fraction

from bidouble.codes import (code_of_classes, de_code, is_doubly_even,
                            isotropy_bound, weights)
from bidouble.covers import (analyse, branch_preimage, contraction_count,
                             count_double_fibres, etale_double,
                             fibre_multiplicity, numeri_identities,
                             resolve_111, slope_check)
from bidouble.examples import (data_path, example1, example2, example3,
                               load_document)
from bidouble.lattice import (BlowupLattice, DivisorClass, arithmetic_genus,
                              castelnuovo_bound)
from bidouble.plane import collinear, standard_quadrilateral
from reference import interpolation_dimension

CFG6 = standard_quadrilateral()
CFG7 = standard_quadrilateral(with_p7=True)


def _passed(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_example1():
    bd = example1()
    assert bd.L3 == DivisorClass(4, (2, 2, 2, 1, 1, 1))
    rep = analyse(bd)
    assert rep.K2_cover == -1
    assert rep.contractions == 8
    assert rep.K2_minimal == 7
    assert rep.pg == 0
    assert count_double_fibres(bd, CFG6.cls("f1")) == 5
    _passed(1, "example 1 validates; L3, K2_minimal=7 (-1+8), pg=0, "
               "5 double fibres")


def test_criterion_2_example1_degeneration():
    cfg = standard_quadrilateral(with_general_point=True, seed=0)
    out = resolve_111(example1(), cfg, ("f2", "f3", "f1"))
    rep = analyse(out)
    assert rep.K2_minimal == 6
    assert rep.pg == 0
    f1 = cfg.cls("f1")
    assert count_double_fibres(out, f1) == 4
    member = [(cfg.cls("f1_strict"), 1, 3), (cfg.lattice.exceptional(7), 1, None)]
    assert fibre_multiplicity(out, member, f1) == 1
    _passed(2, "degeneration: K2_minimal=6, pg=0, 4 double fibres, the "
               "fibre through the resolved point is not double")


def test_criterion_3_example2():
    bd = example2()
    l3 = bd.L3
    assert l3 == DivisorClass(4, (2, 2, 2, 1, 1, 1, 1))
    from bidouble.plane import h0_class
    k = CFG7.lattice.canonical
    assert [h0_class(CFG7, k + L) for L in (bd.L1, bd.L2, l3)] == [0, 0, 0]
    rep = analyse(bd)
    assert rep.chi == 1
    assert rep.K2_minimal == 6
    assert h0_class(CFG7, -1 * k + CFG7.cls("f1")) == 6
    assert (rep.h0_invariant, rep.h0_characters) == (6, (1, 0, 0))
    assert rep.P2 == 7
    assert (rep.bicanonical_degree, rep.involution_index) == (2, 1)
    assert count_double_fibres(bd, CFG7.cls("f1")) == 5
    _passed(3, "example 2: printed L3, three vanishing adjoints, chi=1, "
               "K2_minimal=6, h0(-K+f1)=6, bicanonical (6,[1,0,0]) with "
               "P2=7 and the first involution, 5 double fibres")


def test_criterion_4_example3():
    bd = example3()
    assert bd.L1 == DivisorClass(4, (1, 1, 1, 2, 2, 2, 0))
    assert bd.L2 == example2().L2
    rep = analyse(bd)
    assert (rep.chi, rep.pg) == (1, 0)
    assert (rep.K2_cover, rep.contractions, rep.K2_minimal) == (-2, 8, 6)
    th1 = branch_preimage(bd, "Delta2bar")
    th2 = branch_preimage(bd, "Delta3bar")
    for th in (th1, th2):
        assert (th.splits, th.genus, th.self_intersection) == (False, 0, -2)
    e = branch_preimage(bd, "e7")
    assert (e.splits, e.genus, e.self_intersection) == (False, 1, -1)
    _passed(4, "example 3: derived L1, L2; chi=1, pg=0, K2_cover=-2, 8 "
               "contractions, K2_minimal=6; theta1, theta2 are (-2)-curves "
               "and E is elliptic with E^2=-1")


def test_criterion_5_numeri():
    assert numeri_identities(-4) == (8, -4)
    kb0, b0sq = numeri_identities(-4)
    h_sq = 4 * (-4) + 4 * kb0 + b0sq
    kh = 2 * (-4) + kb0
    assert (h_sq, kh) == (12, 0)
    assert (h_sq + kh) // 2 + 1 == 7
    # concrete witness with the same numbers
    lat = BlowupLattice(13)
    h = DivisorClass(7, (2,) * 8 + (1,) * 5)
    assert (h.dot(h), h.dot(lat.canonical), arithmetic_genus(h)) == (12, 0, 7)
    _passed(5, "at K^2=-4: (K.B0, B0^2)=(8,-4); H=2K+B0 has H^2=12, "
               "K.H=0, genus 7")


def test_criterion_6_bounds():
    assert castelnuovo_bound(8, 5) == 3
    assert slope_check(12, 2, 3) is False
    assert slope_check(24, 2, 3) is True
    assert etale_double(1, 6) == (2, 12)
    _passed(6, "castelnuovo(8,5)=3; slope 12 fails and 24 holds for genera "
               "(2,3); etale doubling (1,6)->(2,12)")


def test_criterion_7_codes():
    for s in range(1, 9):
        v = de_code(s)
        assert v.dim == s - 1
        assert all(w % 4 == 0 for w in weights(v))
    doc = load_document(data_path("nodal_sides.json"))
    lat = BlowupLattice(doc["lattice_n"])
    sides = [lat.from_vector(vec) for vec in doc["classes"]]
    v = code_of_classes(sides, lat)
    assert v.to_rows() == [[1, 1, 1, 1]]
    doc = load_document(data_path("nodal10_rank14.json"))
    lat = BlowupLattice(doc["lattice_n"])
    classes = [lat.from_vector(vec) for vec in doc["classes"]]
    assert lat.rank == 14 and len(classes) == 10
    v10 = code_of_classes(classes, lat)
    lhs, rhs, holds = isotropy_bound(v10, lat.rank)
    assert holds and lhs == 2 * (10 - v10.dim) <= rhs == 14
    assert v10.dim >= 3  # forced by the isotropy bound, attained here
    assert is_doubly_even(v10)
    _passed(7, "DE(s) dims and weights for s=1..8; the sides span "
               "(1,1,1,1); ten disjoint nodal classes in rank 14 give "
               "dim V = 3 via total isotropy")


def _draw_general_points(rng, k):
    """k points with rational coordinates, no 3 collinear, no 6 on a conic."""
    while True:
        pts = [(Fraction(rng.randint(-15, 15), rng.randint(1, 8)),
                Fraction(rng.randint(-15, 15), rng.randint(1, 8)),
                Fraction(1)) for _ in range(k)]
        if len({p[:2] for p in pts}) != k:
            continue
        if any(collinear(*tri) for tri in itertools.combinations(pts, 3)):
            continue
        if k >= 6 and any(
                interpolation_dimension(list(six), 2,
                                        [(i, 1) for i in range(6)]) > 0
                for six in itertools.combinations(pts, 6)):
            continue
        return pts


def test_criterion_8_interpolation_suite():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        d = rng.randint(0, 6)
        k = rng.randint(0, 8)
        mults = sorted(rng.randint(1, 2) for _ in range(k))
        # the only special double-point systems in range, at any position
        if (d, mults) in ((2, [2, 2]), (4, [2, 2, 2, 2, 2])):
            continue
        pts = _draw_general_points(rng, k)
        assignments = list(enumerate(mults))
        h0 = interpolation_dimension(pts, d, assignments)
        full = (d + 1) * (d + 2) // 2
        expected = max(0, full - sum(m * (m + 1) // 2 for m in mults))
        assert h0 == expected, (d, mults, h0, expected)
        # monotonicity: one more simple point never raises h0
        extra = _draw_general_points(rng, 1)
        assert interpolation_dimension(pts + extra, d,
                                       assignments + [(k, 1)]) <= h0
        checked += 1
    # all catalogued collinearities verified by determinant
    for cfg in (CFG6, CFG7):
        for triple in cfg.collinear_triples:
            i, j, k_ = sorted(triple)
            assert collinear(cfg.point(i), cfg.point(j), cfg.point(k_))
    _passed(8, "100 seeded random fat-point systems match the expected "
               "dimension with monotonicity; all recorded collinearities "
               "verified by determinant")


def _permuted(bd, perm):
    """Relabel the branch divisors by D_j' = D_perm[j]; the relations are
    symmetric so the result validates with L_j' = L_perm[j]."""
    ls = {1: bd.L1, 2: bd.L2, 3: bd.L3}
    inverse = {perm[j]: j + 1 for j in range(3)}
    comps = tuple(c.replace(branch=inverse[c.branch]) for c in bd.components)
    return bd.replace(components=comps, L1=ls[perm[0]], L2=ls[perm[1]])


def _relabelings():
    """The three examples and 20 seeded relabelings of them, each built
    (so checked) through ``replace``."""
    bases = [example1(), example2(), example3()]
    cases = list(bases)
    rng = random.Random(99)
    perms = list(itertools.permutations((1, 2, 3)))
    while len(cases) < len(bases) + 20:
        bd = bases[rng.randrange(len(bases))]
        cases.append(_permuted(bd, perms[rng.randrange(6)]))
    return cases


def test_criterion_9_p2_consistency():
    for bd in _relabelings():
        rep = analyse(bd)
        assert rep.P2 == rep.chi + rep.K2_minimal
    _passed(9, "bicanonical totals equal chi + K2_minimal for the three "
               "examples and 20 seeded validating relabelings")


def _valid_covers():
    """The examples, their relabelings and the resolved example 1 through
    either member of |f1| at three seeded general points."""
    covers = _relabelings()
    for seed in (0, 1, 37):
        cfg = standard_quadrilateral(with_general_point=True, seed=seed)
        for through in (("f2", "f3", "f1"), ("f2", "f3", "f1p")):
            covers.append(resolve_111(example1(), cfg, through))
    assert len(covers) == 29
    return covers


def test_branch_degree_is_twice_a_product_with_l():
    # b = G.(D_j + D_k) = 2 G.L_i for a component G of D_i, so b is even on
    # every valid cover
    for bd in _valid_covers():
        ls = (bd.L1, bd.L2, bd.L3)
        for c in bd.components:
            b = branch_preimage(bd, c.name).branch_degree
            assert b == 2 * c.cls.dot(ls[c.branch - 1])


def test_contraction_count_sums_the_split_preimages():
    # the count reads two products per component; it must agree with the
    # (-1)-curves of each component's preimage record on every valid cover
    for bd in _valid_covers():
        assert contraction_count(bd) == sum(
            c.count * branch_preimage(bd, c.name).contracted
            for c in bd.components)
