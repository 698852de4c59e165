"""The quadrilateral configuration in P^2, its negative curves and exact h^0.

Coordinates are fixed once and for all so that golden outputs are stable:
P1=(1:0:0), P2=(0:1:0), P3=(0:0:1), P4=(1:1:1), then P5 = P1P2 ^ P3P4 =
(1:1:0), P6 = P1P4 ^ P2P3 = (0:1:1), and P7 = (1:2:1) is the intersection
of the diagonals P2P4 and P5P6.  An optional general point is drawn with
small random rational affine coordinates (seeded), redrawn until it misses
every catalogued line.  Every point is stored as a coprime integer triple,
so incidences are decided in integer arithmetic.

The module also catalogues the named curves living on the blowups (sides
S1..S4, diagonals, exceptional classes, the three conic pencils).  The
points are in almost general position -- distinct, no four on a line, not
all seven on a conic -- so each blowup is a weak del Pezzo surface (degree 3
or 2) and h^0 needs no matrix:

* ``PointConfiguration.negative_entries`` -- every (-1)- and (-2)-curve,
  derived once per configuration on first use;
* ``h0_class`` -- h^0 of a divisor class: negative curves meeting the class
  negatively are split off as fixed parts, many copies at a time, and the
  nef residue has h^0 = chi by Riemann-Roch and Kawamata-Viehweg;
* ``h0_fat_points`` -- the dimension of the degree-d forms with prescribed
  multiplicities at the configuration's points: ``h0_class`` of (d; m_i);
* ``interpolation_dimension`` -- the same dimension at arbitrary rational
  points, by exact rank of the integer interpolation matrix (rank mod
  2^61 - 1 when full, fraction-free Bareiss otherwise); it decides which
  six points lie on a conic and cross-checks ``h0_class`` in the tests;
* ``effective_decompositions`` -- a brute-force oracle listing every way to
  write a class as a non-negative combination of catalogued classes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .lattice import BlowupLattice, DivisorClass

__all__ = [
    "CurveEntry",
    "PointConfiguration",
    "FatPointSystem",
    "standard_quadrilateral",
    "collinear",
    "interpolation_dimension",
    "h0_fat_points",
    "class_to_system",
    "h0_class",
    "effective_decompositions",
]

Point = tuple[int, int, int]


def _integral(p) -> Point:
    """The point ``p`` (rational homogeneous coordinates) as coprime integers."""
    scale = lcm(*(c.denominator for c in p))
    coords = [c.numerator * (scale // c.denominator) for c in p]
    g = gcd(*coords) or 1
    return tuple(c // g for c in coords)


def det3(p: Point, q: Point, r: Point) -> int:
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def collinear(p: Point, q: Point, r: Point) -> bool:
    return det3(p, q, r) == 0


def _on_line(line, p: Point) -> bool:
    a, b, c = line
    return a * p[0] + b * p[1] + c * p[2] == 0


@dataclass(frozen=True)
class CurveEntry:
    """A catalogued curve (or pencil class) on a blowup of the plane.

    ``kind`` is one of "exceptional", "line", "conic" (a rigid conic, such
    as the pencil member through the general point), "cubic" (a rigid
    cubic) or "pencil".  ``line`` holds the coefficients (a, b, c) of
    a*x+b*y+c*z for catalogued plane lines.
    """

    name: str
    cls: DivisorClass
    kind: str
    line: tuple[int, int, int] | None = None

    @property
    def self_intersection(self) -> int:
        return self.cls.dot(self.cls)


# plane lines of the configuration: name -> coefficients of a*x+b*y+c*z
_LINE_COEFFS = {
    "S1": (0, 0, 1),        # P1 P2 P5
    "S2": (1, 0, 0),        # P2 P3 P6
    "S3": (1, -1, 0),       # P3 P4 P5
    "S4": (0, 1, -1),       # P4 P1 P6
    "Delta1": (0, 1, 0),    # P1 P3
    "Delta2": (1, 0, -1),   # P2 P4 (P7)
    "Delta3": (1, -1, 1),   # P5 P6 (P7)
}

# conic pencil classes on the 6-point blowup (four base points each)
_PENCIL_BASE = {
    "f1": (2, 4, 5, 6),
    "f2": (1, 3, 5, 6),
    "f3": (1, 2, 3, 4),
}


@dataclass(frozen=True)
class PointConfiguration:
    """Coprime integer coordinates for the blown-up points plus the curve
    catalogue.

    ``collinear_triples`` records the 1-based incident triples; construction
    verifies each by an exact determinant and verifies that no other triple
    of catalogued points is collinear.  It also verifies almost general
    position: at most seven points, no four on a line, not seven on a
    conic.
    """

    points: tuple[Point, ...]
    collinear_triples: frozenset[frozenset[int]]
    lattice: BlowupLattice
    entries: tuple[CurveEntry, ...]
    has_p7: bool = False
    has_general_point: bool = False
    seed: int | None = None

    def __post_init__(self):
        if len(self.points) != self.lattice.n:
            raise ValueError("one blown-up point per exceptional class required")
        if self.lattice.n > 7:
            raise ValueError("the negative curves are derived for at most 7 points")
        for triple in self.collinear_triples:
            i, j, k = sorted(triple)
            if not collinear(self.points[i - 1], self.points[j - 1], self.points[k - 1]):
                raise ValueError(f"recorded triple {{{i},{j},{k}}} is not collinear")
        for i, j, k in itertools.combinations(range(1, len(self.points) + 1), 3):
            if frozenset((i, j, k)) in self.collinear_triples:
                continue
            if collinear(self.points[i - 1], self.points[j - 1], self.points[k - 1]):
                raise ValueError(f"unrecorded collinearity {{{i},{j},{k}}}")
        # almost general position: two triples sharing two points put four
        # points on one line (as do two coinciding points, once there are
        # four); seven points on a conic through a collinear triple would
        # put the other four on a line
        for a, b in itertools.combinations(self.collinear_triples, 2):
            if len(a & b) == 2:
                raise ValueError(f"points {sorted(a | b)} lie on one line")
        if len(self.points) == 7 and not self.collinear_triples and \
                interpolation_dimension(self.points, 2,
                                        [(i, 1) for i in range(7)]) > 0:
            raise ValueError("the seven points lie on a conic")

    def point(self, i: int) -> Point:
        """1-based access, matching e_i."""
        return self.points[i - 1]

    def entry(self, name: str) -> CurveEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"no catalogued curve named {name!r}")

    def cls(self, name: str) -> DivisorClass:
        return self.entry(name).cls

    @cached_property
    def negative_entries(self) -> tuple[CurveEntry, ...]:
        """Every irreducible curve of negative self-intersection.

        The points are in almost general position (checked on
        construction), so the blowup is a weak del Pezzo surface of degree
        9 - n and its negative curves are known (Harbourne, "Anticanonical
        rational surfaces", 1997):

        * the (-2)-curves are the line through each collinear triple and the
          conic through any six points, no three collinear, that lie on one;
          e_i - e_j is never effective, the points being distinct;
        * the (-1)-curves are the (-1)-classes e_i, l-e_i-e_j, 2l-(five e)
          and, for n = 7, 3l-2e_i-(the other six e) that meet every
          (-2)-curve non-negatively.

        Catalogued curves keep their entries; the others are named by their
        class.  Derived on first use and cached on the instance.
        """
        n = self.lattice.n
        by_class = {e.cls: e for e in self.entries if e.kind != "pencil"}

        def plane_class(degree, points, double=None):
            return DivisorClass(degree, tuple(
                2 if i == double else int(i in points) for i in range(1, n + 1)))

        def on_a_conic(six):
            if any(t <= six for t in self.collinear_triples):
                return False
            return interpolation_dimension(
                self.points, 2, [(i - 1, 1) for i in sorted(six)]) > 0

        everything = range(1, n + 1)
        minus_two = [plane_class(1, t)
                     for t in sorted(self.collinear_triples, key=sorted)]
        minus_two += [plane_class(2, six)
                      for six in map(frozenset, itertools.combinations(everything, 6))
                      if on_a_conic(six)]
        minus_one = [self.lattice.exceptional(i) for i in everything]
        minus_one += [plane_class(1, pair)
                      for pair in itertools.combinations(everything, 2)]
        minus_one += [plane_class(2, five)
                      for five in itertools.combinations(everything, 5)]
        if n == 7:
            minus_one += [plane_class(3, everything, double=i) for i in everything]
        minus_one = [c for c in minus_one if all(c.dot(r) >= 0 for r in minus_two)]

        kinds = {0: "exceptional", 1: "line", 2: "conic", 3: "cubic"}
        return tuple(by_class.get(c) or CurveEntry(str(c), c, kinds[c.degree])
                     for c in minus_two + minus_one)

    @cached_property
    def _negative_curves(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        """(degree, mults, -C^2) of each entry of ``negative_entries``."""
        return tuple((e.cls.degree, e.cls.mults, -e.self_intersection)
                     for e in self.negative_entries)


def _draw_general_point(rng: random.Random, lines) -> Point:
    while True:
        p = _integral((Fraction(rng.randint(-12, 12), rng.randint(1, 9)),
                       Fraction(rng.randint(-12, 12), rng.randint(1, 9)), 1))
        if not any(_on_line(line, p) for line in lines):
            return p


def standard_quadrilateral(with_p7: bool = False,
                           with_general_point: bool = False,
                           seed: int = 0) -> PointConfiguration:
    """The quadrilateral P1P2P3P4 with its derived points, blown up.

    ``with_p7`` adds the diagonal intersection P7 = (1:2:1) as a seventh
    centre (the diagonals then become the strict transforms Delta2bar,
    Delta3bar).  ``with_general_point`` instead adds a seeded random point
    lying on none of the seven catalogued lines; the members of the conic
    pencils through it join the catalogue as rigid (-1)-conics.
    """
    if with_p7 and with_general_point:
        raise ValueError("choose at most one extra point")

    points = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0), (0, 1, 1)]
    triples = {frozenset(t) for t in ((1, 2, 5), (3, 4, 5), (2, 3, 6), (1, 4, 6))}
    if with_p7:
        points.append((1, 2, 1))
        triples |= {frozenset((5, 6, 7)), frozenset((2, 4, 7))}
    if with_general_point:
        rng = random.Random(seed)
        points.append(_draw_general_point(rng, _LINE_COEFFS.values()))

    n = len(points)
    lat = BlowupLattice(n)
    entries: list[CurveEntry] = [
        CurveEntry(f"e{i}", lat.exceptional(i), "exceptional") for i in range(1, n + 1)
    ]
    for name, coeffs in _LINE_COEFFS.items():
        through = tuple(i for i in range(1, n + 1) if _on_line(coeffs, points[i - 1]))
        mults = tuple(1 if i in through else 0 for i in range(1, n + 1))
        label = name + "bar" if (with_p7 and 7 in through) else name
        entries.append(CurveEntry(label, DivisorClass(1, mults), "line", coeffs))
    for name, base in _PENCIL_BASE.items():
        mults = tuple(1 if i in base else 0 for i in range(1, n + 1))
        entries.append(CurveEntry(name, DivisorClass(2, mults), "pencil"))
        if with_general_point:
            strict = tuple(1 if i in base else 0 for i in range(1, 7)) + (1,)
            entries.append(CurveEntry(name + "_strict", DivisorClass(2, strict), "conic"))
    if with_p7:
        f2 = next(e for e in entries if e.name == "f2").cls
        f3 = next(e for e in entries if e.name == "f3").cls
        e7 = lat.exceptional(7)
        entries.append(CurveEntry("C", f2 + f3 - 2 * e7, "pencil"))

    return PointConfiguration(tuple(points), frozenset(triples), lat, tuple(entries),
                              has_p7=with_p7, has_general_point=with_general_point,
                              seed=seed if with_general_point else None)


# ---------------------------------------------------------------------------
# exact interpolation and h^0


def _monomials(degree: int) -> list[tuple[int, int, int]]:
    return [(a, b, degree - a - b)
            for a in range(degree, -1, -1)
            for b in range(degree - a, -1, -1)]


_PRIME = 2**61 - 1

# steps of fixed-part splitting between two conic-bundle tests in h0_class
_SCREEN = 64


def rank_rational(rows) -> int:
    """Exact rank over Q of an integer matrix, given as a list of rows.

    The rank mod the prime 2^61 - 1 never exceeds the rank over Q, so when
    it reaches min(rows, cols) it is certified and returned.  Otherwise the
    rank is computed over Z by fraction-free Bareiss elimination, in which
    every division is exact.  ``rows`` is left unchanged.

    >>> rank_rational([[2**61 - 1, 0], [0, 1]])
    2
    """
    if not rows or not rows[0]:
        return 0

    def eliminate(rest, combine):
        # column by column; the rows still to pivot keep only the columns
        # right of the current one.  The smallest pivot keeps Bareiss's
        # minors small (rows of points with small coordinates go first).
        rank, prev = 0, 1
        while rest and rest[0]:
            nonzero = [i for i, r in enumerate(rest) if r[0]]
            if not nonzero:
                rest = [r[1:] for r in rest]
                continue
            pivot = rest.pop(min(nonzero, key=lambda i: abs(rest[i][0])))
            rest = combine(pivot, rest, prev)
            prev = pivot[0]
            rank += 1
        return rank

    def mod_p(pivot, rest, prev):
        inv = pow(pivot[0], -1, _PRIME)
        tail = pivot[1:]
        return [[(x - f * y) % _PRIME for x, y in zip(r[1:], tail)]
                if (f := r[0] * inv % _PRIME) else r[1:] for r in rest]

    def bareiss(pivot, rest, prev):
        # each entry stays a minor of the matrix, so // divides exactly
        p, tail = pivot[0], pivot[1:]
        return [[(p * x - a * y) // prev for x, y in zip(r[1:], tail)]
                if (a := r[0]) else [p * x // prev for x in r[1:]]
                for r in rest]

    rank = eliminate([[v % _PRIME for v in r] for r in rows], mod_p)
    if rank == min(len(rows), len(rows[0])):
        return rank
    # dividing each row by its content keeps the rank and shrinks the minors
    return eliminate([[v // (gcd(*r) or 1) for v in r] for r in rows], bareiss)


def interpolation_dimension(points, degree: int, assignments) -> int:
    """h^0 of degree-``degree`` forms with multiplicity m_j at points[j].

    ``assignments`` is an iterable of (point index, multiplicity>=1); the
    multiplicity-m condition is imposed through the m(m+1)/2 partial
    derivatives of order m-1 (equivalent to all lower orders by Euler's
    relation).  Those conditions are homogeneous, so each point is first
    scaled to coprime integer coordinates and the matrix is integral.  A
    requested multiplicity above the degree forces h^0 = 0.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    assignments = list(assignments)
    if any(m > degree for _, m in assignments):
        return 0
    monos = _monomials(degree)
    # falling[a][e] = e (e-1) ... (e-a+1), the factor d^a/dx^a puts on x^e
    top = max((m for _, m in assignments), default=1)
    falling = [[1] * (degree + 1)]
    for a in range(1, top):
        falling.append([f * (e - a + 1) for e, f in enumerate(falling[-1])])
    rows = []
    for idx, m in assignments:
        if m < 1:
            raise ValueError("multiplicities must be >= 1")
        powers = [[c ** k for k in range(degree + 1)]
                  for c in _integral(points[idx])]
        for alpha in _monomials(m - 1):
            # fx[e]: d^alpha_0/dx^alpha_0 of x^e at the point, and so on
            fx, fy, fz = [[f * pw[e - a] if e >= a else 0
                           for e, f in enumerate(falling[a])]
                          for a, pw in zip(alpha, powers)]
            rows.append([fx[a] * fy[b] * fz[c] for a, b, c in monos])
    return len(monos) - rank_rational(rows)


@dataclass(frozen=True)
class FatPointSystem:
    """Plane curves of fixed degree with assigned point multiplicities."""

    degree: int
    assignments: tuple[tuple[int, int], ...]  # (0-based point index, mult>=1)

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        idxs = [i for i, _ in self.assignments]
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate point in assignments")
        if any(m < 1 for _, m in self.assignments):
            raise ValueError("multiplicities must be >= 1")

    @property
    def conditions(self) -> int:
        return sum(m * (m + 1) // 2 for _, m in self.assignments)

    @property
    def expected_dimension(self) -> int:
        full = (self.degree + 1) * (self.degree + 2) // 2
        return max(0, full - self.conditions)


def h0_fat_points(cfg: PointConfiguration, system: FatPointSystem) -> int:
    """Exact dimension of the system over the configuration's points: h^0
    of the class (d; m_1, ..., m_n) on the blowup."""
    mults = [0] * len(cfg.points)
    for idx, m in system.assignments:
        if not 0 <= idx < len(cfg.points):
            raise ValueError(f"point index {idx} out of range")
        mults[idx] = m
    return h0_class(cfg, DivisorClass(system.degree, tuple(mults)))


def class_to_system(cfg: PointConfiguration, d: DivisorClass) -> FatPointSystem:
    """Translate a lattice class into the matching interpolation problem."""
    if d.n != cfg.lattice.n:
        raise ValueError("class does not live on the configuration's lattice")
    if any(m < 0 for m in d.mults):
        raise ValueError(
            "negative multiplicity; remove fixed parts before interpolating")
    return FatPointSystem(d.degree,
                          tuple((i, m) for i, m in enumerate(d.mults) if m >= 1))


def h0_class(cfg: PointConfiguration, d: DivisorClass) -> int:
    """h^0 of a divisor class on the blowup, by lattice arithmetic alone.

    While some negative curve C meets the class negatively, C is a fixed
    component; k = ceil(-D.C / -C^2) copies of it are split off at once,
    enough for the residue to meet C non-negatively.  A class of negative
    degree, or meeting -K negatively, has no sections, l and -K being nef.
    The residue that meets every negative curve non-negatively is nef, so
    h^0 = chi = 1 + (D^2 - K.D)/2 by Kawamata-Viehweg, -K being nef and big.

    A class with no sections can meet a conic bundle F negatively while
    meeting l and -K non-negatively; the splitting then walks down the
    reducible fibres of F, a little at a time.  So every ``_SCREEN`` = 64
    steps the residue is also tested against the nef classes with F^2 = 0
    and -K.F = 2, which ends that walk at once.
    """
    if d.n != cfg.lattice.n:
        raise ValueError("class does not live on the configuration's lattice")
    curves = cfg._negative_curves

    def nef_pencils():
        # the classes with F^2 = 0 and -K.F = 2 on at most seven points, as
        # (degree, number of double points, number of simple points)
        n, out = d.n, []
        for f_deg, doubles, singles in ((1, 0, 1), (2, 0, 4), (3, 1, 5),
                                        (4, 3, 4), (5, 6, 1)):
            for two in itertools.combinations(range(n), doubles):
                rest = [i for i in range(n) if i not in two]
                for one in itertools.combinations(rest, singles):
                    f = tuple(2 if i in two else int(i in one) for i in range(n))
                    if all(f_deg * c_deg >= sum(map(mul, f, c_mults))
                           for c_deg, c_mults, _ in curves):
                        out.append((f_deg, f))
        return out

    deg, mults = d.degree, d.mults
    pencils = None
    for step in itertools.count(1):
        if deg < 0 or 3 * deg < sum(mults):
            return 0
        if step % _SCREEN == 0:
            if pencils is None:
                pencils = nef_pencils()
            if any(deg * f_deg < sum(map(mul, mults, f_mults))
                   for f_deg, f_mults in pencils):
                return 0
        for c_deg, c_mults, c_neg in curves:
            meet = deg * c_deg - sum(map(mul, mults, c_mults))
            if meet < 0:
                k = -(meet // c_neg)
                deg -= k * c_deg
                mults = tuple(a - k * b for a, b in zip(mults, c_mults))
                break
        else:
            return 1 + (deg * deg - sum(m * m for m in mults)
                        + 3 * deg - sum(mults)) // 2


# ---------------------------------------------------------------------------
# effective decompositions


def _bounded_decompositions(pos_atoms, exc_atoms, target: DivisorClass,
                            cap: int | None):
    """All ways to write ``target`` as a non-negative combination of atoms.

    ``pos_atoms`` are (name, class) pairs of positive degree, ``exc_atoms``
    maps a 0-based point index to the name of the pure exceptional class
    available for it.  ``cap`` bounds the number of positive-degree
    components counted with multiplicity.  Returns (decompositions, capped)
    where ``capped`` reports whether the bound cut off any branch.
    """
    results = []
    capped = False

    def finish(rem: DivisorClass, chosen):
        if rem.degree != 0 or any(m > 0 for m in rem.mults):
            return
        tail = []
        for j, m in enumerate(rem.mults):
            if m < 0:
                name = exc_atoms.get(j)
                if name is None:
                    return
                tail.append((name, -m))
        results.append(tuple(sorted(chosen + tail)))

    def search(i: int, rem: DivisorClass, used: int, chosen):
        nonlocal capped
        if rem.degree == 0:
            finish(rem, chosen)
            return
        if i == len(pos_atoms):
            return
        name, cls = pos_atoms[i]
        top = rem.degree // cls.degree
        if cap is not None and used + top > cap:
            if top > cap - used:
                capped = True
            top = cap - used
        for c in range(top + 1):
            search(i + 1, rem - c * cls, used + c,
                   chosen + [(name, c)] if c else chosen)

    search(0, target, 0, [])
    return sorted(set(results)), capped


def effective_decompositions(cfg: PointConfiguration, d: DivisorClass,
                             max_components: int | None = None):
    """Every way to write ``d`` as a non-negative sum of catalogued classes.

    Returns a sorted list of multisets, each a tuple of (name, coefficient)
    pairs.  ``max_components`` bounds the number of positive-degree
    components used (default: the degree of ``d``, which is already
    exhaustive since every positive-degree atom has degree >= 1).
    """
    if d.n != cfg.lattice.n:
        raise ValueError("class does not live on the configuration's lattice")
    if max_components is not None and max_components < 1:
        raise ValueError("component bound must be >= 1")
    decs, _ = _decompositions_with_flag(cfg, d, max_components)
    return decs


def _decompositions_with_flag(cfg, d, max_components):
    pos = [(e.name, e.cls) for e in cfg.entries if e.cls.degree >= 1]
    pos.sort(key=lambda t: (-t[1].degree, t[0]))
    exc = {}
    for e in cfg.entries:
        if e.kind == "exceptional":
            # e_i has m_i = -1 at exactly one position
            j = next(k for k, m in enumerate(e.cls.mults) if m == -1)
            exc[j] = e.name
    cap = max_components if max_components is not None else max(d.degree, 0)
    return _bounded_decompositions(pos, exc, d, cap)


def sum_of_decomposition(cfg: PointConfiguration, decomposition) -> DivisorClass:
    """Re-sum a decomposition; used as the exactness oracle in tests."""
    total = cfg.lattice.zero
    for name, coeff in decomposition:
        total = total + coeff * cfg.cls(name)
    return total
