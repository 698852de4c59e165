"""The quadrilateral configuration in P^2, its negative curves and exact h^0.

Coordinates are fixed once and for all so that golden outputs are stable:
P1=(1:0:0), P2=(0:1:0), P3=(0:0:1), P4=(1:1:1), then P5 = P1P2 ^ P3P4 =
(1:1:0), P6 = P1P4 ^ P2P3 = (0:1:1), and P7 = (1:2:1) is the intersection
of the diagonals P2P4 and P5P6.  An optional general point is drawn with
small random rational affine coordinates (seeded), redrawn until it is
collinear with no two of P1..P6.  Every point is stored as a coprime integer
triple, and every incidence is derived from the coordinates in integer
arithmetic.  Configurations are immutable records, so each one that
``standard_quadrilateral`` builds is shared by every caller in the process,
its negative curves derived once.

The module also catalogues the named curves living on the blowups (sides
S1..S4, diagonals, exceptional classes, the three conic pencils).  The
points are in almost general position -- distinct, no four on a line, not
all seven on a conic -- so each blowup is a weak del Pezzo surface (degree 3
or 2) and every answer is lattice arithmetic on its negative curves:

* ``PointConfiguration.negative_entries`` -- every (-1)- and (-2)-curve,
  derived once per configuration on first use; incidence (three points on
  a line, six on a conic) is decided by integer 3x3 determinants;
* ``PointConfiguration.conic_bundles`` -- every conic bundle (F^2 = 0,
  K.F = -2, F nef), also derived once per configuration; both tables come
  from one shape table, ``_SHAPES``, and one nef test, ``_meets_all``, and
  ``is_curve`` decides by them whether a class holds an irreducible curve;
* ``h0_class`` -- h^0 of a divisor class: negative curves meeting the class
  negatively are split off as fixed parts, many copies at a time, and the
  nef residue has h^0 = chi by Riemann-Roch and Kawamata-Viehweg;
* ``h0_fat_points`` -- the dimension of the degree-d forms with prescribed
  multiplicities at the configuration's points: ``h0_class`` of (d; m_i);
* ``reducible_fibres`` -- the reducible members of a conic bundle |F|
  (F^2 = 0, K.F = -2, F nef), with no search: each one contains a
  (-1)-curve E, and the rest of it is the fixed part of |F - E|, which the
  walk of ``h0_class`` splits off.

``h0_class`` and ``reducible_fibres`` keep each answer on the configuration
by the class's (degree, mults), one entry per distinct class asked, for as
long as the configuration lives (P6 and P7: the whole process; general
points: the last 32 drawn).  An error is never stored.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from .lattice import BlowupLattice, DivisorClass, Record, riemann_roch_chi

__all__ = [
    "CurveEntry",
    "PointConfiguration",
    "FatPointSystem",
    "standard_quadrilateral",
    "collinear",
    "h0_fat_points",
    "h0_class",
    "reducible_fibres",
]

Point = tuple[int, int, int]


def det3(p: Point, q: Point, r: Point) -> int:
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _cross(p: Point, q: Point) -> Point:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def collinear(p: Point, q: Point, r: Point) -> bool:
    return det3(p, q, r) == 0


def _on_a_conic(p1, p2, p3, p4, p5, p6) -> bool:
    """Whether six points lie on one conic, by the bracket identity
    [123][145][246][356] = [124][135][236][456] (Sturmfels, "Algorithms in
    Invariant Theory", chapter 3): the difference of the two products is
    the determinant of the six points' conic monomials, up to sign."""
    return (det3(p1, p2, p3) * det3(p1, p4, p5) * det3(p2, p4, p6) * det3(p3, p5, p6)
            == det3(p1, p2, p4) * det3(p1, p3, p5) * det3(p2, p3, p6) * det3(p4, p5, p6))


class CurveEntry(Record):
    """A catalogued curve (or pencil class) on a blowup of the plane.

    ``kind`` is one of "exceptional", "line", "conic" (a rigid conic, such
    as the pencil member through the general point), "cubic" (a rigid
    cubic) or "pencil".
    """

    __slots__ = ("name", "cls", "kind")

    def __init__(self, name: str, cls: DivisorClass, kind: str):
        self._set(name, cls, kind)

    @property
    def self_intersection(self) -> int:
        return self.cls.dot(self.cls)


# plane lines of the configuration, each named by two of its points; its
# class passes through every point collinear with those two
_LINES = {"S1": (1, 2), "S2": (2, 3), "S3": (3, 4), "S4": (1, 4),
          "Delta1": (1, 3), "Delta2": (2, 4), "Delta3": (5, 6)}

# conic pencil classes on the 6-point blowup (four base points each)
_PENCIL_BASE = {
    "f1": (2, 4, 5, 6),
    "f2": (1, 3, 5, 6),
    "f3": (1, 2, 3, 4),
}


# (degree, double points, simple points) of the candidate classes, by square:
# the (-2)-curves, the (-1)-curves but the e_i, and the conic bundles
_SHAPES = {-2: ((1, 0, 3), (2, 0, 6)), -1: ((1, 0, 2), (2, 0, 5), (3, 1, 6)),
           0: ((1, 0, 1), (2, 0, 4), (3, 1, 5), (4, 3, 4), (5, 6, 1))}


def _candidates(n: int, shapes):
    """(degree, mults) of each class of ``shapes`` on n points: the double
    points, then the simple ones, in ``itertools.combinations`` order."""
    for degree, doubles, singles in shapes:
        for two in itertools.combinations(range(n), doubles):
            rest = [i for i in range(n) if i not in two]
            for one in itertools.combinations(rest, singles):
                yield degree, tuple(2 if i in two else int(i in one) for i in range(n))


def _meets_all(degree: int, mults: tuple[int, ...], curves) -> bool:
    """Whether (degree; mults) meets each (degree, mults, ...) of ``curves`` >= 0."""
    return all(degree * c[0] >= sum(map(mul, mults, c[1])) for c in curves)


class PointConfiguration(Record):
    """Coprime integer coordinates for the blown-up points plus the curve
    catalogue.

    The lattice and the 1-based ``collinear_triples`` are derived from the
    points, the triples by one exact determinant each.  Construction
    verifies almost general position: at most seven points, no four on a
    line, not seven on a conic.  Derived values are cached on the instance,
    and so are the answers of ``h0_class`` and ``reducible_fibres``: one per
    distinct class asked, kept while the instance lives, errors never.
    """

    __slots__ = ("points", "entries", "__dict__")

    def __init__(self, points: tuple[Point, ...], entries: tuple[CurveEntry, ...]):
        self._set(points, entries)
        if len(points) > 7:
            raise ValueError("the negative curves are derived for at most 7 points")
        # distinct points of P^2: no zero triple, no two proportional ones
        for i, p in enumerate(points, 1):
            if not any(p):
                raise ValueError(f"point {i} is (0, 0, 0)")
        for (i, p), (j, q) in itertools.combinations(enumerate(points, 1), 2):
            if not any(_cross(p, q)):
                raise ValueError(f"points {i} {p} and {j} {q} coincide")
        # two triples sharing two points put four points on one line (as do
        # two coinciding points, once there are four); seven points on a
        # conic through a collinear triple would put the other four on a
        # line.  With no three collinear, five of the points fix one conic,
        # which the other two must both lie on
        triples = self.collinear_triples
        for a, b in itertools.combinations(triples, 2):
            if len(a & b) == 2:
                raise ValueError(f"points {sorted(a | b)} lie on one line")
        if len(points) == 7 and not triples and \
                _on_a_conic(*points[:6]) and _on_a_conic(*points[:5], points[6]):
            raise ValueError("the seven points lie on a conic")

    @cached_property
    def lattice(self) -> BlowupLattice:
        return BlowupLattice(len(self.points))

    @cached_property
    def collinear_triples(self) -> frozenset[frozenset[int]]:
        p = self.points
        return frozenset(frozenset((i + 1, j + 1, k + 1)) for i, j, k in
                         itertools.combinations(range(len(p)), 3)
                         if collinear(p[i], p[j], p[k]))

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
        * the (-1)-curves are the e_i and the classes of the ``_SHAPES`` of
          square -1 that meet every (-2)-curve non-negatively.

        Catalogued curves keep their entries; the others are named by their
        class.  Derived on first use and cached on the instance.
        """
        n, triples = self.lattice.n, self.collinear_triples

        def rigid(degree, mults):  # a line through three points, a conic through six
            on = frozenset(i for i, m in enumerate(mults, 1) if m)
            return on in triples if degree == 1 else not any(t <= on for t in triples) \
                and _on_a_conic(*(p for p, m in zip(self.points, mults) if m))

        minus_two = [c for c in _candidates(n, _SHAPES[-2]) if rigid(*c)]
        minus_one = [(0, tuple(-(i == j) for j in range(n))) for i in range(n)]
        minus_one += [c for c in _candidates(n, _SHAPES[-1]) if _meets_all(*c, minus_two)]
        by_class = {e.cls: e for e in self.entries if e.kind != "pencil"}
        kinds = {0: "exceptional", 1: "line", 2: "conic", 3: "cubic"}
        return tuple(by_class.get(c) or CurveEntry(str(c), c, kinds[c.degree])
                     for c in itertools.starmap(DivisorClass._of, minus_two + minus_one))

    @cached_property
    def conic_bundles(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(degree, mults) of every conic bundle: the nef classes F with
        F^2 = 0 and -K.F = 2.  On at most seven points each has one of the
        ``_SHAPES`` of square 0, and is nef when it meets every negative
        curve non-negatively.  Cached."""
        return tuple(f for f in _candidates(self.lattice.n, _SHAPES[0])
                     if _meets_all(*f, self._negative_curves))

    def is_curve(self, cls: DivisorClass) -> bool:
        """Whether ``cls`` is the class of an irreducible curve: a negative
        curve, a conic bundle, or nef of positive square, hence base-point
        free (Harbourne, 1997); k*F with k > 1 is none.  On at most one
        point no negative curve bounds the degree, so l must meet it too."""
        if cls.n != self.lattice.n:
            raise ValueError("class does not live on the configuration's lattice")
        curves, key = self._negative_curves, (cls.degree, cls.mults)
        sq = cls.degree ** 2 - sum(map(mul, cls.mults, cls.mults))
        return key in self.conic_bundles if sq == 0 else \
            cls.degree >= 0 and _meets_all(*key, curves) if sq > 0 else \
            (*key, -sq) in curves

    # the answers of h0_class and reducible_fibres, by (degree, mults)
    _h0_memo = cached_property(lambda self: {})
    _fibre_memo = cached_property(lambda self: {})

    @cached_property
    def _negative_curves(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        """(degree, mults, -C^2) of each entry of ``negative_entries``."""
        return tuple((e.cls.degree, e.cls.mults, -e.self_intersection)
                     for e in self.negative_entries)


def _draw_general_point(seed: int, base: list[Point]) -> Point:
    import random  # only a general point needs it
    rng = random.Random(seed)
    pairs = list(itertools.combinations(base, 2))
    while True:
        a1, b1 = rng.randint(-12, 12), rng.randint(1, 9)
        a2, b2 = rng.randint(-12, 12), rng.randint(1, 9)
        p = (a1 * b2, a2 * b1, b1 * b2)  # (a1/b1 : a2/b2 : 1)
        g = gcd(*p)
        p = tuple(c // g for c in p)
        if not any(collinear(q, r, p) for q, r in pairs):
            return p


def standard_quadrilateral(with_p7: bool = False,
                           with_general_point: bool = False,
                           seed: int = 0) -> PointConfiguration:
    """The quadrilateral P1P2P3P4 with its derived points, blown up.

    ``with_p7`` adds the diagonal intersection P7 = (1:2:1) as a seventh
    centre (the diagonals then become the strict transforms Delta2bar,
    Delta3bar).  ``with_general_point`` instead adds a seeded random point
    collinear with no two of P1..P6, so lying on none of the seven
    catalogued lines; the members of the conic pencils through it join the
    catalogue as rigid (-1)-conics.

    Each configuration is built once per process and shared: P6 and P7
    ignore ``seed``, and the last 32 general points are kept.  It is an
    immutable record, so sharing it is safe, and its negative curves are
    derived once.
    """
    if with_p7 and with_general_point:
        raise ValueError("choose at most one extra point")
    return _quadrilateral(with_p7, with_general_point,
                          seed if with_general_point else None)


@lru_cache(maxsize=32)
def _quadrilateral(with_p7: bool, with_general_point: bool,
                   seed: int | None) -> PointConfiguration:
    points = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0), (0, 1, 1)]
    if with_p7:
        points.append((1, 2, 1))
    if with_general_point:
        points.append(_draw_general_point(seed, points))

    n = len(points)
    lat = BlowupLattice(n)
    entries: list[CurveEntry] = [
        CurveEntry(f"e{i}", lat.exceptional(i), "exceptional") for i in range(1, n + 1)
    ]
    for name, (i, j) in _LINES.items():
        p, q = points[i - 1], points[j - 1]
        mults = tuple(int(collinear(p, q, r)) for r in points)
        label = name + "bar" if (with_p7 and mults[-1]) else name
        entries.append(CurveEntry(label, DivisorClass(1, mults), "line"))
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

    return PointConfiguration(tuple(points), tuple(entries))


# ---------------------------------------------------------------------------
# h^0


# steps of fixed-part splitting between two conic-bundle tests in h0_class
_SCREEN = 64


class FatPointSystem(Record):
    """Plane curves of fixed degree with assigned point multiplicities."""

    __slots__ = ("degree", "assignments")

    def __init__(self, degree: int,
                 assignments: tuple[tuple[int, int], ...]):  # (0-based point, mult>=1)
        if degree < 0:
            raise ValueError("degree must be >= 0")
        idxs = [i for i, _ in assignments]
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate point in assignments")
        if any(m < 1 for _, m in assignments):
            raise ValueError("multiplicities must be >= 1")
        self._set(degree, assignments)

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


def _fixed_part(cfg: PointConfiguration, deg: int, mults: tuple[int, ...]):
    """The walk of ``h0_class`` on the class (deg; mults): None when it has
    no sections, else its nef residue (degree, mults) and the copies split
    off, {index into ``negative_entries``: count}."""
    curves, split = cfg._negative_curves, {}
    for step in itertools.count(1):
        if deg < 0 or 3 * deg < sum(mults) or step % _SCREEN == 0 and \
                not _meets_all(deg, mults, cfg.conic_bundles):
            return None
        for i, (c_deg, c_mults, c_neg) in enumerate(curves):
            meet = deg * c_deg - sum(map(mul, mults, c_mults))
            if meet < 0:
                k = -(meet // c_neg)
                deg -= k * c_deg
                mults = tuple(a - k * b for a, b in zip(mults, c_mults))
                split[i] = split.get(i, 0) + k
                break
        else:
            return (deg, mults), split


def h0_class(cfg: PointConfiguration, d: DivisorClass) -> int:
    """h^0 of a divisor class on the blowup, by lattice arithmetic alone.

    While some negative curve C meets the class negatively, C is a fixed
    component; k = ceil(-D.C / -C^2) copies of it are split off at once,
    enough for the residue to meet C non-negatively.  A class of negative
    degree, or meeting -K negatively, has no sections, l and -K being nef.
    The residue that meets every negative curve non-negatively is nef, so
    h^0 = chi (``riemann_roch_chi``) by Kawamata-Viehweg, -K nef and big.

    A class with no sections can meet a conic bundle F negatively while
    meeting l and -K non-negatively; the splitting then walks down the
    reducible fibres of F, a little at a time.  So every ``_SCREEN`` = 64
    steps the residue is also tested against ``cfg.conic_bundles``, which
    ends that walk at once.
    """
    if d.n != cfg.lattice.n:
        raise ValueError("class does not live on the configuration's lattice")
    key = d.degree, d.mults
    h0 = cfg._h0_memo.get(key)
    if h0 is not None:
        return h0
    walk = _fixed_part(cfg, *key)
    h0 = 0 if walk is None else riemann_roch_chi(DivisorClass._of(*walk[0]))
    cfg._h0_memo[key] = h0
    return h0


# ---------------------------------------------------------------------------
# reducible members of conic bundles


def reducible_fibres(cfg: PointConfiguration, F: DivisorClass):
    """Every reducible member of the conic bundle |F|.

    F must be one of ``cfg.conic_bundles``: F^2 = 0, K.F = -2 and F.C >= 0
    for every negative curve C (then |F| is a base-point-free pencil of
    conics); otherwise ``ValueError``.  A component of a reducible member
    meets F in 0 and has negative self-intersection, so it is one of the
    entries of ``negative_entries`` orthogonal to F.  Each reducible member
    contains a (-1)-curve E, since K.F = -2 and a (-2)-curve has K.C = 0;
    the member minus E is then the whole of |F - E|, a fixed part, which
    the walk of ``h0_class`` splits off exactly.  The members are checked
    to end in a zero residue and to share no curve, and their curves to be
    exactly those orthogonal to F.

    Returns the members as tuples of (entry, coefficient) pairs, the curves
    of a member and the members ordered by their place in
    ``negative_entries``.

    >>> cfg = standard_quadrilateral()
    >>> for member in reducible_fibres(cfg, cfg.cls("f1")):
    ...     print(" + ".join(f"{a}*{e.name}" for e, a in member))
    1*S1 + 1*S4 + 2*e1
    1*S2 + 1*S3 + 2*e3
    1*Delta2 + 1*Delta3
    """
    if F.n != cfg.lattice.n:
        raise ValueError("class does not live on the configuration's lattice")
    deg, mults = key = F.degree, F.mults
    members = cfg._fibre_memo.get(key)
    if members is not None:
        return list(members)
    if key not in cfg.conic_bundles:
        raise ValueError(
            f"pencil class {F} is not a conic bundle: it must have "
            "self-intersection 0, K-degree -2 and meet every negative curve "
            "non-negatively")
    curves = cfg._negative_curves
    orthogonal = [i for i, (c_deg, c_mults, _) in enumerate(curves)
                  if deg * c_deg == sum(map(mul, mults, c_mults))]
    zero, supports, placed = (0, (0,) * len(mults)), [], set()
    for e in orthogonal:
        c_deg, c_mults, c_neg = curves[e]
        if c_neg != 1 or e in placed:
            continue
        walk = _fixed_part(cfg, deg - c_deg,
                           tuple(a - b for a, b in zip(mults, c_mults)))
        if walk is None or walk[0] != zero or placed & walk[1].keys():
            break  # e stays unplaced, so the check below raises
        split = walk[1]
        split[e] = split.get(e, 0) + 1
        placed |= split.keys()
        supports.append(split)
    if placed != set(orthogonal):
        names = [cfg.negative_entries[i].name for i in orthogonal]
        raise ValueError(f"the negative curves {names} orthogonal to {F} "
                         "do not sum to it")
    entries = cfg.negative_entries
    members = tuple(tuple((entries[i], a) for i, a in sorted(s.items()))
                    for s in sorted(supports, key=min))
    cfg._fibre_memo[key] = members
    return list(members)
