"""Building data of bidouble (Z/2 x Z/2) covers and surface invariants.

A bidouble cover of the plane blown up at the points of a configuration
is specified by three branch divisors D_1, D_2, D_3 (formal sums of
catalogued components) together with classes L_1, L_2 satisfying, exactly
in the lattice,

    2*L_1 = D_2 + D_3,      2*L_2 = D_1 + D_3,

and the derived L_3 := L_1 + L_2 - D_3 then satisfies 2*L_3 = D_1 + D_2.
With D := D_1 + D_2 + D_3 the cover X has

    chi(O_X)  = 4 + sum_i L_i(L_i + K)/2,
    p_g(X)    = sum_i h^0(K + L_i),
    K_X^2     = (2K + D)^2,

and the double of the canonical class pulls back from 2K + D, so the
bicanonical space decomposes into h^0(2K+D) plus the three character
summands h^0(2K+D-L_i).  Building data is checked when it is built, so
every ``BidoubleData`` is a valid cover, and it carries its configuration,
so every h^0 is taken on the surface the cover was built on.  ``analyse``
returns one report: seven h^0 (three adjoint, one invariant, three
character classes), the contraction bookkeeping and the double fibres.

Each smooth rational branch component G in D_i is covered by a double
cover branched at b = G.(D_j + D_k) = 2 G.L_i points: for b = 0 it splits
into two disjoint curves of self-intersection G^2/2 (the (-1)-pairs among
these are contracted to reach the minimal model), for b > 0 it stays
irreducible of genus b/2 - 1 with self-intersection G^2.

A member of a conic-bundle pencil |F| (F^2 = 0, K.F = -2, F nef) pulls
back with multiplicity 2 exactly when each of its components is either a
branch component or carries even multiplicity.  The general members in
the branch locus and the reducible members from ``plane.reducible_fibres``
(each a (-1)-curve E plus the fixed part of |F - E|, with no search) give
the number of double fibres; other pencil classes are refused.

``resolve_111`` blows up a general point on one named member of each D_i
(the (1,1,1)-point degeneration), which lowers K^2 of the minimal model by 1.
"""

from __future__ import annotations

from functools import cached_property

from .lattice import BlowupLattice, DivisorClass, Record
from .plane import PointConfiguration, h0_class, reducible_fibres

__all__ = [
    "RelationError",
    "IncidenceError",
    "InvariantConsistencyError",
    "BranchComponent",
    "BidoubleData",
    "BranchPreimage",
    "InvariantReport",
    "branch_preimage",
    "contraction_count",
    "resolve_111",
    "fibre_multiplicity",
    "count_double_fibres",
    "analyse",
    "double_cover_chi",
    "numeri_identities",
    "etale_double",
    "slope_check",
]


class RelationError(ValueError):
    """The two fundamental cover relations do not hold; carries residues."""

    def __init__(self, residues):
        self.residues = list(residues)
        parts = "; ".join(f"{name}: residue {res}" for name, res in self.residues)
        super().__init__(f"building data violates cover relations ({parts})")


class IncidenceError(ValueError):
    """A branch divisor is not smooth, or the blown-up point is not general."""


class InvariantConsistencyError(ValueError):
    """Computed bicanonical summands disagree with chi + K^2_minimal."""


class BranchComponent(Record):
    """One reduced component of a branch divisor.

    ``branch`` is 1, 2 or 3; ``count`` is the number of members of the
    class the component stands for.
    """

    __slots__ = ("name", "cls", "branch", "count")

    def __init__(self, name: str, cls: DivisorClass, branch: int,
                 count: int = 1):
        if branch not in (1, 2, 3):
            raise ValueError("branch index must be 1, 2 or 3")
        if count < 1:
            raise ValueError("count must be >= 1")
        self._set(name, cls, branch, count)


class BidoubleData(Record):
    """Branch components plus the classes L_1, L_2 of a bidouble cover of
    the blowup at the points of ``configuration``; whether L_1, L_2 were
    given or derived by halving is the caller's to know, not a field.

    Raises :class:`RelationError` with the residue of each violated cover
    relation, then :class:`IncidenceError` when two components of one D_i
    meet (a class listed twice unless C^2 = 0) or a class of negative
    square lies in two D_i, so that D is not reduced."""

    __slots__ = ("configuration", "components", "L1", "L2", "__dict__")

    def __init__(self, configuration: PointConfiguration,
                 components: tuple[BranchComponent, ...], L1: DivisorClass,
                 L2: DivisorClass):
        n = configuration.lattice.n
        if len({c.name for c in components}) != len(components):
            raise ValueError("branch components must be pairwise distinct")
        tally, classes = {}, {}  # (branch, degree, mults) -> members, class
        for c in components:
            if len(c.cls.mults) != n:
                raise ValueError(f"component {c.name} lives on the wrong lattice")
            key = c.branch, c.cls.degree, c.cls.mults
            tally[key], classes[key] = tally.get(key, 0) + c.count, c.cls
        for lname, cls in (("L1", L1), ("L2", L2)):
            if len(cls.mults) != n:
                raise ValueError(f"{lname} lives on the wrong lattice")
        self._set(configuration, components, L1, L2)
        # D_1, D_2, D_3 row by row, and smoothness: products inside one D_i
        # only (a.(k*b) is zero iff a.b is), one dict for a rigid curve in two
        rows, branch_of, smooth = ([], [], []), {}, True
        items = [(key[0], classes[key], k) for key, k in tally.items()]
        for i, a, k in items:
            row = rows[i - 1]
            if smooth and (any(map(a.dot, row)) or k > 1 and a.dot(a)
                           or branch_of.setdefault((a.degree, a.mults), i) != i
                           and a.dot(a) < 0):
                smooth = False
            row.append(a if k == 1 else k * a)
        d1, d2, d3 = totals = tuple([
            DivisorClass(sum([a.degree for a in row]),
                         tuple(map(sum, zip((0,) * n, *[a.mults for a in row]))))
            for row in rows])
        # kept as a cached_property would keep them, apart from the fields
        self.__dict__.update(_tally=tally, _branch_classes=totals)
        residues = [(relation, r) for relation, r in (
            ("2L1 - (D2+D3)", 2 * L1 - (d2 + d3)),
            ("2L2 - (D1+D3)", 2 * L2 - (d1 + d3))) if r.degree or any(r.mults)]
        if residues:
            raise RelationError(residues)
        if smooth:
            return
        for j, (i, a, count) in enumerate(items):  # the first bad pair
            for k, b, _ in items[j + (count == 1):]:
                if k == i and a.dot(b):
                    raise IncidenceError(
                        f"D{i} is not smooth: its components {a} and {b} "
                        f"have intersection {a.dot(b)}")
                if k != i and a == b and a.dot(a) < 0:
                    raise IncidenceError(
                        f"the rigid curve {a} lies in both D{i} and D{k}, "
                        "so D is not reduced")

    @property
    def lattice(self) -> BlowupLattice:
        return self.configuration.lattice

    def branch_class(self, i: int) -> DivisorClass:
        return self._branch_classes[i - 1]

    @cached_property
    def branch_total(self) -> DivisorClass:
        d1, d2, d3 = self._branch_classes
        return d1 + d2 + d3

    @cached_property
    def _residuals(self) -> tuple[DivisorClass, DivisorClass, DivisorClass]:
        """(D - D_1, D - D_2, D - D_3), what a component of D_i meets."""
        d1, d2, d3 = self._branch_classes
        return d2 + d3, d1 + d3, d1 + d2

    @cached_property
    def L3(self) -> DivisorClass:
        """The derived L_3 = L_1 + L_2 - D_3, with 2L_3 = D_1 + D_2."""
        return self.L1 + self.L2 - self._branch_classes[2]

    def component(self, name: str) -> BranchComponent:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(f"no branch component named {name!r}")


class BranchPreimage(Record):
    """What the cover does over one branch component."""

    __slots__ = ("name", "branch_degree", "splits", "pieces",
                 "self_intersection", "genus", "contracted")

    def __init__(self, name: str,
                 branch_degree: int,      # b = G.(D_j + D_k)
                 splits: bool,            # True: two disjoint copies, else irreducible
                 pieces: int,             # 2 if split else 1
                 self_intersection: int,  # of each piece
                 genus: int,              # of each piece
                 contracted: int):        # (-1)-curves this component contributes
        self._set(name, branch_degree, splits, pieces, self_intersection,
                  genus, contracted)


def branch_preimage(bd: BidoubleData, name: str) -> BranchPreimage:
    """Preimage of a smooth rational branch component in the cover."""
    return _preimage(bd, bd.component(name))


def _preimage(bd: BidoubleData, comp: BranchComponent) -> BranchPreimage:
    name = comp.name
    b = comp.cls.dot(bd._residuals[comp.branch - 1])
    sq = comp.cls.dot(comp.cls)
    if b == 0:
        if sq % 2 != 0:
            raise ValueError(
                f"component {name} with b=0 must have even self-intersection, "
                f"got {sq}")
        half = sq // 2
        return BranchPreimage(name, 0, True, 2, half, 0,
                              contracted=2 if half == -1 else 0)
    return BranchPreimage(name, b, False, 1, sq, b // 2 - 1, contracted=0)


def contraction_count(bd: BidoubleData) -> int:
    """Total number of (-1)-curves contracted towards the minimal model."""
    residuals, total = bd._residuals, 0
    for c in bd.components:
        if not c.cls.dot(residuals[c.branch - 1]):  # b = 0: G splits
            sq = c.cls.dot(c.cls)
            if sq == -2:
                total += 2 * c.count
            elif sq % 2:
                _preimage(bd, c)  # raises: a split curve has even square
    return total


class InvariantReport(Record):
    """Numerical invariants of the cover and of its minimal model, with the
    character decomposition of the bicanonical space."""

    __slots__ = ("chi", "K2_cover", "pg", "q", "contractions", "K2_minimal",
                 "double_fibres", "bicanonical_degree", "involution_index",
                 "h0_invariant", "h0_characters")

    def __init__(self, chi: int, K2_cover: int, pg: int, q: int,
                 contractions: int, K2_minimal: int, double_fibres: int | None,
                 bicanonical_degree: int | None,  # 2 when the map factors
                 involution_index: int | None,    # through gamma_i
                 h0_invariant: int, h0_characters: tuple[int, int, int]):
        self._set(chi, K2_cover, pg, q, contractions, K2_minimal,
                  double_fibres, bicanonical_degree, involution_index,
                  h0_invariant, h0_characters)

    @property
    def P2(self) -> int:
        """The bigenus: the invariant and character summands together."""
        return self.h0_invariant + sum(self.h0_characters)

    def to_dict(self) -> dict:
        """The invariants, without the h^0 of the bicanonical summands."""
        out = self._asdict()
        del out["h0_invariant"], out["h0_characters"]
        return out


def resolve_111(bd: BidoubleData, cfg: PointConfiguration,
                through: tuple[str, str, str]) -> BidoubleData:
    """Blow up a general point where all three branch divisors meet.

    ``through`` names the components of D_1, D_2 and D_3, in that order,
    whose member passes through the point; each must have count 1.
    ``cfg``, on which the result lives, must be the cover's configuration
    with the general point added as its last centre, in no collinear triple.
    The named components and L_1, L_2 lose the new exceptional class; the
    exceptional curve joins no branch divisor.  Raises
    :class:`IncidenceError` when the names do not fit, and ``KeyError`` for
    a name that is no component.
    """
    if cfg.points[:-1] != bd.configuration.points:
        raise IncidenceError(
            "configuration must be the cover's points plus one extra point")
    if any(cfg.lattice.n in t for t in cfg.collinear_triples):
        raise IncidenceError("the new point lies in some collinear triple")
    named = [bd.component(name) for name in through]
    if [(c.branch, c.count) for c in named] != [(1, 1), (2, 1), (3, 1)]:
        raise IncidenceError(
            "the point must lie on one member each of D1, D2, D3, not on "
            + ", ".join(f"{c.name} ({c.count} of D{c.branch})" for c in named))
    def on_point(cls):  # the lift minus the new exceptional class
        return DivisorClass(cls.degree, cls.mults + (1,))

    comps = tuple([BranchComponent(c.name, on_point(c.cls) if c.name in through
                                   else c.cls.lift(), c.branch, c.count)
                   for c in bd.components])
    return BidoubleData(cfg, comps, on_point(bd.L1), on_point(bd.L2))


def fibre_multiplicity(bd: BidoubleData, member, pencil: DivisorClass) -> int:
    """Multiplicity (1 or 2) of the pullback of a pencil member.

    ``member`` is an iterable of (class, multiplicity, branch index or
    None); the classes must sum, with multiplicities, to the pencil class.
    The pullback is divisible by 2 iff every component is branched or
    carries even multiplicity.
    """
    member = list(member)
    total = bd.lattice.zero
    for cls, mult, branch in member:
        total = total + mult * cls
        if branch is not None and \
                (branch, cls.degree, cls.mults) not in bd._tally:
            raise ValueError(f"no component of D{branch} has class {cls}")
    if total != pencil:
        raise ValueError(
            f"member sums to {total}, not to the pencil class {pencil}")
    double = all(branch is not None or mult % 2 == 0
                 for _, mult, branch in member)
    return 2 if double else 1


def count_double_fibres(bd: BidoubleData, pencil: DivisorClass) -> int:
    """Number of double fibres of the conic bundle given by the pencil.

    Each branch component of the pencil's class is a general member (so two
    general members of the same pencil count twice).  A reducible member
    counts once when its unbranched components all carry even
    multiplicity: its components are rigid curves, and a valid cover lists
    each rigid curve at most once.  Raises ``ValueError`` unless the pencil
    is a conic bundle (F^2 = 0, K.F = -2, F nef), before any other work.
    """
    members = reducible_fibres(bd.configuration, pencil)
    branched = {key[1:] for key in bd._tally}
    count = sum([bd._tally.get((i, pencil.degree, pencil.mults), 0)
                 for i in (1, 2, 3)])
    for member in members:
        if all(a % 2 == 0 or (e.cls.degree, e.cls.mults) in branched
               for e, a in member):
            count += 1
    return count


def analyse(bd: BidoubleData, pencil: DivisorClass | None = None,
            ) -> InvariantReport:
    """Compute every invariant of the cover, in one report.

    Assumes the base is rational (chi(O)=1, p_g=0): p_g is the sum of
    h^0(K+L_i), and the bicanonical space splits into h^0(2K+D) and the
    character summands h^0(2K+D-L_i).  Their total, ``P2``, must equal
    chi + K^2_minimal; a mismatch means the building data is inconsistent
    and raises :class:`InvariantConsistencyError`.  The map has degree 2 through the
    involution gamma_i exactly when one character summand is 1 and the
    other two vanish, the invariant part carrying the map.  With a pencil,
    its double fibres are counted as in :func:`count_double_fibres`.
    """
    ls = (bd.L1, bd.L2, bd.L3)
    cfg = bd.configuration
    k = cfg.lattice.canonical
    chi = sum(map(double_cover_chi, ls)) - 2
    pg = sum(h0_class(cfg, k + L) for L in ls)
    m = 2 * k + bd.branch_total
    k2_cover = m.dot(m)
    contractions = contraction_count(bd)
    k2_minimal = k2_cover + contractions
    inv = h0_class(cfg, m)
    chars = tuple(h0_class(cfg, m - L) for L in ls)
    total = inv + sum(chars)
    if total != chi + k2_minimal:
        raise InvariantConsistencyError(
            f"bicanonical summands total {total}, but chi + K2_minimal = "
            f"{chi + k2_minimal}")
    degree = involution = None
    if sorted(chars) == [0, 0, 1]:
        degree = 2
        involution = chars.index(1) + 1
    fibres = None if pencil is None else count_double_fibres(bd, pencil)
    return InvariantReport(chi=chi, K2_cover=k2_cover, pg=pg, q=pg + 1 - chi,
                           contractions=contractions, K2_minimal=k2_minimal,
                           double_fibres=fibres, bicanonical_degree=degree,
                           involution_index=involution, h0_invariant=inv,
                           h0_characters=chars)


# ---------------------------------------------------------------------------
# scalar identities for double covers, etale covers and the slope bound


def double_cover_chi(L: DivisorClass) -> int:
    """chi of a double cover with data 2L = branch, over a base with chi=1."""
    s = L.dot(L) + sum(L.mults) - 3 * L.degree  # K.L = -3d + sum(m_i)
    assert s % 2 == 0
    return 2 + s // 2


def numeri_identities(k2y: int) -> tuple[int, int]:
    """(K.B0, B0^2) forced by 2L = B0 + C_1 + ... + C_10 and K^2 + K.L = 0.

    Ten disjoint nodal curves C_i disjoint from B0 give L.C_i = -1 and
    L^2 = K^2 - 2, whence K.B0 = -2*K^2 and B0^2 = 4*K^2 + 12.
    """
    return -2 * k2y, 4 * k2y + 12


def etale_double(chi: int, k2: int) -> tuple[int, int]:
    """Invariants double along an etale double cover."""
    return 2 * chi, 2 * k2


def slope_check(k2: int, g_base: int, g_fibre: int) -> bool:
    """Whether K^2 >= 8(g(base)-1)(g(fibre)-1) holds."""
    if g_base < 2 or g_fibre < 2:
        raise ValueError("slope bound needs both genera >= 2")
    return k2 >= 8 * (g_base - 1) * (g_fibre - 1)
