"""Building data of bidouble (Z/2 x Z/2) covers and surface invariants.

A bidouble cover of a rational surface is specified by three branch
divisors D_1, D_2, D_3 (formal sums of catalogued components) together
with classes L_1, L_2 satisfying, exactly in the lattice,

    2*L_1 = D_2 + D_3,      2*L_2 = D_1 + D_3,

and the derived L_3 := L_1 + L_2 - D_3 then satisfies 2*L_3 = D_1 + D_2.
With D := D_1 + D_2 + D_3 the cover X has

    chi(O_X)  = 4 + sum_i L_i(L_i + K)/2,
    p_g(X)    = sum_i h^0(K + L_i),
    K_X^2     = (2K + D)^2,

and the double of the canonical class pulls back from 2K + D, so the
bicanonical space decomposes into h^0(2K+D) plus the three character
summands h^0(2K+D-L_i).  ``analyse`` computes all of this once per
construction: seven h^0 (three adjoint, one invariant, three character
classes), the contraction bookkeeping and, given a pencil, the double
fibres.

Each smooth rational branch component G in D_i is covered by a double
cover branched at b = G.(D_j + D_k) points: for b = 0 it splits into two
disjoint curves of self-intersection G^2/2 (the (-1)-pairs among these are
contracted to reach the minimal model), for b > 0 it stays irreducible of
genus b/2 - 1 with self-intersection G^2.

A member of a conic-bundle pencil |F| (F^2 = 0, K.F = -2, F nef) pulls
back with multiplicity 2 exactly when each of its components is either a
branch component or carries even multiplicity.  The general members in
the branch locus and the reducible members from ``plane.reducible_fibres``
(read off every negative curve orthogonal to F, with no search) give the
number of double fibres; other pencil classes are refused.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from math import comb, prod

from .lattice import DivisorClass, BlowupLattice
from .plane import PointConfiguration, h0_class, reducible_fibres

__all__ = [
    "RelationError",
    "IncidenceError",
    "InvariantConsistencyError",
    "BranchComponent",
    "BidoubleData",
    "BranchPreimage",
    "InvariantReport",
    "BicanonicalDecomposition",
    "validate",
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
    """A branch divisor is not smooth, or the marked point is not (1,1,1)."""


class InvariantConsistencyError(ValueError):
    """Computed bicanonical summands disagree with chi + K^2_minimal."""


@dataclass(frozen=True)
class BranchComponent:
    """One reduced component of a branch divisor.

    ``branch`` is 1, 2 or 3; ``through_point`` marks a moving component
    constrained to pass through the configuration's general point (used to
    set up a (1,1,1)-point degeneration).
    """

    name: str
    cls: DivisorClass
    branch: int
    through_point: bool = False

    def __post_init__(self):
        if self.branch not in (1, 2, 3):
            raise ValueError("branch index must be 1, 2 or 3")


@dataclass(frozen=True)
class BidoubleData:
    """Branch components plus the classes L_1, L_2 of a bidouble cover."""

    lattice: BlowupLattice
    components: tuple[BranchComponent, ...]
    L1: DivisorClass
    L2: DivisorClass
    l_provenance: str = "given"  # or "derived"

    def __post_init__(self):
        names = [c.name for c in self.components]
        if len(set(names)) != len(names):
            raise ValueError("branch components must be pairwise distinct")
        for c in self.components:
            if c.cls.n != self.lattice.n:
                raise ValueError(f"component {c.name} lives on the wrong lattice")
        for lname, cls in (("L1", self.L1), ("L2", self.L2)):
            if cls.n != self.lattice.n:
                raise ValueError(f"{lname} lives on the wrong lattice")

    def components_of(self, i: int) -> tuple[BranchComponent, ...]:
        return tuple(c for c in self.components if c.branch == i)

    @cached_property
    def _branch_classes(self) -> tuple[DivisorClass, DivisorClass, DivisorClass]:
        """(D_1, D_2, D_3), summed once."""
        totals = [self.lattice.zero] * 3
        for c in self.components:
            totals[c.branch - 1] += c.cls
        return tuple(totals)

    def branch_class(self, i: int) -> DivisorClass:
        return self._branch_classes[i - 1]

    @cached_property
    def branch_total(self) -> DivisorClass:
        d1, d2, d3 = self._branch_classes
        return d1 + d2 + d3

    def component(self, name: str) -> BranchComponent:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(f"no branch component named {name!r}")


def validate(bd: BidoubleData) -> DivisorClass:
    """Check both cover relations exactly, then that each D_i is smooth,
    and return the derived L_3.

    Raises :class:`RelationError` listing each violated relation with the
    offending residue class, then :class:`IncidenceError` when two
    components of one D_i meet (a class listed twice unless C^2 = 0).
    """
    d1, d2, d3 = (bd.branch_class(i) for i in (1, 2, 3))
    residues = []
    r1 = 2 * bd.L1 - (d2 + d3)
    if r1 != bd.lattice.zero:
        residues.append(("2L1 - (D2+D3)", r1))
    r2 = 2 * bd.L2 - (d1 + d3)
    if r2 != bd.lattice.zero:
        residues.append(("2L2 - (D1+D3)", r2))
    if residues:
        raise RelationError(residues)
    counts = Counter((c.branch, c.cls) for c in bd.components)
    distinct = list(counts)
    for j, (i, a) in enumerate(distinct):
        for k, b in distinct[j + (counts[i, a] == 1):]:
            if k == i and a.dot(b):
                raise IncidenceError(
                    f"D{i} is not smooth: its components {a} and {b} "
                    f"have intersection {a.dot(b)}")
    return bd.L1 + bd.L2 - d3


@dataclass(frozen=True)
class BranchPreimage:
    """What the cover does over one branch component."""

    name: str
    branch_degree: int          # b = G.(D_j + D_k)
    splits: bool                # True: two disjoint copies; False: irreducible
    pieces: int                 # 2 if split else 1
    self_intersection: int      # of each piece
    genus: int                  # of each piece
    contracted: int             # number of (-1)-curves this component contributes


def branch_preimage(bd: BidoubleData, name: str) -> BranchPreimage:
    """Preimage of a smooth rational branch component in the cover."""
    return _preimage(bd, bd.component(name))


def _preimage(bd: BidoubleData, comp: BranchComponent) -> BranchPreimage:
    name = comp.name
    b = comp.cls.dot(bd.branch_total - bd.branch_class(comp.branch))
    sq = comp.cls.dot(comp.cls)
    if b % 2 != 0:
        raise ValueError(
            f"component {name} meets the other branch divisors oddly (b={b}); "
            "the building data is corrupt")
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
    return sum(_preimage(bd, c).contracted for c in bd.components)


@dataclass(frozen=True)
class InvariantReport:
    """Numerical invariants of the cover and of its minimal model."""

    chi: int
    K2_cover: int
    pg: int
    q: int
    contractions: int
    K2_minimal: int
    double_fibres: int | None
    bicanonical_degree: int | None
    involution_index: int | None

    def to_dict(self) -> dict:
        return asdict(self)


def resolve_111(bd: BidoubleData, cfg: PointConfiguration) -> BidoubleData:
    """Blow up the general point where all three branch divisors meet.

    ``cfg`` must carry the general point as its last centre; exactly one
    component of each D_i must be marked ``through_point``.  The marked
    components and L_1, L_2 lose the new exceptional class; the exceptional
    curve joins no branch divisor.
    """
    if not cfg.has_general_point:
        raise IncidenceError("configuration has no general point to blow up")
    if cfg.lattice.n != bd.lattice.n + 1:
        raise IncidenceError("configuration must have exactly one extra point")
    for i in (1, 2, 3):
        marked = [c for c in bd.components_of(i) if c.through_point]
        if len(marked) != 1:
            raise IncidenceError(
                f"expected exactly one component of D{i} through the point, "
                f"found {len(marked)}")
    p = cfg.points[-1]
    for c in bd.components:
        entry = next((e for e in cfg.entries if e.name == c.name and e.line), None)
        if entry is not None:
            a, b_, c_ = entry.line
            if a * p[0] + b_ * p[1] + c_ * p[2] == 0:
                raise IncidenceError(
                    f"rigid component {c.name} unexpectedly passes through "
                    "the general point")
    e_new = cfg.lattice.exceptional(cfg.lattice.n)
    comps = []
    for c in bd.components:
        cls = c.cls.lift()
        if c.through_point:
            cls = cls - e_new
        comps.append(BranchComponent(c.name, cls, c.branch))
    out = BidoubleData(cfg.lattice, tuple(comps),
                       bd.L1.lift() - e_new, bd.L2.lift() - e_new,
                       l_provenance=bd.l_provenance)
    validate(out)
    return out


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
        if branch is not None:
            if not any(c.cls == cls for c in bd.components_of(branch)):
                raise ValueError(
                    f"no component of D{branch} has class {cls}")
    if total != pencil:
        raise ValueError(
            f"member sums to {total}, not to the pencil class {pencil}")
    double = all(branch is not None or mult % 2 == 0
                 for _, mult, branch in member)
    return 2 if double else 1


def count_double_fibres(bd: BidoubleData, pencil: DivisorClass,
                        cfg: PointConfiguration) -> int:
    """Number of double fibres of the conic bundle given by the pencil.

    Each branch component of the pencil's class is a general member (so two
    general members of the same pencil count twice).  A reducible member
    whose components all have branch classes counts once per choice of
    branch components for them, a component of coefficient a with m
    branch components of its class giving multichoose(m, a) choices; any
    other reducible member counts when its unbranched components all carry
    even multiplicity.  Raises ``ValueError`` unless the pencil is a conic
    bundle (F^2 = 0, K.F = -2, F nef), before any other work.
    """
    members = reducible_fibres(cfg, pencil)
    branched = Counter(c.cls for c in bd.components)
    count = branched[pencil]
    for member in members:
        if all(branched[e.cls] for e, _ in member):
            count += prod(comb(branched[e.cls] + a - 1, a) for e, a in member)
        elif all(branched[e.cls] or a % 2 == 0 for e, a in member):
            count += 1
    return count


@dataclass(frozen=True)
class BicanonicalDecomposition:
    """Character decomposition of the bicanonical space of the cover."""

    h0_invariant: int
    h0_characters: tuple[int, int, int]
    total: int                      # equals chi + K^2_minimal
    degree: int | None              # 2 when the map factors through gamma_i
    involution_index: int | None

    def to_dict(self) -> dict:
        return {
            "h0_invariant": self.h0_invariant,
            "h0_characters": list(self.h0_characters),
            "total": self.total,
            "degree": self.degree,
            "involution_index": self.involution_index,
        }


def analyse(bd: BidoubleData, cfg: PointConfiguration,
            pencil: DivisorClass | None = None,
            ) -> tuple[DivisorClass, InvariantReport, BicanonicalDecomposition]:
    """Validate the data once and compute every invariant of the cover.

    Returns (L_3, report, bicanonical decomposition).  Assumes the base is
    rational (chi(O)=1, p_g=0): p_g is the sum of h^0(K+L_i), and the
    bicanonical space splits into h^0(2K+D) and the character summands
    h^0(2K+D-L_i).  Their total must equal chi + K^2_minimal; a mismatch
    means the building data is inconsistent and raises
    :class:`InvariantConsistencyError`.  The map has degree 2 through the
    involution gamma_i exactly when one character summand is 1 and the
    other two vanish, the invariant part carrying the map.  With a pencil,
    its double fibres are counted as in :func:`count_double_fibres`.
    """
    l3 = validate(bd)
    ls = (bd.L1, bd.L2, l3)
    k = bd.lattice.canonical
    chi = 4 + sum((L.dot(L) + L.dot(k)) // 2 for L in ls)
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
    fibres = None if pencil is None else count_double_fibres(bd, pencil, cfg)
    report = InvariantReport(chi=chi, K2_cover=k2_cover, pg=pg, q=pg + 1 - chi,
                             contractions=contractions, K2_minimal=k2_minimal,
                             double_fibres=fibres, bicanonical_degree=degree,
                             involution_index=involution)
    return l3, report, BicanonicalDecomposition(inv, chars, total, degree,
                                                involution)


# ---------------------------------------------------------------------------
# scalar identities for double covers, etale covers and the slope bound


def double_cover_chi(L: DivisorClass) -> int:
    """chi of a double cover with data 2L = branch, over a base with chi=1."""
    s = L.dot(L) + L.dot(BlowupLattice(L.n).canonical)
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
