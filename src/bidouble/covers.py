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
summands h^0(2K+D-L_i).

Each smooth rational branch component G in D_i is covered by a double
cover branched at b = G.(D_j + D_k) points: for b = 0 it splits into two
disjoint curves of self-intersection G^2/2 (the (-1)-pairs among these are
contracted to reach the minimal model), for b > 0 it stays irreducible of
genus b/2 - 1 with self-intersection G^2.

A member of a square-zero pencil pulls back with multiplicity 2 exactly
when each of its components is either a branch component or carries even
multiplicity; counting such members over the decomposition oracle yields
the number of double fibres.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .lattice import DivisorClass, BlowupLattice
from .plane import (PointConfiguration, _decompositions_with_flag, h0_class,
                    _bounded_decompositions)

__all__ = [
    "RelationError",
    "IncidenceError",
    "DepthExhaustedError",
    "InvariantConsistencyError",
    "BranchComponent",
    "BidoubleData",
    "BranchPreimage",
    "InvariantReport",
    "BicanonicalDecomposition",
    "validate",
    "branch_preimage",
    "contraction_count",
    "bidouble_invariants",
    "resolve_111",
    "fibre_multiplicity",
    "count_double_fibres",
    "bicanonical_decomposition",
    "full_report",
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
    """The incidence pattern at the marked point is not (1,1,1)."""


class DepthExhaustedError(RuntimeError):
    """The decomposition oracle hit its depth bound; the member list may be
    incomplete."""


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
    """Check both cover relations exactly and return the derived L_3.

    On failure raises :class:`RelationError` listing each violated relation
    with the offending residue class.
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
    comp = bd.component(name)
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
    return sum(branch_preimage(bd, c.name).contracted for c in bd.components)


@dataclass(frozen=True)
class InvariantReport:
    """Numerical invariants of the cover and of its minimal model."""

    chi: int
    K2_cover: int
    pg: int
    q: int
    contractions: int
    K2_minimal: int
    double_fibres: int | None = None
    bicanonical_degree: int | None = None
    involution_index: int | None = None

    def to_dict(self) -> dict:
        return {
            "chi": self.chi,
            "K2_cover": self.K2_cover,
            "pg": self.pg,
            "q": self.q,
            "contractions": self.contractions,
            "K2_minimal": self.K2_minimal,
            "double_fibres": self.double_fibres,
            "bicanonical_degree": self.bicanonical_degree,
            "involution_index": self.involution_index,
        }


def bidouble_invariants(bd: BidoubleData, cfg: PointConfiguration) -> InvariantReport:
    """chi, K^2 of the cover, p_g, q and the contraction bookkeeping.

    Assumes the base is rational (chi(O)=1, p_g=0); h^0(K+L_i) is delegated
    to the interpolation machinery.
    """
    l3 = validate(bd)
    k = bd.lattice.canonical
    chi = 4 + sum((L.dot(L) + L.dot(k)) // 2 for L in (bd.L1, bd.L2, l3))
    pg = sum(h0_class(cfg, k + L) for L in (bd.L1, bd.L2, l3))
    q = pg + 1 - chi
    m = 2 * k + bd.branch_total
    k2_cover = m.dot(m)
    contractions = contraction_count(bd)
    return InvariantReport(chi=chi, K2_cover=k2_cover, pg=pg, q=q,
                           contractions=contractions,
                           K2_minimal=k2_cover + contractions)


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


def _branch_members(bd: BidoubleData, pencil: DivisorClass):
    """Multisets of branch components (by name) summing to the pencil class."""
    pos = sorted(((c.name, c.cls) for c in bd.components if c.cls.degree >= 1),
                 key=lambda t: (-t[1].degree, t[0]))
    exc = {}
    for c in bd.components:
        if c.cls.degree == 0:
            mults = c.cls.mults
            if sum(1 for m in mults if m) == 1 and min(mults) == -1:
                exc[mults.index(-1)] = c.name
    members, _ = _bounded_decompositions(pos, exc, pencil, cap=max(pencil.degree, 0))
    return members


def count_double_fibres(bd: BidoubleData, pencil: DivisorClass,
                        cfg: PointConfiguration,
                        max_components: int | None = None) -> int:
    """Number of double fibres of the fibration induced by the pencil.

    Fully-branched members are enumerated from the branch components
    themselves (so two general members of the same pencil count twice);
    degenerate members with unbranched components come from the effective
    decomposition oracle and qualify when the unbranched parts all carry
    even multiplicity.
    """
    if pencil.dot(pencil) != 0:
        raise ValueError("pencil class must have self-intersection 0")
    count = len(_branch_members(bd, pencil))
    decs, capped = _decompositions_with_flag(cfg, pencil, max_components)
    if capped:
        raise DepthExhaustedError(
            "decomposition search hit its depth bound; raise max_components")
    branch_classes = [c.cls for c in bd.components]
    for dec in decs:
        parts = [(cfg.cls(name), coeff) for name, coeff in dec]
        if all(cls in branch_classes for cls, _ in parts):
            continue  # already counted among the fully-branched members
        if all(cls in branch_classes or coeff % 2 == 0 for cls, coeff in parts):
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


def bicanonical_decomposition(bd: BidoubleData,
                              cfg: PointConfiguration) -> BicanonicalDecomposition:
    """h^0(2K+D) and the three character summands h^0(2K+D-L_i).

    The total must equal chi + K^2_minimal; a mismatch means the building
    data is inconsistent and raises.  The map has degree 2 through the
    involution gamma_i exactly when one character summand is 1 and the
    other two vanish, the invariant part carrying the map.
    """
    l3 = validate(bd)
    m = 2 * bd.lattice.canonical + bd.branch_total
    inv = h0_class(cfg, m)
    chars = tuple(h0_class(cfg, m - L) for L in (bd.L1, bd.L2, l3))
    total = inv + sum(chars)
    rep = bidouble_invariants(bd, cfg)
    p2 = rep.chi + rep.K2_minimal
    if total != p2:
        raise InvariantConsistencyError(
            f"bicanonical summands total {total}, but chi + K2_minimal = {p2}")
    degree = involution = None
    if sorted(chars) == [0, 0, 1]:
        degree = 2
        involution = chars.index(1) + 1
    return BicanonicalDecomposition(inv, chars, total, degree, involution)


def full_report(bd: BidoubleData, cfg: PointConfiguration,
                pencil: DivisorClass | None = None,
                max_components: int | None = None) -> InvariantReport:
    """Invariants plus fibre count and bicanonical data in a single report."""
    rep = bidouble_invariants(bd, cfg)
    bic = bicanonical_decomposition(bd, cfg)
    fibres = None
    if pencil is not None:
        fibres = count_double_fibres(bd, pencil, cfg, max_components)
    return replace(rep, double_fibres=fibres,
                   bicanonical_degree=bic.degree,
                   involution_index=bic.involution_index)


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
