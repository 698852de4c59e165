"""Exact divisor-class arithmetic on blowups of the projective plane.

The Picard lattice of P^2 blown up at n points has basis l, e_1, ..., e_n
with l.l = 1, e_i.e_i = -1 and all mixed products zero.  A class is stored
as the integer vector (d; m_1, ..., m_n), standing for d*l - sum_i m_i e_i,
so the strict transform of a plane curve of degree d with an ordinary point
of multiplicity m_i at the i-th centre has all entries non-negative.  The
canonical class is (-3; -1, ..., -1), i.e. -3l + e_1 + ... + e_n.

Everything here is exact: classes are tuples of Python integers, so there
is no floating point and no overflow anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import add, index, mul, neg, sub

__all__ = [
    "LatticeMismatchError",
    "DivisorClass",
    "BlowupLattice",
    "arithmetic_genus",
    "riemann_roch_chi",
    "castelnuovo_bound",
]


class LatticeMismatchError(ValueError):
    """Classes living on lattices of different rank were combined."""


@dataclass(frozen=True)
class DivisorClass:
    """The class ``degree*l - sum(mults[i-1]*e_i)`` on an n-point blowup.

    >>> f1 = DivisorClass(2, (0, 1, 0, 1, 1, 1))
    >>> d1 = DivisorClass(1, (1, 0, 1, 0, 0, 0))
    >>> f1.dot(d1), f1.dot(f1)
    (2, 0)
    """

    degree: int
    mults: tuple[int, ...]

    def __post_init__(self):
        # operator.index accepts exactly the integral types: 1.9 or
        # Fraction(1, 2) raise TypeError instead of being truncated
        object.__setattr__(self, "degree", index(self.degree))
        object.__setattr__(self, "mults", tuple(map(index, self.mults)))

    @classmethod
    def _of(cls, degree: int, mults: tuple[int, ...]) -> "DivisorClass":
        """Build a class from entries that are already ints, unvalidated."""
        out = object.__new__(cls)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "mults", mults)
        return out

    @property
    def n(self) -> int:
        return len(self.mults)

    @property
    def rank(self) -> int:
        return 1 + len(self.mults)

    def _same_rank(self, other: "DivisorClass") -> None:
        if len(self.mults) != len(other.mults):
            raise LatticeMismatchError(
                f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_rank(other)
        return DivisorClass._of(self.degree + other.degree,
                                tuple(map(add, self.mults, other.mults)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._same_rank(other)
        return DivisorClass._of(self.degree - other.degree,
                                tuple(map(sub, self.mults, other.mults)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass._of(-self.degree, tuple(map(neg, self.mults)))

    def __mul__(self, k: int) -> "DivisorClass":
        k = index(k)
        return DivisorClass._of(k * self.degree, tuple(k * m for m in self.mults))

    __rmul__ = __mul__

    def dot(self, other: "DivisorClass") -> int:
        """Intersection product d*d' - sum m_i*m_i'."""
        self._same_rank(other)
        return self.degree * other.degree - sum(map(mul, self.mults, other.mults))

    def mod2(self) -> tuple[int, ...]:
        """Coefficient vector of the class in Pic/2Pic, length 1+n."""
        return (self.degree % 2,) + tuple(m % 2 for m in self.mults)

    def lift(self, extra: int = 1) -> "DivisorClass":
        """Total-transform class on a lattice with ``extra`` more points."""
        return DivisorClass._of(self.degree, self.mults + (0,) * extra)

    def to_vector(self) -> list[int]:
        return [self.degree, *self.mults]

    @classmethod
    def from_vector(cls, vec) -> "DivisorClass":
        vec = tuple(map(index, vec))
        if not vec:
            raise ValueError("empty class vector")
        return cls._of(vec[0], vec[1:])

    def __str__(self) -> str:
        terms = []
        if self.degree:
            terms.append(f"{self.degree}l" if self.degree != 1 else "l")
        for i, m in enumerate(self.mults, start=1):
            if m == 0:
                continue
            coeff = "" if abs(m) == 1 else str(abs(m))
            terms.append(("-" if m > 0 else "+") + coeff + f"e{i}")
        if not terms:
            return "0"
        out = "".join(terms)
        return out[1:] if out.startswith("+") else out


@dataclass(frozen=True)
class BlowupLattice:
    """Picard lattice of P^2 blown up at ``n`` distinct points."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("number of exceptional classes must be >= 0")

    @property
    def rank(self) -> int:
        return 1 + self.n

    @property
    def zero(self) -> DivisorClass:
        return DivisorClass(0, (0,) * self.n)

    @property
    def line(self) -> DivisorClass:
        return DivisorClass(1, (0,) * self.n)

    def exceptional(self, i: int) -> DivisorClass:
        """The class e_i, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"exceptional index {i} out of range 1..{self.n}")
        return DivisorClass(0, tuple(-1 if j == i else 0
                                     for j in range(1, self.n + 1)))

    @property
    def canonical(self) -> DivisorClass:
        """K = -3l + e_1 + ... + e_n."""
        return DivisorClass(-3, (-1,) * self.n)

    def blow_up(self) -> "BlowupLattice":
        """Lattice after one more blowup; old classes lift via .lift()."""
        return BlowupLattice(self.n + 1)

    def lift(self, cls: DivisorClass) -> DivisorClass:
        if cls.n != self.n - 1:
            raise LatticeMismatchError(
                f"cannot lift a class with {cls.n} mults to an n={self.n} lattice")
        return cls.lift()

    def from_vector(self, vec) -> DivisorClass:
        cls = DivisorClass.from_vector(vec)
        if cls.n != self.n:
            raise LatticeMismatchError(
                f"class vector has {cls.n} mults, lattice has {self.n}")
        return cls


def arithmetic_genus(d: DivisorClass) -> int:
    """p_a(D) = D(D+K)/2 + 1 via the adjunction formula.

    >>> arithmetic_genus(DivisorClass(0, (0,) * 6))
    1
    """
    s = d.dot(d) + d.dot(BlowupLattice(d.n).canonical)
    assert s % 2 == 0, "adjunction parity violated"
    return s // 2 + 1


def riemann_roch_chi(d: DivisorClass) -> int:
    """chi(D) = chi(O) + D(D-K)/2 with chi(O) = 1 (rational surface)."""
    s = d.dot(d) - d.dot(BlowupLattice(d.n).canonical)
    assert s % 2 == 0
    return 1 + s // 2


def castelnuovo_bound(d: int, r: int) -> int:
    """Maximal genus of a non-degenerate degree-d curve in P^r.

    pi(d, r) = binom(m, 2)*(r-1) + m*eps with m = (d-1)//(r-1) and
    eps = d-1-m*(r-1).

    >>> castelnuovo_bound(8, 5)
    3
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if r < 3:
        raise ValueError("ambient projective dimension must be >= 3")
    m, eps = divmod(d - 1, r - 1)
    return comb(m, 2) * (r - 1) + m * eps
