"""Exact divisor-class arithmetic on blowups of the projective plane.

The Picard lattice of P^2 blown up at n points has basis l, e_1, ..., e_n
with l.l = 1, e_i.e_i = -1 and all mixed products zero.  A class is stored
as the integer vector (d; m_1, ..., m_n), standing for d*l - sum_i m_i e_i,
so the strict transform of a plane curve of degree d with an ordinary point
of multiplicity m_i at the i-th centre has all entries non-negative.  The
canonical class is (-3; -1, ..., -1), i.e. -3l + e_1 + ... + e_n.

Everything here is exact: classes are tuples of Python integers, so there
is no floating point and no overflow anywhere.  ``Record`` is the
``__slots__`` base of these classes and of every other record of the
package.
"""

from __future__ import annotations

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


class Record:
    """Base of the package's records.  The names in ``__slots__`` are the
    fields, in order (a trailing ``"__dict__"`` only holds the values of
    ``cached_property`` attributes).  The constructor sets each field once
    with ``_set``; equality, hash, repr and pickling go by the fields, and
    ``replace`` copies a record through its constructor, checks included."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = tuple(n for n in cls.__slots__ if n != "__dict__")
        cls._setters = tuple(getattr(cls, n).__set__ for n in cls._names)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _set(self, *values) -> None:
        # the slots' own setters: about twice as fast as object.__setattr__
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self._names))

    def _asdict(self) -> dict:
        return dict(zip(self._names, self._fields()))

    def replace(self, **changes):
        """A copy with some fields changed, validated like a new record."""
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = map("{}={!r}".format, self._names, self._fields())
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._fields()


class DivisorClass(Record):
    """The class ``degree*l - sum(mults[i-1]*e_i)`` on an n-point blowup.

    >>> f1 = DivisorClass(2, (0, 1, 0, 1, 1, 1))
    >>> d1 = DivisorClass(1, (1, 0, 1, 0, 0, 0))
    >>> f1.dot(d1), f1.dot(f1)
    (2, 0)
    """

    __slots__ = ("degree", "mults")

    def __new__(cls, degree: int, mults: tuple[int, ...]):
        # operator.index accepts exactly the integral types: a float or a
        # rational raises TypeError instead of being truncated
        return cls._of(index(degree), tuple(map(index, mults)))

    @classmethod
    def _of(cls, degree: int, mults: tuple[int, ...]) -> "DivisorClass":
        """Build a class from entries that are already ints, unvalidated."""
        out = object.__new__(cls)
        set_degree, set_mults = cls._setters
        set_degree(out, degree)
        set_mults(out, mults)
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
        if len(self.mults) != len(other.mults):
            self._same_rank(other)
        return DivisorClass._of(self.degree + other.degree,
                                tuple(map(add, self.mults, other.mults)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if len(self.mults) != len(other.mults):
            self._same_rank(other)
        return DivisorClass._of(self.degree - other.degree,
                                tuple(map(sub, self.mults, other.mults)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass._of(-self.degree, tuple(map(neg, self.mults)))

    def __mul__(self, k: int) -> "DivisorClass":
        k = index(k)
        return DivisorClass._of(k * self.degree, tuple([k * m for m in self.mults]))

    __rmul__ = __mul__

    def dot(self, other: "DivisorClass") -> int:
        """Intersection product d*d' - sum m_i*m_i'."""
        if len(self.mults) != len(other.mults):
            self._same_rank(other)
        return self.degree * other.degree - sum(map(mul, self.mults, other.mults))

    def lift(self) -> "DivisorClass":
        """Total-transform class on a lattice with one more point."""
        return DivisorClass._of(self.degree, self.mults + (0,))

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


class BlowupLattice(Record):
    """Picard lattice of P^2 blown up at ``n`` distinct points."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if not hasattr(n, "__index__"):  # what operator.index accepts
            raise ValueError(f"number of exceptional classes {n!r} is no integer")
        if index(n) < 0:
            raise ValueError("number of exceptional classes must be >= 0")
        self._set(index(n))

    @property
    def rank(self) -> int:
        return 1 + self.n

    @property
    def zero(self) -> DivisorClass:
        return DivisorClass._of(0, (0,) * self.n)

    @property
    def line(self) -> DivisorClass:
        return DivisorClass._of(1, (0,) * self.n)

    def exceptional(self, i: int) -> DivisorClass:
        """The class e_i, 1-based."""
        if not 1 <= i <= self.n:
            raise ValueError(f"exceptional index {i} out of range 1..{self.n}")
        return DivisorClass._of(0, tuple(-1 if j == i else 0
                                         for j in range(1, self.n + 1)))

    @property
    def canonical(self) -> DivisorClass:
        """K = -3l + e_1 + ... + e_n."""
        return DivisorClass._of(-3, (-1,) * self.n)

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
    s = d.dot(d) + sum(d.mults) - 3 * d.degree  # K.D = -3d + sum(m_i)
    assert s % 2 == 0, "adjunction parity violated"
    return s // 2 + 1


def riemann_roch_chi(d: DivisorClass) -> int:
    """chi(D) = chi(O) + D(D-K)/2 with chi(O) = 1 (rational surface)."""
    s = d.dot(d) - sum(d.mults) + 3 * d.degree
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
