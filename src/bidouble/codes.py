"""Binary codes attached to disjoint nodal classes in a blowup lattice.

Given pairwise-orthogonal classes C_1, ..., C_k of self-intersection -2,
the code V is the kernel of the F_2-linear map sending (x_1, ..., x_k) to
sum x_i [C_i] in Pic/2Pic.  Since the mod-2 intersection form vanishes on
the image, that image is totally isotropic, which bounds its dimension by
half the lattice rank; on the geometric fixtures the weights of V are all
divisible by 4.

``de_code(s)`` builds the doubly-even code DE(s): the even-weight code of
length s pushed through the coordinate-doubling injection
(x_1, ..., x_s) -> (x_1, x_1, ..., x_s, x_s).
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import index, mul, or_
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .lattice import BlowupLattice

__all__ = [
    "NodalInputError",
    "EnumerationCapError",
    "BinaryCode",
    "code_of_classes",
    "weights",
    "is_doubly_even",
    "de_code",
    "isotropy_bound",
    "isotropy_bound_holds",
]

ENUMERATION_CAP = 20  # 2^20 ~ 1e6 elements


class NodalInputError(ValueError):
    """The input classes are not pairwise disjoint (-2)-classes."""


class EnumerationCapError(ValueError):
    """The code is too large to enumerate exactly."""


def _bits(row, length: int) -> int:
    """A 0/1 row (integral entries read mod 2) or an int as an F_2 vector,
    bit j for coordinate j."""
    if isinstance(row, int):
        if row < 0 or row >> length:
            raise ValueError(f"{row} is not a vector of length {length}")
        return row
    row = list(row)
    if len(row) != length:
        raise ValueError(f"row of length {len(row)}, expected {length}")
    return sum((index(b) & 1) << j for j, b in enumerate(row))


def _rref2(rows) -> list[int]:
    """Reduced row-echelon form over F_2, zero rows dropped.

    The pivot of a row is its lowest set bit; rows come out by increasing
    pivot, and each pivot bit is set in its own row only.
    """
    basis: list[int] = []
    for row in rows:
        for b in basis:
            if row & b & -b:
                row ^= b
        if row:
            pivot = row & -row
            basis = [b ^ row if b & pivot else b for b in basis]
            basis.append(row)
    return sorted(basis, key=lambda b: b & -b)


def _span(rows):
    """Every F_2 combination of the int ``rows``, in Gray-code order: one
    XOR per word."""
    word = 0
    yield word
    for i in range(1, 1 << len(rows)):
        word ^= rows[(i & -i).bit_length() - 1]
        yield word


class BinaryCode:
    """A subspace of F_2^k, stored by a reduced row-echelon generator matrix.

    ``generators`` holds its rows as ints, coordinate j in bit j.

    >>> BinaryCode(4, [[1, 1, 1, 1]]).dim
    1
    """

    def __init__(self, length: int, generators=()):
        self.length = index(length)
        if self.length < 0:
            raise ValueError(f"code length must be >= 0, not {self.length}")
        self.generators = _rref2(_bits(row, self.length) for row in generators)

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def appearing(self) -> int:
        """Number of coordinates appearing in some codeword: those where
        some generator is nonzero, the code being closed under addition."""
        return reduce(or_, self.generators, 0).bit_count()

    def elements(self):
        """Iterate over all 2^dim code words as 0/1 tuples (no cap check)."""
        for word in _span(self.generators):
            yield tuple(word >> j & 1 for j in range(self.length))

    def contains(self, vec) -> bool:
        return len(_rref2([*self.generators, _bits(vec, self.length)])) == self.dim

    def to_rows(self) -> list[list[int]]:
        return [[g >> j & 1 for j in range(self.length)] for g in self.generators]

    def __eq__(self, other) -> bool:
        return (isinstance(other, BinaryCode) and self.length == other.length
                and self.generators == other.generators)

    def __repr__(self) -> str:
        return f"BinaryCode(length={self.length}, dim={self.dim})"


def _check_nodal(classes, lat: BlowupLattice) -> None:
    for c in classes:
        if len(c.mults) != lat.n:
            raise NodalInputError("class does not live on the given lattice")
        if c.degree * c.degree - sum(map(mul, c.mults, c.mults)) != -2:
            raise NodalInputError(f"{c} has self-intersection {c.dot(c)}, not -2")
    for i, a in enumerate(classes):
        for b in classes[i + 1:]:
            if a.degree * b.degree != sum(map(mul, a.mults, b.mults)):
                raise NodalInputError(f"{a} and {b} are not disjoint")


def code_of_classes(classes, lat: BlowupLattice) -> BinaryCode:
    """Kernel of (x_1..x_k) -> sum x_i [C_i] in Pic/2Pic.

    Rejects inputs that are not pairwise-disjoint (-2)-classes.
    """
    classes = list(classes)
    _check_nodal(classes, lat)
    # augmented rows: image of C_j in bits 0..n, then bit n+1+j; the reduced
    # rows whose image part vanishes span the kernel
    shift = lat.rank
    rows = _rref2(sum((x & 1) << i for i, x in enumerate((c.degree, *c.mults)))
                  | 1 << (shift + j) for j, c in enumerate(classes))
    kernel = [row >> shift for row in rows if not row & ((1 << shift) - 1)]
    return BinaryCode(len(classes), kernel)


def weights(code: BinaryCode) -> Counter:
    """Multiset of codeword weights, exact, keys in ascending order.

    Word m, the sum of the generators picked by the bits of m, is 1 at j
    when <m, c_j> is odd, c_j being the column of generator bits at j, so
    the weights depend on the multiset of columns alone.  Bit-sliced
    (Biham 1997): each distinct column becomes a 2^dim-bit int, bit m for
    word m (the XOR of its generators' masks), added with its multiplicity
    into planes of weight bits by carry-save (Harley-Seal): two words may
    wait on a plane, a third makes a full adder that carries one plane up,
    and one ripple of full adders adds the waiting words in at the end.
    The all-ones mask is split through the planes, top plane first, and
    each leaf's popcount counts the words of one weight.  Memory: dim
    masks and two words per plane, then the planes and the split's stack,
    2^dim bits each (5.2 MiB at dim 20, length 400).

    Raises EnumerationCapError when the dimension passes ENUMERATION_CAP.

    >>> dict(weights(BinaryCode(8, [0b11111111, 0b00001111])))
    {0: 1, 4: 2, 8: 1}
    """
    if code.dim > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"dim {code.dim} exceeds the enumeration cap {ENUMERATION_CAP}")
    masks = []  # bit m of masks[i]: bit i of m
    for h in (1 << i for i in range(code.dim)):  # masks of h bits to 2h bits
        masks = [m | m << h for m in masks] + [(1 << 2 * h) - (1 << h)]
    columns = [0] * code.length  # bit i of columns[j]: bit j of generator i
    for i, g in enumerate(code.generators):
        while g:
            columns[(g & -g).bit_length() - 1] |= 1 << i
            g &= g - 1
    planes = [0] * code.length.bit_length()  # bit m of planes[p]: bit p of wt(m)
    waiting = planes.copy()  # a second word on plane p, not yet added
    for column, mult in Counter(columns).items():
        x = 0  # bit m: coordinate of word m
        while column:
            x ^= masks[(column & -column).bit_length() - 1]
            column &= column - 1
        for p in range(mult.bit_length()):
            carry, q = (x if mult >> p & 1 else 0), p
            while carry:  # a third word on a plane makes a full adder
                a, b = planes[q], waiting[q]
                if not b:
                    waiting[q] = carry
                    break
                planes[q], waiting[q] = a ^ b ^ carry, 0
                carry, q = a & b | (a ^ b) & carry, q + 1
    carry = 0  # one ripple of full adders adds the waiting words in
    for p, b in enumerate(waiting):  # no weight passes the top plane
        a = planes[p]
        planes[p], carry = a ^ b ^ carry, a & b | (a ^ b) & carry
    del masks, waiting  # the split needs the planes alone
    counts = Counter()

    def split(mask, p, weight):
        if mask and p < 0:
            counts[weight] = mask.bit_count()
        elif mask:
            high = mask & planes[p]
            split(mask ^ high, p - 1, weight)
            split(high, p - 1, weight | 1 << p)

    split((1 << (1 << code.dim)) - 1, len(planes) - 1, 0)
    return counts


def is_doubly_even(code: BinaryCode) -> bool:
    """True iff every codeword weight is divisible by 4.

    Since wt(a + b) = wt(a) + wt(b) - 2 wt(a & b), this holds exactly when
    every generator has weight 0 mod 4 and every two generators overlap in
    an even number of coordinates (MacWilliams & Sloane, ch. 1).
    """
    gens = code.generators
    return (all(g.bit_count() % 4 == 0 for g in gens)
            and all((a & b).bit_count() % 2 == 0
                    for i, a in enumerate(gens) for b in gens[i + 1:]))


def de_code(s: int) -> BinaryCode:
    """The doubly-even code DE(s) of length 2s and dimension s-1.

    >>> sorted(sum(v) for v in de_code(2).elements())
    [0, 4]
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    # generator i is 1 at coordinates 2i, 2i+1, 2i+2, 2i+3
    return BinaryCode(2 * s, [0b1111 << 2 * i for i in range(s - 1)])


def isotropy_bound(code: BinaryCode, picard_rank: int):
    """Two sides of 2*dim(image) <= picard_rank, plus whether it holds.

    For a code of length k, dim(image) = k - dim(kernel); this is the
    total-isotropy bound for the mod-2 intersection form.
    """
    lhs = 2 * (code.length - code.dim)
    return lhs, picard_rank, lhs <= picard_rank


def isotropy_bound_holds(classes, lat: BlowupLattice):
    """Isotropy bound for the code of the given nodal classes."""
    code = code_of_classes(classes, lat)
    return isotropy_bound(code, lat.rank)
