"""Independent routes to the package's numbers, which the tests compare it
with: ``interpolation_dimension`` (exact rank of the integer interpolation
matrix at arbitrary rational points) against ``plane.h0_class``, the
catalogue search ``effective_decompositions`` against
``plane.reducible_fibres``, and the argparse parser ``_build_parser``
that the command line used to have against ``cli._parse``."""

from __future__ import annotations

import argparse
import functools
from math import gcd, lcm

from bidouble.cli import SCENARIO_NAMES
from bidouble.lattice import DivisorClass
from bidouble.plane import Point, PointConfiguration


def _integral(p) -> Point:
    """The point ``p`` (rational homogeneous coordinates) as coprime integers."""
    scale = lcm(*(c.denominator for c in p))
    coords = [c.numerator * (scale // c.denominator) for c in p]
    g = gcd(*coords) or 1
    return tuple(c // g for c in coords)


def _monomials(degree: int) -> list[tuple[int, int, int]]:
    return [(a, b, degree - a - b)
            for a in range(degree, -1, -1)
            for b in range(degree - a, -1, -1)]


_PRIME = 2**61 - 1


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


def _bounded_decompositions(pos_atoms, exc_atoms, target: DivisorClass,
                            cap: int):
    """All ways to write ``target`` as a non-negative combination of atoms.

    ``pos_atoms`` are (name, class) pairs of positive degree, ``exc_atoms``
    maps a 0-based point index to the name of the pure exceptional class
    available for it.  ``cap`` bounds the number of positive-degree
    components counted with multiplicity.  Returns the sorted list of
    decompositions.
    """
    results = []

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
        if rem.degree == 0:
            finish(rem, chosen)
            return
        if i == len(pos_atoms):
            return
        name, cls = pos_atoms[i]
        top = min(rem.degree // cls.degree, cap - used)
        for c in range(top + 1):
            search(i + 1, rem - c * cls, used + c,
                   chosen + [(name, c)] if c else chosen)

    search(0, target, 0, [])
    return sorted(set(results))


def effective_decompositions(cfg: PointConfiguration, d: DivisorClass):
    """Every way to write ``d`` as a non-negative sum of catalogued classes.

    A brute-force search over ``cfg.entries``, so it is complete only
    relative to the catalogue: a curve that is not catalogued (such as the
    line l-e3-e7 on the P7 blowup) never appears.  ``reducible_fibres``
    lists the members of a conic bundle over every negative curve instead;
    this oracle is the reference the tests compare it with.

    Returns a sorted list of multisets, each a tuple of (name, coefficient)
    pairs.  At most ``d.degree`` positive-degree components are used, which
    is exhaustive since every positive-degree atom has degree >= 1.
    """
    if d.n != cfg.lattice.n:
        raise ValueError("class does not live on the configuration's lattice")
    pos = [(e.name, e.cls) for e in cfg.entries if e.cls.degree >= 1]
    pos.sort(key=lambda t: (-t[1].degree, t[0]))
    exc = {}
    for e in cfg.entries:
        if e.kind == "exceptional":
            # e_i has m_i = -1 at exactly one position
            j = next(k for k, m in enumerate(e.cls.mults) if m == -1)
            exc[j] = e.name
    return _bounded_decompositions(pos, exc, d, max(d.degree, 0))


def sum_of_decomposition(cfg: PointConfiguration, decomposition) -> DivisorClass:
    """Re-sum a decomposition; used as the exactness oracle in tests."""
    total = cfg.lattice.zero
    for name, coeff in decomposition:
        total = total + coeff * cfg.cls(name)
    return total


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line, not the usage; exits 2
        self.exit(2, f"error: {' '.join(message.splitlines())}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bidouble",
        description="exact verification scenarios for bidouble-cover "
                    "constructions over the plane quadrilateral")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a pinned verification scenario")
    p.add_argument("scenario", choices=(*SCENARIO_NAMES, "all"))
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("custom", help="run the pipeline on a cover document")
    p.add_argument("path")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("h0", help="dimension of a fat-point linear system")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--mults", required=True,
                   help="comma-separated multiplicities at P1, P2, ...")
    p.add_argument("--with-p7", action="store_true")
    p.add_argument("--general-point", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("code", help="binary code of a nodal-class fixture")
    p.add_argument("--fixture", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    return parser
