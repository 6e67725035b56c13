"""Planar lattices in closed form, and the column Hermite normal form.

A full-rank sublattice of Z^2 is kept on its canonical basis ((p, q), (0, r)):
(x, y) lies in it iff p divides x and y = (x / p) q mod r.  Two of them
intersect in closed form, by a gcd for p and the Chinese remainder theorem
for q.  Column-style Hermite normal forms of integer matrices, with their
unimodular transformations, are for `reproduce`.  Everything is exact
integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from operator import index


class RankError(ValueError):
    """The input matrix does not have the rank required by the operation."""


def hnf(rows):
    """Column-style Hermite normal form: H = M @ U with U unimodular.

    M is given by its integer rows, of equal length; H and U are returned
    as tuples of rows.  H is lower triangular with positive pivots on the
    diagonal; in each pivot row the entries to the left are reduced into
    [0, pivot).  Requires full row rank; raises RankError otherwise.
    """
    M = tuple(tuple(map(index, row)) for row in rows)
    d, n = len(M), len(M[0]) if M else 0
    if any(len(row) != n for row in M):
        raise ValueError("rows of unequal length")
    if d > n:
        raise RankError("matrix does not have full row rank")
    cols = [list(col) for col in zip(*M)]
    ucols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]

    def combine(j, q, i):
        # col_j -= q * col_i, in both the working matrix and the transform
        cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
        ucols[j] = [a - q * b for a, b in zip(ucols[j], ucols[i])]

    for i in range(d):
        while True:
            nz = [j for j in range(i, n) if cols[j][i] != 0]
            if not nz:
                raise RankError("matrix does not have full row rank")
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            if j0 != i:
                cols[i], cols[j0] = cols[j0], cols[i]
                ucols[i], ucols[j0] = ucols[j0], ucols[i]
            if cols[i][i] < 0:
                cols[i] = [-a for a in cols[i]]
                ucols[i] = [-a for a in ucols[i]]
            clean = True
            for j in range(i + 1, n):
                if cols[j][i] != 0:
                    combine(j, cols[j][i] // cols[i][i], i)
                    if cols[j][i] != 0:
                        clean = False
            if clean:
                break
        for j in range(i):
            q = cols[j][i] // cols[i][i]
            if q:
                combine(j, q, i)
    return tuple(zip(*cols)), tuple(zip(*ucols))


@dataclass(frozen=True)
class Lattice:
    """Full-rank sublattice of Z^2 with the canonical basis ((p, q), (0, r)).

    `basis` holds the column vectors (p, q) and (0, r), with p, r > 0 and
    0 <= q < r, so equal lattices always carry identical bases; any other
    basis raises ValueError.  The box [0, p) x [0, r) holds exactly one
    point of every residue class, its canonical representative.
    """

    basis: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        (p, q), (zero, r) = self.basis
        p, q, zero, r = map(index, (p, q, zero, r))
        if zero != 0 or p <= 0 or r <= 0 or not 0 <= q < r:
            raise ValueError(
                f"lattice basis {self.basis} is not ((p, q), (0, r)) with p, r > 0 and 0 <= q < r"
            )
        object.__setattr__(self, "basis", ((p, q), (0, r)))

    @property
    def det(self) -> int:
        """The index of the lattice in Z^2: its number of residue classes."""
        (p, _), (_, r) = self.basis
        return p * r

    def _residue(self, x: int, y: int) -> tuple[int, int]:
        """Canonical representative of (x, y); integers only, not coerced."""
        (p, q), (_, r) = self.basis
        return x % p, (y - x // p * q) % r

    def reduce(self, v) -> tuple[int, int]:
        """Canonical representative of v modulo the lattice."""
        x, y = map(index, v)
        return self._residue(x, y)

    def contains(self, v) -> bool:
        return self.reduce(v) == (0, 0)

    @property
    def row_period(self) -> int:
        """The least m > 0 with (m, 0) in the lattice."""
        (p, q), (_, r) = self.basis
        return p * r // gcd(q, r)

    def residues(self) -> tuple[tuple[int, int], ...]:
        """All det-many canonical representatives, in box order."""
        (p, _), (_, r) = self.basis
        return tuple(itertools.product(range(p), range(r)))


def lattice_intersect(L1: Lattice, L2: Lattice) -> Lattice:
    """Exact intersection of two planar lattices, in closed form.

    A common point has x = k P, P = lcm(p1, p2), and y = k (P/p1) q1 mod r1
    and y = k (P/p2) q2 mod r2.  These agree mod G = gcd(r1, r2) iff
    G / gcd(c, G) divides k, c = (P/p1) q1 - (P/p2) q2.  So p = P G / gcd(c, G),
    r = lcm(r1, r2), and q solves y = (p/p1) q1 mod r1 and y = (p/p2) q2 mod r2.
    """
    (p1, q1), (_, r1) = L1.basis
    (p2, q2), (_, r2) = L2.basis
    P, G = lcm(p1, p2), gcd(r1, r2)
    p = P * G // gcd(P // p1 * q1 - P // p2 * q2, G)
    y1, y2 = p // p1 * q1, p // p2 * q2
    # y1 = y2 mod G, so y1 + r1 s solves both for (r1/G) s = (y2 - y1)/G mod r2/G
    s = (y2 - y1) // G * pow(r1 // G, -1, r2 // G)
    r = r1 // G * r2
    return Lattice(basis=((p, (y1 + r1 * s) % r), (0, r)))
