"""Planar lattices and the column Hermite normal form.

Column-style Hermite normal forms of integer matrices with their unimodular
transformations, and full-rank sublattices of Z^2 with canonical triangular
bases, their residue classes and intersections.  Everything is exact
integer arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
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


def lattice_from_columns(vectors) -> Lattice:
    """Integer span of the given planar vectors; they must span Q^2."""
    vecs = [tuple(index(x) for x in v) for v in vectors]
    if not vecs:
        raise RankError("no generators")
    if any(len(v) != 2 for v in vecs):
        raise ValueError("lattice generators must have two coordinates")
    H, _ = hnf(zip(*vecs))  # RankError when the span is a line
    return Lattice(basis=((H[0][0], H[1][0]), (0, H[1][1])))


def lattice_intersect(L1: Lattice, L2: Lattice) -> Lattice:
    """Exact intersection of two planar lattices."""
    (p, q), (_, r) = L1.basis
    gen = list(L1.basis) + [(-x, -y) for x, y in L2.basis]
    H, U = hnf(zip(*gen))
    # the columns of U under zero columns of H span the relations between
    # the generators; their L1 halves give the common vectors
    vectors = [
        (a * p, a * q + b * r)
        for (a, b, _, _), h in zip(zip(*U), zip(*H))
        if h == (0, 0)
    ]
    return lattice_from_columns(vectors)
