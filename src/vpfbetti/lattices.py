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


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, stored row-major."""

    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        data = tuple(tuple(index(x) for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("rows of unequal length")
        return cls(data)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)


def hnf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form: H = M @ U with U unimodular.

    H is lower triangular with positive pivots on the diagonal; in each pivot
    row the entries to the left are reduced into [0, pivot).  Requires full
    row rank; raises RankError otherwise.
    """
    d, n = M.rows, M.cols
    if d > n:
        raise RankError("matrix does not have full row rank")
    cols = [list(M.column(j)) for j in range(n)]
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
    H = IntMatrix(tuple(tuple(cols[j][i] for j in range(n)) for i in range(d)))
    U = IntMatrix(tuple(tuple(ucols[j][i] for j in range(n)) for i in range(n)))
    return H, U


@dataclass(frozen=True)
class Lattice:
    """Full-rank sublattice of Z^2 with the canonical basis ((p, q), (0, r)).

    `basis` holds the column vectors (p, q) and (0, r), with p, r > 0 and
    0 <= q < r, so equal lattices always carry identical bases.  The box
    [0, p) x [0, r) holds exactly one point of every residue class, its
    canonical representative.
    """

    basis: tuple[tuple[int, int], tuple[int, int]]
    det: int

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
    H, _ = hnf(IntMatrix.from_rows(zip(*vecs)))  # RankError when the span is a line
    p, q, r = H.entries[0][0], H.entries[1][0], H.entries[1][1]
    return Lattice(basis=((p, q), (0, r)), det=p * r)


def lattice_intersect(L1: Lattice, L2: Lattice) -> Lattice:
    """Exact intersection of two planar lattices."""
    (p, q), (_, r) = L1.basis
    gen = list(L1.basis) + [(-x, -y) for x, y in L2.basis]
    H, U = hnf(IntMatrix.from_rows(zip(*gen)))
    # the columns of U under zero columns of H span the relations between
    # the generators; their L1 halves give the common vectors
    vectors = [
        (a * p, a * q + b * r)
        for j, (a, b, _, _) in enumerate(zip(*U.entries))
        if H.column(j) == (0, 0)
    ]
    return lattice_from_columns(vectors)
