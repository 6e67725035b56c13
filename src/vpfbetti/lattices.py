"""Exact integer and rational linear algebra.

Column-style Hermite normal forms with their unimodular transformations,
full-rank integer lattices with canonical triangular bases, quotient
residues, and exact linear solving over Q.  Everything is arbitrary
precision; no floating point is used anywhere in this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.entries)) if other.entries else []
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.entries
            )
        )

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        prev = 1
        sign = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def rank(self) -> int:
        """Exact rank over Q."""
        return len(rref(self.entries)[1])


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
    """Full-rank sublattice of Z^d with a canonical lower-triangular basis.

    `basis` holds column vectors; column i has its first nonzero entry (a
    positive pivot) at coordinate i, and entries left of each pivot are
    reduced, so equal lattices always carry identical bases.
    """

    dim: int
    basis: tuple[tuple[int, ...], ...]
    det: int

    def reduce(self, v) -> tuple[int, ...]:
        """Canonical representative of v modulo the lattice."""
        w = [index(x) for x in v]
        if len(w) != self.dim:
            raise ValueError("dimension mismatch")
        for i in range(self.dim):
            q = w[i] // self.basis[i][i]
            if q:
                b = self.basis[i]
                w = [a - q * c for a, c in zip(w, b)]
        return tuple(w)

    def contains(self, v) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def residues(self) -> tuple[tuple[int, ...], ...]:
        """All det-many coset representatives, in deterministic box order."""
        ranges = [range(self.basis[i][i]) for i in range(self.dim)]
        out = []
        for combo in itertools.product(*ranges):
            out.append(self.reduce(combo))
        return tuple(out)


def lattice_from_columns(vectors) -> Lattice:
    """Integer span of the given d-vectors; they must span Q^d."""
    vecs = [tuple(index(x) for x in v) for v in vectors]
    if not vecs:
        raise RankError("no generators")
    d = len(vecs[0])
    M = IntMatrix.from_rows([[v[i] for v in vecs] for i in range(d)])
    H, _ = hnf(M)  # RankError when the span is rank-deficient
    basis = tuple(H.column(j) for j in range(d))
    det = 1
    for i in range(d):
        det *= basis[i][i]
    return Lattice(dim=d, basis=basis, det=det)


def lattice_intersect(L1: Lattice, L2: Lattice) -> Lattice:
    """Exact intersection of two full-rank lattices in the same Z^d."""
    if L1.dim != L2.dim:
        raise ValueError("lattices live in different dimensions")
    d = L1.dim
    gen = list(L1.basis) + [tuple(-x for x in b) for b in L2.basis]
    M = IntMatrix.from_rows([[g[i] for g in gen] for i in range(d)])
    H, U = hnf(M)
    vectors = []
    for j in range(2 * d):
        if all(H.entries[i][j] == 0 for i in range(d)):
            coeffs = U.column(j)[:d]
            v = tuple(
                sum(c * L1.basis[k][i] for k, c in enumerate(coeffs)) for i in range(d)
            )
            vectors.append(v)
    return lattice_from_columns(vectors)


def residues(L: Lattice) -> tuple[tuple[int, ...], ...]:
    """Coset representatives of Z^d modulo L (module-level convenience)."""
    return L.residues()


def rref(rows, ncols=None):
    """Reduced row echelon form over Q by Gauss-Jordan elimination.

    Pivots are sought in the first `ncols` columns (default: all).  Returns
    the reduced rows as lists of Fractions and the pivot columns in order.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def solve_exact(matrix_rows, rhs):
    """Solve M x = b exactly over Q.

    Returns a tuple of Fractions, or None when the system is inconsistent.
    For underdetermined consistent systems the free variables of the reduced
    system are set to zero.
    """
    rows = [list(r) for r in matrix_rows]
    n = len(rows[0]) if rows else 0
    red, pivots = rref([row + [b] for row, b in zip(rows, rhs)], n)
    if any(row[n] != 0 for row in red[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(red, pivots):
        x[c] = row[n]
    return tuple(x)
