"""The vector partition function: exact counting and truncated series.

count(A, u) is the number of ways to write u as a nonnegative integer
combination of the columns of A.  Nonnegative columns with no zero column
make the grading positive, so every count is finite.  Bigraded matrices
(second row all ones) are read from the ring's shared cone-sheared rows
(`kernels.band_rows`), packed into Python ints, the same rows that value
grids read; everything else runs a boxed dynamic program.  Both are pure
Python, both caches are safe to share between threads, and every table is
checked against `kernels.MAX_TABLE_CELLS` before it grows.  count_row(A, t,
lo, hi) reads a planar row at once: one slice of a bigraded ring's band row.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from math import prod
from operator import index

from . import kernels


@dataclass(frozen=True)
class DegreeMatrix:
    """d x n matrix of generator degrees, stored as columns."""

    dim: int
    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        dim = index(self.dim)
        cols = tuple(tuple(map(index, c)) for c in self.columns)
        for c in cols:
            if len(c) != dim:
                raise ValueError(f"a column has {len(c)} entries, the grading has rank {dim}")
            if any(x < 0 for x in c):
                raise ValueError("degree entries must be nonnegative")
            if all(x == 0 for x in c):
                raise ValueError("zero column makes the grading non-positive")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "columns", cols)

    @classmethod
    def from_columns(cls, columns, dim=None) -> "DegreeMatrix":
        """The matrix of these columns, of the first column's length (dim if none)."""
        cols = tuple(map(tuple, columns))
        if cols:
            dim = len(cols[0])
        elif dim is None:
            raise ValueError("empty matrix needs an explicit dimension")
        return cls(dim, cols)

    @classmethod
    def bigraded(cls, degrees) -> "DegreeMatrix":
        """Columns (d_i, 1) for a Z^2-graded polynomial ring."""
        return cls.from_columns([(d, 1) for d in degrees])

    @property
    def size(self) -> int:
        return len(self.columns)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.columns)

    def is_bigraded(self) -> bool:
        return self.dim == 2 and all(c[1] == 1 for c in self.columns)


class _GeneralOracle:
    """Boxed dynamic program for arbitrary nonnegative degree matrices.

    On a miss only the coordinates past the box grow, to at least twice
    their old bound; bound and table are replaced together as one tuple.
    """

    def __init__(self, columns, dim):
        self.columns = columns
        self.dim = dim
        self.box = None  # (bound, table)
        self.lock = threading.Lock()

    def _grow(self, u):
        with self.lock:
            box = self.box
            old = box[0] if box else (-1,) * self.dim
            if box is None or any(a > b for a, b in zip(u, old)):
                bound = tuple(b if a <= b else max(a, 2 * b, 8) for a, b in zip(u, old))
                kernels.check_cells(prod(b + 1 for b in bound), "count box")
                box = self.box = (bound, _box_table(self.columns, bound))
            return box

    def value(self, u):
        if any(x < 0 for x in u):
            return 0
        box = self.box
        if box is None or any(a > b for a, b in zip(u, box[0])):
            box = self._grow(u)
        return box[1].get(u, 0)


def _box_table(columns, bound):
    """Coefficients of prod 1/(1 - t^{a_j}) on the box [0, bound]."""
    dims = [b + 1 for b in bound]
    table = {cell: 0 for cell in itertools.product(*[range(s) for s in dims])}
    table[tuple(0 for _ in dims)] = 1
    for col in columns:
        for cell in itertools.product(*[range(c, s) for c, s in zip(col, dims)]):
            prev = tuple(a - b for a, b in zip(cell, col))
            v = table[prev]
            if v:
                table[cell] += v
    return table


# memo of each matrix's table: looking a band up by its sorted degrees on
# every count would cost more than the read itself
_ORACLES: dict[DegreeMatrix, object] = {}
_ORACLES_LOCK = threading.Lock()


def _oracle(A: DegreeMatrix):
    cached = _ORACLES.get(A)
    if cached is None:
        with _ORACLES_LOCK:
            cached = _ORACLES.get(A)
            if cached is None:
                if A.is_bigraded():
                    cached = kernels.band_rows(A.degrees)
                else:
                    cached = _GeneralOracle(A.columns, A.dim)
                _ORACLES[A] = cached
    return cached


def count(A: DegreeMatrix, u) -> int:
    """Number of lambda in N^n with A . lambda = u; zero outside the cone."""
    u = tuple(map(index, u))
    if len(u) != A.dim:
        raise ValueError("point dimension mismatch")
    if not A.columns:
        return 1 if all(x == 0 for x in u) else 0
    return _oracle(A).value(u)


def count_row(A: DegreeMatrix, t: int, lo: int, hi: int) -> list[int]:
    """count(A, (mu, t)) for lo <= mu <= hi; [] when lo > hi.

    A bigraded ring's row is one slice of its band row; any other matrix is
    read point by point through count.
    """
    t, lo, hi = index(t), index(lo), index(hi)
    oracle = _oracle(A) if A.columns else None
    if isinstance(oracle, kernels.BandRows):
        return oracle.row(t, lo, hi)
    return [count(A, (mu, t)) for mu in range(lo, hi + 1)]


def series_coeffs(A: DegreeMatrix, bound) -> dict[tuple[int, ...], int]:
    """All coefficients of prod 1/(1 - t^{a_j}) for 0 <= u <= bound."""
    bound = tuple(index(b) for b in bound)
    if len(bound) != A.dim:
        raise ValueError("bound dimension mismatch")
    if any(b < 0 for b in bound):
        raise ValueError("bound must be componentwise nonnegative")
    return {u: count(A, u) for u in itertools.product(*[range(b + 1) for b in bound])}
