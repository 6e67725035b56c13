"""The vector partition function: exact counting and truncated series.

count(A, u) is the number of ways to write u as a nonnegative integer
combination of the columns of A.  Nonnegative columns with no zero column
make the grading positive, so every count is finite.  A point of a
bigraded matrix (second row all ones) is read from the partition waves of
the ring's shared record (`hilbert._ring`), the same waves that `hilbert`
reads; any other matrix runs a boxed dynamic program.  count_row(A, t, lo,
hi) reads a planar row at once: one slice of a bigraded ring's cone-sheared
rows (`kernels.band_rows`), built to row t and cut at hi for this call
alone, a table that shares no code with the waves.  All of it is pure
Python, every cache is safe to share between threads, and every table is
checked against its budget before it grows.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache
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


@lru_cache(maxsize=64)
def _oracle(A: DegreeMatrix) -> _GeneralOracle:
    """The boxed table of a matrix that is not bigraded, kept for the 64 read last.

    Two oracles built on a concurrent miss give equal answers.
    """
    return _GeneralOracle(A.columns, A.dim)


def count(A: DegreeMatrix, u) -> int:
    """Number of lambda in N^n with A . lambda = u; zero outside the cone.

    A bigraded ring reads its partition waves: BudgetExceededError over their budget.
    """
    u = tuple(map(index, u))
    if len(u) != A.dim:
        raise ValueError("point dimension mismatch")
    if not A.columns:
        return 1 if all(x == 0 for x in u) else 0
    if A.is_bigraded():
        from .hilbert import _ring  # hilbert keeps each ring's record and imports this module

        return _ring(A.degrees).waves.count(*u)
    return _oracle(A).value(u)


def count_row(A: DegreeMatrix, t: int, lo: int, hi: int) -> list[int]:
    """count(A, (mu, t)) for lo <= mu <= hi; [] when lo > hi.

    A bigraded ring's row is one slice of its band row t, built with rows
    0..t cut at hi for this call; any other matrix is read point by point
    through count.
    """
    t, lo, hi = index(t), index(lo), index(hi)
    if not (A.columns and A.is_bigraded()):
        return [count(A, (mu, t)) for mu in range(lo, hi + 1)]
    e = min(A.degrees)
    base = e * t
    a, b = max(lo - base, 0), min(hi - base, (max(A.degrees) - e) * t)
    if t < 0 or a > b:
        return [0] * max(hi - lo + 1, 0)
    band = list(kernels.band_rows(A.degrees, t, b)[t][a: b + 1])
    return [0] * (base + a - lo) + band + [0] * (hi - base - b)


def series_coeffs(A: DegreeMatrix, bound) -> dict[tuple[int, ...], int]:
    """All coefficients of prod 1/(1 - t^{a_j}) for 0 <= u <= bound."""
    bound = tuple(index(b) for b in bound)
    if len(bound) != A.dim:
        raise ValueError("bound dimension mismatch")
    if any(b < 0 for b in bound):
        raise ValueError("bound must be componentwise nonnegative")
    return {u: count(A, u) for u in itertools.product(*[range(b + 1) for b in bound])}
