"""Hilbert functions of graded modules presented by signed resolution shifts.

A module is described by its kappa numerator: a finite signed multiset of
shift vectors.  Multiplying the numerator into the ambient ring's Hilbert
series gives the module's Hilbert series, so pointwise values are signed
sums of counts.  Point values work in any grading dimension; value grids
and the series identity check need a bigraded ring.
"""

from __future__ import annotations

import threading
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, islice, repeat
from operator import add, index, mul, sub

from . import kernels
from .chambers import chamber_complex_2xn, locate
from .counting import DegreeMatrix, count
from .lattices import lattice_intersect
from .quasipoly import QuasiPolynomial, fit_chamber_qp
from .waves import RingWaves


class DataIntegrityWarning(UserWarning):
    """A probed value came out negative: the shift data cannot be a genuine resolution."""


@dataclass(frozen=True)
class KappaNumerator:
    """Signed shifts presenting a module over the ring of the degree matrix."""

    ring: DegreeMatrix
    terms: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        # merged, sorted and without zero terms, so equal numerators have equal terms
        merged: dict[tuple[int, ...], int] = {}
        for shift, coeff in self.terms:
            shift = tuple(map(index, shift))
            if len(shift) != self.ring.dim:
                raise ValueError("shift dimension mismatch")
            merged[shift] = merged.get(shift, 0) + index(coeff)
        object.__setattr__(
            self, "terms", tuple((shift, c) for shift, c in sorted(merged.items()) if c)
        )

    @classmethod
    def from_terms(cls, ring: DegreeMatrix, terms) -> "KappaNumerator":
        """The numerator of (shift, coefficient) pairs, or of a dict shift -> coefficient."""
        return cls(ring, terms.items() if isinstance(terms, dict) else terms)

    @property
    def shifts(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s for s, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms


def hf_module(kappa: KappaNumerator, u) -> int:
    """Hilbert function value sum_a c_a * count(ring, u - a), exact."""
    u = tuple(map(index, u))
    if len(u) != kappa.ring.dim:
        raise ValueError("point dimension mismatch")
    total = 0
    for shift, coeff in kappa.terms:
        total += coeff * count(kappa.ring, tuple(a - b for a, b in zip(u, shift)))
    if total < 0:
        warnings.warn(
            f"negative Hilbert value {total} at {u}: inconsistent shift data",
            DataIntegrityWarning,
            stacklevel=2,
        )
    return total


def _padded(start, values, lo, hi) -> list[int]:
    """values[mu - start] for lo <= mu <= hi, zero where the row (start, values) holds none."""
    a, b = max(lo, start), min(hi, start + len(values) - 1)
    if a > b:
        return [0] * max(hi - lo + 1, 0)
    return [0] * (a - lo) + values[a - start: b - start + 1] + [0] * (hi - b)


def _value_rows(kappa: KappaNumerator, lo, hi) -> list[tuple[int, list[int]]]:
    """hf_module(kappa, (mu, t)) for lo <= (mu, t) <= hi, one row (start, values) per t.

    Row t spans the hull of its terms' bands a_mu + e_min * s <= mu <=
    a_mu + e_max * s, s = t - a_t >= 0, over the ring's least and greatest
    degrees, cut to lo_mu..hi_mu; the values are zero off it.  Its ends are
    e_min * t and e_max * t plus running extrema of a_mu - e * a_t over the
    terms in order of a_t.  Each term adds one slice of the ring's count
    rows, built for this call up to the last row that holds a value.
    Bigraded rings only; rows over `kernels.MAX_TABLE_CELLS` cells, an empty
    row counted as one, raise BudgetExceededError before any is allocated.
    """
    if not kappa.ring.is_bigraded():
        raise ValueError("value grids require a bigraded ring")
    (mu0, t0), (mu1, t1) = lo, hi
    e_min, e_max = min(kappa.ring.degrees), max(kappa.ring.degrees)
    by_height = sorted((a_t, a_mu) for (a_mu, a_t), _ in kappa.terms)
    lows = list(accumulate((a_mu - e_min * a_t for a_t, a_mu in by_height), min))
    highs = list(accumulate((a_mu - e_max * a_t for a_t, a_mu in by_height), max))

    def span(t):
        """Row t's first mu and its number of values."""
        live = bisect_left(by_height, (t + 1,))  # the terms with a_t <= t
        if not live:
            return mu0, 0
        start = max(mu0, e_min * t + lows[live - 1])
        return start, max(min(mu1, e_max * t + highs[live - 1]) - start + 1, 0)

    kernels.check_cells(max(t1 - t0 + 1, 0), "value rows, one cell or more per height,")
    spans, cells = [], 0  # counted no further than the first row past the budget
    for t in range(t0, t1 + 1):
        spans.append(span(t))
        cells += max(spans[-1][1], 1)
        kernels.check_cells(cells, f"value rows to t={t}")
    rows = [(start, [0] * n) for start, n in spans]
    held = [t for t, (_, n) in enumerate(spans, t0) if n]  # the rows that hold values
    if not held:
        return rows
    reach_mu = mu1 - min(a[0] for a in kappa.shifts)
    reach_t = held[-1] - min(a[1] for a in kappa.shifts)
    table = kernels.bigraded_table(kappa.ring.degrees, max(reach_t, 0), max(reach_mu, 0))
    for (a_mu, a_t), c in kappa.terms:
        op = add if c > 0 else sub
        for t in islice(held, bisect_left(held, a_t), None):  # the rows with t - a_t >= 0
            s = t - a_t
            start, values = rows[t - t0]
            part = _padded(a_mu + e_min * s, table[s], start, start + len(values) - 1)
            values[:] = map(op, values, part if abs(c) == 1 else map(mul, repeat(abs(c)), part))
    return rows


def hf_grid(kappa: KappaNumerator, lo, hi) -> list[list[int]]:
    """hf_module(kappa, (mu, t)) at every lo <= (mu, t) <= hi, as g[t - lo_t][mu - lo_mu].

    The grid is a list[list[int]], one list per row t: the value rows of
    kappa, padded with zeros to the box.  Bigraded rings only.  A grid or
    table over `kernels.MAX_TABLE_CELLS` raises BudgetExceededError.
    """
    (mu0, t0), (mu1, t1) = lo, hi
    kernels.check_cells(max(t1 - t0 + 1, 0) * max(mu1 - mu0 + 1, 0), "value grid")
    return [_padded(start, values, mu0, mu1) for start, values in _value_rows(kappa, lo, hi)]


def series_identity_check(kappa: KappaNumerator, bound) -> bool:
    """Do the values times prod_j (1 - x^{d_j} y) leave exactly the numerator?

    The Hilbert series is numerator / prod_j (1 - x^{d_j} y).  The value
    rows run from the lowest shift, below which every value is zero, up to
    bound, so the product is exact on them.  Bigraded rings only.
    """
    bound = tuple(index(b) for b in bound)
    lo = tuple(min((a[i] for a in kappa.shifts), default=0) for i in (0, 1))
    return _series_identity(kappa, _value_rows(kappa, lo, bound), lo[1])


def _series_identity(kappa: KappaNumerator, rows, t0) -> bool:
    """The series identity on kappa's value rows from t0, starting at its lowest shift.

    For e_min <= d <= e_max, row t - 1 moved d to the right lies inside row
    t, since each term's band moves into its own band one row up; so every
    factor subtracts inside the rows, and the product, unitriangular, is
    numerator x series times the denominator on the whole box.  A moved row
    that starts left of row t means the rows are wrong, and fails.  The
    product is taken in place, so the rows are consumed.
    """
    steps = [i for i in range(len(rows) - 1, 0, -1) if rows[i - 1][1]]  # row i - 1 holds values
    for d in kappa.ring.degrees:
        for i in steps:  # from the top, so row i - 1 is still unchanged
            (below, lower), (start, values) = rows[i - 1], rows[i]
            a, b = below + d - start, min(below + d + len(lower), start + len(values)) - start
            if a < b:
                if a < 0:
                    return False
                values[a:b] = map(sub, islice(values, a, b), lower)
    for (a_mu, a_t), c in kappa.terms:
        if a_t - t0 < len(rows):
            start, values = rows[a_t - t0]
            if a_mu < start:  # a row that starts past its own coefficient
                return False
            if a_mu - start < len(values):
                values[a_mu - start] -= c
    return not any(any(values) for _, values in rows)


@dataclass(frozen=True)
class RingHilbertValue:
    """A Hilbert function value with the chamber and global residue class of its point."""

    value: int
    chamber: int | None
    residue: tuple[int, ...] | None


class _Ring:
    """The partition waves, chambers, global lattice and lazy chamber fits of one bigraded ring.

    A ring with one distinct degree has no chambers, and its lattice is None.
    fit(i), chamber i fitted over its own lattice, modulo which it is
    periodic, is built from `waves` on first read under the ring's lock, so
    once whatever the threads, and read without it after that; a fit that
    raises is not kept.  A lattice with more residue classes (pieces) than
    the cell budget raises first.
    """

    def __init__(self, degrees: tuple[int, ...]):
        self.matrix = DegreeMatrix.bigraded(degrees)
        self.waves = RingWaves(degrees)
        planar = len(set(degrees)) > 1
        self.chambers = chamber_complex_2xn(degrees) if planar else ()
        # the global lattice, folded from these chambers as `chambers.global_lattice` does
        lattices = [c.lattice for c in self.chambers]
        self.lattice = reduce(lattice_intersect, lattices) if planar else None
        self._fits = [None] * len(self.chambers)
        self._lock = threading.Lock()

    def fit(self, i: int) -> QuasiPolynomial:
        fit = self._fits[i]
        if fit is None:
            with self._lock:
                fit = self._fits[i]
                if fit is None:
                    c = self.chambers[i]
                    what = f"fit of chamber C{i + 1}, one piece per residue class,"
                    kernels.check_cells(c.lattice.det, what)
                    fit = self._fits[i] = fit_chamber_qp(self.matrix, c, c.lattice)
        return fit


_cached_ring = lru_cache(maxsize=64)(_Ring)  # keyed by the sorted degrees
_RINGS_LOCK = threading.Lock()  # lru_cache alone may build a ring twice on concurrent misses


def _ring(degrees) -> _Ring:
    """The record of the ring with these degrees in any order, built once."""
    with _RINGS_LOCK:
        return _cached_ring(tuple(sorted(index(d) for d in degrees)))


def hf_bigraded_ring(degrees, u) -> RingHilbertValue:
    """Hilbert function of k[T_1..T_n] with deg T_i = (d_i, 1), with attribution.

    Returns the value, read from the ring's partition waves on one side of
    u's lower wall, with the index of the (lowest) chamber whose closure
    contains u and u's residue modulo the global lattice.  Outside the
    positive cone the value is 0 with no attribution.  A ring with one
    distinct degree e has no chambers: its value is C(t + n - 1, n - 1) on
    the ray mu = e t and 0 off it, with no attribution.  Over the wave
    budget, BudgetExceededError.
    """
    u = tuple(map(index, u))
    ring = _ring(degrees)
    located = locate(ring.chambers, u)  # rejects a point of the wrong length
    value = ring.waves.count(*u)
    if not located:
        return RingHilbertValue(value, None, None)
    return RingHilbertValue(value, located[0], ring.lattice.reduce(u))
