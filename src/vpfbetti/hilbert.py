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
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from operator import add, index, mul, sub

from . import kernels
from .chambers import chamber_complex_2xn, global_lattice, locate
from .counting import DegreeMatrix, count
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


def hf_grid(kappa: KappaNumerator, lo, hi) -> list[list[int]]:
    """hf_module(kappa, (mu, t)) at every lo <= (mu, t) <= hi, as g[t - lo_t][mu - lo_mu].

    The grid is a list[list[int]], one list per row t.  One window of the
    ring's shared count rows (the rows `count` reads), reaching hi minus the
    lowest shift, is added into each grid row as one shifted slice per
    numerator term: only the part of count row s = t - a_t that can be
    nonzero, e_min * s <= mu - a_mu <= e_max * s over the ring's least and
    greatest degrees.  Bigraded rings only.  A grid or table over
    `kernels.MAX_TABLE_CELLS` raises BudgetExceededError.
    """
    if not kappa.ring.is_bigraded():
        raise ValueError("value grids require a bigraded ring")
    (mu0, t0), (mu1, t1) = lo, hi
    height, width = max(t1 - t0 + 1, 0), max(mu1 - mu0 + 1, 0)
    kernels.check_cells(height * width, "value grid")
    g = [[0] * width for _ in range(height)]
    if not kappa.terms or not height * width:
        return g
    reach_mu = mu1 - min(a[0] for a in kappa.shifts)
    reach_t = t1 - min(a[1] for a in kappa.shifts)
    table = kernels.bigraded_table(kappa.ring.degrees, max(reach_t, 0), max(reach_mu, 0))
    e_min, e_max = min(kappa.ring.degrees), max(kappa.ring.degrees)
    for (a_mu, a_t), c in kappa.terms:
        op = add if c > 0 else sub
        for t in range(max(t0, a_t), t1 + 1):  # lowest row with t - a_t >= 0
            s = t - a_t
            start, stop = max(mu0, a_mu + e_min * s), min(mu1, a_mu + e_max * s) + 1
            if start >= stop:
                continue
            part = islice(table[s], start - a_mu, stop - a_mu)
            if abs(c) != 1:
                part = map(mul, repeat(abs(c)), part)
            row = g[t - t0]
            row[start - mu0:stop - mu0] = map(op, islice(row, start - mu0, stop - mu0), part)
    return g


def series_identity_check(kappa: KappaNumerator, bound) -> bool:
    """Does the value grid times prod_j (1 - x^{d_j} y) leave exactly the numerator?

    The Hilbert series is numerator / prod_j (1 - x^{d_j} y).  The grid runs
    from the lowest shift, below which every value is zero, up to bound, so
    the product is exact on it.  Bigraded rings only.
    """
    bound = tuple(index(b) for b in bound)
    lo = tuple(min((a[i] for a in kappa.shifts), default=0) for i in (0, 1))
    return _series_identity(kappa, hf_grid(kappa, lo, bound), lo)


def _series_identity(kappa: KappaNumerator, g, lo) -> bool:
    """The series identity on the value grid g of kappa, with g[0][0] at lo.

    Exact when lo is at or below the lowest shift in both coordinates.  The
    product with the denominator is unitriangular, so the identity holds
    only if g is numerator x series on the box.  Row t of that is zero
    outside the union over the terms with a_t <= t of the bands
    a_mu + e_min * s <= mu <= a_mu + e_max * s, s = t - a_t; a nonzero value
    there fails at once.  Each factor then subtracts only over the spans
    that can still be nonzero.  The product is taken in place, so g is
    consumed.
    """
    h, w = len(g), len(g[0]) if g else 0
    degrees = kappa.ring.degrees
    e_min, e_max = min(degrees), max(degrees)
    spans = []  # per row, the hull [start, stop) of the columns that can be nonzero
    for i, row in enumerate(g):
        t = lo[1] + i
        bands = sorted(
            (max(a_mu - lo[0] + e_min * (t - a_t), 0), a_mu - lo[0] + e_max * (t - a_t) + 1)
            for (a_mu, a_t), _ in kappa.terms
            if a_t <= t
        )
        start = stop = bands[0][0] if bands else 0
        for band_lo, band_hi in bands:
            if any(row[stop:band_lo]):
                return False
            stop = max(stop, band_hi)
        if any(row[:start]) or any(row[stop:]):
            return False
        spans.append((start, min(stop, w)))
    for d in degrees:
        for i in range(h - 1, 0, -1):  # from the top, so row i - 1 is still unchanged
            start, stop = spans[i - 1]
            a, b = start + d, min(stop + d, w)
            if a < b:
                row = g[i]
                row[a:b] = map(sub, islice(row, a, b), islice(g[i - 1], start, stop))
                spans[i] = min(spans[i][0], a), max(spans[i][1], b)
    want = [[0] * w for _ in g]
    for (a_mu, a_t), c in kappa.terms:
        if a_mu - lo[0] < w and a_t - lo[1] < h:
            want[a_t - lo[1]][a_mu - lo[0]] = c
    return g == want


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
        self.lattice = global_lattice(degrees) if planar else None
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
