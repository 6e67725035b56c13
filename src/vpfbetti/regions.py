"""Eventual piecewise description of shifted-module Hilbert functions.

For a module over a bigraded ring, presented by signed shifts, the plane
splits for t >= t0 into strips between sorted half-lines of slopes drawn
from the generator degrees; on each strip the value is one quasi-polynomial.
The construction here: stability threshold from pairwise line intersections,
stable sorting of the lines, and per strip a signed list of shifted chamber
quasi-polynomials, each read from the ring's own-lattice fits, with every
strip oracle-checkable against hf_module.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations, islice, repeat
from math import factorial
from operator import add, index, mul, sub

from .chambers import locate
from .hilbert import DataIntegrityWarning, KappaNumerator, _ring
from .lattices import Lattice
from .quasipoly import FitError, Polynomial, QuasiPolynomial, _as_int

# rows past t0 + n on which the decomposition's row sums must equal the eventual total
TOTAL_BETTI_CHECKS = 4


class BelowThresholdError(ValueError):
    """Query below the stability threshold; evaluate hf_module directly instead."""


@dataclass(frozen=True)
class HalfLine:
    """The half-line mu = slope * t + intercept through a shift point."""

    slope: int
    through: tuple[int, int]
    intercept: int = field(init=False)

    def __post_init__(self):
        slope, (mu, t) = index(self.slope), map(index, self.through)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "through", (mu, t))
        object.__setattr__(self, "intercept", mu - slope * t)

    def value(self, t: int) -> int:
        return self.slope * t + self.intercept


@dataclass(frozen=True, eq=False)
class Region:
    """Strip between consecutive sorted lines, valued by signed chamber-fit terms.

    A term (i, a, c) contributes c * fits[i](u - a), where fits are the
    decomposition's chamber fits, each over its chamber's own lattice.  The
    strip lies between lines `lower` and `upper` = lower + 1.
    """

    lower: int
    terms: tuple[tuple[int, tuple[int, int], int], ...]

    @property
    def upper(self) -> int:
        return self.lower + 1


@dataclass(frozen=True, eq=False)
class RegionDecomposition:
    t0: int
    lines: tuple[HalfLine, ...]
    lattice: Lattice | None
    regions: tuple[Region, ...]
    kappa: KappaNumerator
    ray_pieces: dict = field(default_factory=dict)
    fits: dict[int, QuasiPolynomial] = field(default_factory=dict)  # by chamber index
    modulus: int = field(init=False)  # the lattice's det, 1 without one
    degrees: tuple[int, ...] = field(init=False)  # the ring's distinct degrees

    def __post_init__(self):
        object.__setattr__(self, "modulus", 1 if self.lattice is None else self.lattice.det)
        object.__setattr__(self, "degrees", tuple(sorted(set(self.kappa.ring.degrees))))

    @property
    def degenerate(self) -> bool:
        return len(self.degrees) == 1


def all_half_lines(shifts, degrees) -> list[HalfLine]:
    return [HalfLine(a, s) for s in shifts for a in degrees]


def stability_threshold(shifts, degrees) -> int:
    """Smallest safe integer height, at least 1: the ordering of the half-lines
    through the shift points is fixed beyond the largest pairwise intersection.

    Lines of degrees e < d meet at t = (b_e - b_d) / (d - e), b the intercepts,
    so that largest intersection pairs each degree's extreme intercepts.
    """
    b: dict[int, list[int]] = {}  # intercepts by slope, slopes increasing
    for line in all_half_lines(shifts, sorted(set(index(d) for d in degrees))):
        b.setdefault(line.slope, []).append(line.intercept)
    # the ceiling of (max b_e - min b_d) / (d - e) over slopes e < d
    return max([1] + [-((min(b[d]) - max(b[e])) // (d - e)) for e, d in combinations(b, 2)])


def sort_lines(shifts, degrees, t0: int) -> tuple[HalfLine, ...]:
    """All N*r half-lines sorted by value at t0 + 1; ties by (slope, intercept)."""
    degrees = sorted(set(index(d) for d in degrees))
    lines = all_half_lines(shifts, degrees)
    lines.sort(key=lambda L: (L.value(t0 + 1), L.slope, L.intercept))
    return tuple(lines)


def _binomial_sum(terms, n: int) -> Polynomial:
    """Sum of c * C(t - a_t + n - 1, n - 1) over the terms (a, c), as a polynomial in t."""
    nums = [0] * n  # lowest power of t first
    for (_, a_t), c in terms:
        # integer coefficients of c * prod_{k=1}^{n-1} (t + k - a_t)
        coeffs = [c]
        for k in range(1, n):
            coeffs = [(k - a_t) * lo + hi for lo, hi in zip(coeffs + [0], [0] + coeffs)]
        nums = [x + y for x, y in zip(nums, coeffs)]
    return Polynomial._from_ints(1, factorial(n - 1), {(i,): v for i, v in enumerate(nums)})


def _degenerate_decomposition(kappa: KappaNumerator, d: int) -> RegionDecomposition:
    # single distinct degree: the support is a family of parallel rays
    # mu = d*t + b, each carrying a one-variable polynomial in t
    n = kappa.ring.size
    shifts = kappa.shifts
    t0 = max([1] + [s[1] for s in shifts])
    lines = sort_lines(shifts, (d,), t0)
    rays: dict[int, list] = {}
    for term in kappa.terms:
        rays.setdefault(HalfLine(d, term[0]).intercept, []).append(term)
    return RegionDecomposition(
        t0=t0,
        lines=lines,
        lattice=None,
        regions=(),
        kappa=kappa,
        ray_pieces={b: _binomial_sum(terms, n) for b, terms in rays.items()},
    )


def region_decomposition(kappa: KappaNumerator) -> RegionDecomposition:
    """Threshold, sorted lines, and the signed chamber-fit terms of each strip.

    Strips follow the half-open convention [L_i(t), L_{i+1}(t)), with the
    last strip closed above.  Each strip's value is the signed sum over the
    numerator terms of the shifted chamber quasi-polynomial attributed by
    probing the strip's lower edge at t0 + 1; oracle equivalence of the
    result is checked by the verification suite, not assumed.  Every chamber
    a term reads is fitted here, over its own lattice.
    """
    ring = kappa.ring
    if not ring.is_bigraded():
        raise ValueError("region decompositions require a bigraded ring")
    E = tuple(sorted(set(ring.degrees)))
    if kappa.is_zero():
        return RegionDecomposition(t0=1, lines=(), lattice=None, regions=(), kappa=kappa)
    if len(E) == 1:
        return _degenerate_decomposition(kappa, E[0])

    shifts = kappa.shifts
    t0 = stability_threshold(shifts, E)
    lines = sort_lines(shifts, E, t0)
    record = _ring(ring.degrees)

    t_probe = t0 + 1
    regions = []
    for i in range(len(lines) - 1):
        mu_probe = lines[i].value(t_probe)
        terms = []
        for shift, coeff in kappa.terms:
            located = locate(record.chambers, (mu_probe - shift[0], t_probe - shift[1]))
            if located:
                # on a shared wall the higher chamber is the one valid on the
                # strip above the probe line as well as on the line itself
                terms.append((located[-1], shift, coeff))
        regions.append(Region(lower=i, terms=tuple(terms)))
    return RegionDecomposition(
        t0=t0,
        lines=lines,
        lattice=record.lattice,
        regions=tuple(regions),
        kappa=kappa,
        fits={idx: record.fit(idx) for region in regions for idx, _, _ in region.terms},
    )


def row_support(dec: RegionDecomposition, t: int) -> tuple[int, int]:
    """Lowest and highest mu at which row t can be nonzero; (0, -1) when none can."""
    if not dec.lines:
        return 0, -1
    return dec.lines[0].value(t), dec.lines[-1].value(t)


def eval_rows(dec: RegionDecomposition, rows) -> list[list[int]]:
    """Exact values at (mu, t) for lo <= mu <= hi, one list per row (t, lo, hi).

    Zero off the line support.  Only valid in the stable range t >= t0.
    Never warns: a negative value is returned as it is.  Each strip adds c
    times the row of fits[i] at (mu - a_mu, t - a_t) over its terms
    (i, a, c).  A first pass records the mu span each fit row (i, t - a_t)
    is read over; each fit row is then evaluated once, over the union of
    its spans, in order of first use, and every (row, strip, term) adds its
    slice of it.
    """
    rows = [(index(t), index(lo), index(hi)) for t, lo, hi in rows]
    for t, _, _ in rows:
        if t < dec.t0:
            raise BelowThresholdError(
                f"t = {t} is below the stability threshold {dec.t0}; use hf_module"
            )
    outs = [[0] * max(hi - lo + 1, 0) for _, lo, hi in rows]
    if dec.degenerate:
        for (t, lo, hi), out in zip(rows, outs):
            for b, poly in dec.ray_pieces.items():
                mu = dec.degrees[0] * t + b
                if lo <= mu <= hi:
                    out[mu - lo] = _as_int(poly.eval((t,)), (mu, t))
        return outs
    spans = {}  # fit row (i, t - a_t) -> [lowest, highest] mu read
    adds = []  # (out, start - lo, stop - lo, fit row, its first mu read, c)
    last = len(dec.regions) - 1
    for (t, lo, hi), out in zip(rows, outs):
        vals = [line.value(t) for line in dec.lines]
        for i, region in enumerate(dec.regions):
            # half-open strip [vals[i], vals[i + 1]), the last one closed above
            start = max(vals[i], lo)
            stop = min(vals[i + 1] + (i == last), hi + 1)
            if start >= stop:
                continue
            for idx, (a_mu, a_t), c in region.terms:
                key, first, final = (idx, t - a_t), start - a_mu, stop - 1 - a_mu
                span = spans.setdefault(key, [first, final])
                span[:] = min(span[0], first), max(span[1], final)
                adds.append((out, start - lo, stop - lo, key, first, c))
    fit_rows = {
        key: (span_lo, dec.fits[key[0]].eval_row(key[1], span_lo, span_hi))
        for key, (span_lo, span_hi) in spans.items()
    }
    for out, a, b, key, first, c in adds:
        span_lo, row = fit_rows[key]
        part = islice(row, first - span_lo, first - span_lo + b - a)
        if abs(c) != 1:
            part = map(mul, repeat(abs(c)), part)
        out[a:b] = map(add if c > 0 else sub, islice(out, a, b), part)
    return outs


def eval_row(dec: RegionDecomposition, t: int, lo: int, hi: int) -> list[int]:
    """Exact values at (mu, t) for lo <= mu <= hi: the one row of `eval_rows`."""
    return eval_rows(dec, [(t, lo, hi)])[0]


def eval_betti(dec: RegionDecomposition, mu: int, t: int) -> int:
    """Evaluate the decomposition at (mu, t); zero outside the line support.

    Only valid in the stable range t >= t0; below it, callers must use
    hf_module on the numerator directly.  A negative value warns with
    DataIntegrityWarning.
    """
    mu, t = index(mu), index(t)
    v = eval_row(dec, t, mu, mu)[0]
    if v < 0:
        warnings.warn(
            f"negative value {v} at {(mu, t)}: inconsistent shift data",
            DataIntegrityWarning,
            stacklevel=2,
        )
    return v


def total_betti_polynomial(dec: RegionDecomposition) -> Polynomial:
    """The eventual polynomial t -> total of row t: the numerator's binomial sum.

    Row t - a_t of the ring holds all C(t - a_t + n - 1, n - 1) monomials of
    its T-degree, and t0 >= every shift's a_t (two lines through one shift
    meet at its height; on a single-degree ring t0 = max(1, max a_t)), so
    the sum holds for every t >= t0.  It must equal the decomposition's row
    sums on t0 .. t0 + n + TOTAL_BETTI_CHECKS; a mismatch means the
    decomposition is wrong and raises FitError.
    """
    n = dec.kappa.ring.size
    poly = _binomial_sum(dec.kappa.terms, n)
    ts = range(dec.t0, dec.t0 + n + TOTAL_BETTI_CHECKS + 1)
    for t, row in zip(ts, eval_rows(dec, [(t, *row_support(dec, t)) for t in ts])):
        total = sum(row)
        if poly.eval((t,)) != total:
            raise FitError(
                f"row t = {t} of the decomposition sums to {total}, "
                f"not to the eventual total {poly.eval((t,))}"
            )
    return poly
