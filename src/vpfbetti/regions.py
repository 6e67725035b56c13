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
from fractions import Fraction
from math import factorial
from operator import index

from .chambers import locate
from .hilbert import DataIntegrityWarning, KappaNumerator, _ring_data
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
    intercept: int
    through: tuple[int, int]

    def value(self, t: int) -> int:
        return self.slope * t + self.intercept


@dataclass(frozen=True, eq=False)
class Region:
    """Strip between consecutive sorted lines, valued by signed chamber-fit terms.

    A term (i, a, c) contributes c * fits[i](u - a), where fits are the
    decomposition's chamber fits, each over its chamber's own lattice.
    """

    lower: int
    upper: int
    terms: tuple[tuple[int, tuple[int, int], int], ...]


@dataclass(frozen=True, eq=False)
class RegionDecomposition:
    t0: int
    lines: tuple[HalfLine, ...]
    modulus: int
    lattice: Lattice | None
    regions: tuple[Region, ...]
    kappa: KappaNumerator
    degrees: tuple[int, ...]
    ray_pieces: dict = field(default_factory=dict)
    fits: dict[int, QuasiPolynomial] = field(default_factory=dict)  # by chamber index

    @property
    def degenerate(self) -> bool:
        return len(self.degrees) == 1


def _intercept(shift, slope: int) -> int:
    return shift[0] - slope * shift[1]


def intersection_height(line1: HalfLine, line2: HalfLine) -> Fraction | None:
    """Second coordinate where two half-lines of distinct slopes meet.

    Computed by the determinant expression
    (det[[b1', a'], [b2', 1]] - det[[b1, a], [b2, 1]]) / (a - a'),
    where the lines have slopes a, a' through shift points (b1, b2), (b1', b2').
    """
    if line1.slope == line2.slope:
        return None
    det2 = line2.through[0] - line2.slope * line2.through[1]
    det1 = line1.through[0] - line1.slope * line1.through[1]
    return Fraction(det2 - det1, line1.slope - line2.slope)


def _ceil_fraction(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def all_half_lines(shifts, degrees) -> list[HalfLine]:
    return [
        HalfLine(a, _intercept(s, a), (index(s[0]), index(s[1])))
        for s in shifts
        for a in degrees
    ]


def stability_threshold(shifts, degrees) -> int:
    """Smallest safe integer height: the ordering of the half-lines through
    the shift points is fixed beyond the largest pairwise intersection."""
    degrees = sorted(set(index(d) for d in degrees))
    lines = all_half_lines(shifts, degrees)
    best = Fraction(0)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            y = intersection_height(lines[i], lines[j])
            if y is not None and y > best:
                best = y
    return max(1, _ceil_fraction(best))


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
        rays.setdefault(_intercept(term[0], d), []).append(term)
    return RegionDecomposition(
        t0=t0,
        lines=lines,
        modulus=1,
        lattice=None,
        regions=(),
        kappa=kappa,
        degrees=(d,),
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
        return RegionDecomposition(
            t0=1, lines=(), modulus=1, lattice=None, regions=(),
            kappa=kappa, degrees=E,
        )
    if len(E) == 1:
        return _degenerate_decomposition(kappa, E[0])

    shifts = kappa.shifts
    t0 = stability_threshold(shifts, E)
    lines = sort_lines(shifts, E, t0)
    chambers, lattice, fits = _ring_data(ring.degrees)

    t_probe = t0 + 1
    regions = []
    for i in range(len(lines) - 1):
        mu_probe = lines[i].value(t_probe)
        terms = []
        for shift, coeff in kappa.terms:
            located = locate(chambers, (mu_probe - shift[0], t_probe - shift[1]))
            if located:
                # on a shared wall the higher chamber is the one valid on the
                # strip above the probe line as well as on the line itself
                terms.append((located[-1], shift, coeff))
        regions.append(Region(lower=i, upper=i + 1, terms=tuple(terms)))
    return RegionDecomposition(
        t0=t0,
        lines=lines,
        modulus=lattice.det,
        lattice=lattice,
        regions=tuple(regions),
        kappa=kappa,
        degrees=E,
        fits={idx: fits[idx] for region in regions for idx, _, _ in region.terms},
    )


def row_support(dec: RegionDecomposition, t: int) -> tuple[int, int]:
    """Lowest and highest mu at which row t can be nonzero; (0, -1) when none can."""
    if not dec.lines:
        return 0, -1
    return dec.lines[0].value(t), dec.lines[-1].value(t)


def eval_row(dec: RegionDecomposition, t: int, lo: int, hi: int) -> list[int]:
    """Exact values at (mu, t) for lo <= mu <= hi; zero off the line support.

    Only valid in the stable range t >= t0.  Never warns: a negative value is
    returned as it is.  Each strip adds c times the row of fits[i] at
    (mu - a_mu, t - a_t) over its terms (i, a, c).
    """
    t, lo, hi = index(t), index(lo), index(hi)
    if t < dec.t0:
        raise BelowThresholdError(
            f"t = {t} is below the stability threshold {dec.t0}; use hf_module"
        )
    out = [0] * max(hi - lo + 1, 0)
    if dec.degenerate:
        for b, poly in dec.ray_pieces.items():
            mu = dec.degrees[0] * t + b
            if lo <= mu <= hi:
                out[mu - lo] = _as_int(poly.eval((t,)), (mu, t))
        return out
    vals = [line.value(t) for line in dec.lines]
    last = len(dec.regions) - 1
    for i, region in enumerate(dec.regions):
        # half-open strip [vals[i], vals[i + 1]), the last one closed above
        start = max(vals[i], lo)
        stop = min(vals[i + 1] + (i == last), hi + 1)
        if start >= stop:
            continue
        for idx, (a_mu, a_t), c in region.terms:
            row = dec.fits[idx].eval_row(t - a_t, start - a_mu, stop - 1 - a_mu)
            out[start - lo:stop - lo] = [
                v + c * w for v, w in zip(out[start - lo:stop - lo], row)
            ]
    return out


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
    for t in range(dec.t0, dec.t0 + n + TOTAL_BETTI_CHECKS + 1):
        total = sum(eval_row(dec, t, *row_support(dec, t)))
        if poly.eval((t,)) != total:
            raise FitError(
                f"row t = {t} of the decomposition sums to {total}, "
                f"not to the eventual total {poly.eval((t,))}"
            )
    return poly
