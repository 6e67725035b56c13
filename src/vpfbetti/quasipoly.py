"""Quasi-polynomials with respect to a lattice, and their exact recovery.

A quasi-polynomial stores one rational-coefficient polynomial per residue
class of a full-rank sublattice of Z^d.  fit_chamber_qp reconstructs the
counting function of a degree matrix on a closed planar chamber by exact
interpolation per residue class, then validates the result on points it did
not fit; a mismatch is a hard structural error, never a silent repair.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import comb, floor, gcd, lcm
from types import MappingProxyType

from .chambers import Chamber
from .counting import DegreeMatrix, count
from .lattices import Lattice, lattice_from_columns, rref

# held-out validation points per fitted coefficient, in every chamber fit and
# in the estimate of its extent
VALIDATE_FACTOR = 3


class FitError(RuntimeError):
    """No polynomial of the expected degree matches the counts (bad chamber or lattice)."""


class _Frozen:
    """Slots set once at construction; any later assignment raises."""

    __slots__ = ()

    @classmethod
    def _build(cls, **fields):
        obj = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(obj, name, value)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _taylor_shift(nums: dict, a) -> dict:
    """Integer coefficients of p(x - a) from those of p(x), for integer a."""
    for i, ai in enumerate(a):
        ai = operator.index(ai)
        if not ai:
            continue
        out: dict[tuple[int, ...], int] = {}
        for exp, n in nums.items():
            # (x_i - a_i)^e = sum_k C(e, k) x_i^k (-a_i)^(e - k)
            e = exp[i]
            power = 1
            for k in range(e, -1, -1):
                key = exp[:i] + (k,) + exp[i + 1:]
                out[key] = out.get(key, 0) + n * comb(e, k) * power
                power *= -ai
        nums = out
    return nums


class Polynomial(_Frozen):
    """Immutable sparse polynomial with exact rational coefficients.

    Stored as integer numerators over one positive denominator `den`, reduced
    (no zero numerator; den and the numerators share no factor), so equal
    polynomials have equal fields.  `terms` is a read-only view of the
    reduced Fraction coefficients.
    """

    __slots__ = ("nvars", "den", "_nums")

    def __new__(cls, nvars: int, terms=()):
        coeffs = {
            tuple(operator.index(e) for e in exp): Fraction(c) for exp, c in dict(terms).items()
        }
        den = lcm(*(c.denominator for c in coeffs.values()))
        return cls._from_ints(
            operator.index(nvars),
            den,
            {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()},
        )

    @classmethod
    def _from_ints(cls, nvars: int, den: int, nums: dict) -> "Polynomial":
        """The polynomial sum(nums[e] * x^e) / den, reduced; den != 0."""
        nums = {e: n for e, n in nums.items() if n}
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            den //= g
            nums = {e: n // g for e, n in nums.items()}
        return cls._build(nvars=nvars, den=den, _nums=nums)

    @classmethod
    def _sum(cls, nvars: int, parts) -> "Polynomial":
        """Sum of a sequence of polynomials: integer numerators over the lcm of their dens."""
        den = lcm(*(p.den for p in parts))
        nums = {}
        for p in parts:
            f = den // p.den
            for e, n in p._nums.items():
                nums[e] = nums.get(e, 0) + n * f
        return cls._from_ints(nvars, den, nums)

    def __reduce__(self):
        return Polynomial, (self.nvars, dict(self.terms))

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @property
    def terms(self) -> MappingProxyType:
        return MappingProxyType(
            {e: Fraction(n, self.den) for e, n in self._nums.items()}
        )

    def is_zero(self) -> bool:
        return not self._nums

    def total_degree(self) -> int:
        return max((sum(e) for e in self._nums), default=0)

    def eval(self, point) -> Fraction:
        total = 0
        for exp, n in self._nums.items():
            for x, e in zip(point, exp):
                if e:
                    n *= x**e
            total += n
        return Fraction(total, self.den)

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 1:
            return self
        return Polynomial._from_ints(
            self.nvars,
            self.den * c.denominator,
            {e: n * c.numerator for e, n in self._nums.items()},
        )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        return Polynomial._sum(self.nvars, (self, other))

    def shifted(self, a) -> "Polynomial":
        """p(x - a) for an integer vector a; the denominator is unchanged."""
        return Polynomial._from_ints(self.nvars, self.den, _taylor_shift(self._nums, a))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.den == other.den
            and self._nums == other._nums
        )

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self._nums.items())))

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "Polynomial(0)"
        bits = []
        for exp in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
            mono = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e
            )
            bits.append(f"{terms[exp]}" + (f"*{mono}" if mono else ""))
        return "Polynomial(" + " + ".join(bits) + ")"


def _as_int(value: Fraction, point) -> int:
    if value.denominator != 1:
        raise FitError(f"non-integer piece value {value} at {point}")
    return int(value)


def _row_period(lattice: Lattice) -> int:
    """The least m > 0 with (m, 0) in a planar lattice, basis ((p, q), (0, r))."""
    (p, q), (_, r) = lattice.basis
    return p * r // gcd(q, r)


class QuasiPolynomial(_Frozen):
    """One polynomial per residue class of a full-rank lattice in Z^d.

    Immutable: `pieces` is a read-only mapping from every canonical residue
    to its Polynomial.
    """

    __slots__ = ("lattice", "pieces")

    def __new__(cls, lattice: Lattice, pieces):
        keys = lattice.residues()
        table = dict(pieces)
        extra = set(table) - set(keys)
        if extra:
            raise ValueError(f"piece keys not among canonical residues: {sorted(extra)}")
        zero = Polynomial.zero(lattice.dim)
        return cls._build(
            lattice=lattice,
            pieces=MappingProxyType({k: table.get(k, zero) for k in keys}),
        )

    def __reduce__(self):
        return QuasiPolynomial, (self.lattice, dict(self.pieces))

    def piece_at(self, u):
        key = self.lattice.reduce(u)
        return key, self.pieces[key]

    def eval(self, u) -> Fraction:
        _, piece = self.piece_at(u)
        return piece.eval(u)

    def eval_row(self, t: int, lo: int, hi: int) -> list[int]:
        """Exact integer values at (mu, t) for lo <= mu <= hi; [] when lo > hi.

        Planar lattices only.  Once per row period (_row_period), a class's
        piece is looked up and t put into its integer numerators, leaving
        integer coefficients in mu over its den for an integer Horner loop
        at each of the class's points.  A non-integer value raises FitError.
        """
        t, lo, hi = operator.index(t), operator.index(lo), operator.index(hi)
        m = _row_period(self.lattice)
        out = [0] * max(hi - lo + 1, 0)
        for first in range(lo, min(lo + m, hi + 1)):
            _, poly = self.piece_at((first, t))
            top = max((e[0] for e in poly._nums), default=0)
            coeffs = [0] * (top + 1)  # highest power of mu first
            for (i, j), n in poly._nums.items():
                coeffs[top - i] += n * t**j
            den = poly.den
            for mu in range(first, hi + 1, m):
                acc = 0
                for c in coeffs:
                    acc = acc * mu + c
                value, rest = divmod(acc, den)
                if rest:
                    raise FitError(f"non-integer piece value {Fraction(acc, den)} at {(mu, t)}")
                out[mu - lo] = value
        return out

    def shift(self, a, c=1) -> "QuasiPolynomial":
        """r with r(x) = c * self(x - a), realized by re-keying the pieces."""
        a = tuple(operator.index(x) for x in a)
        reduce = self.lattice.reduce
        pieces = {
            reduce(tuple(k + s for k, s in zip(key, a))): piece.shifted(a).scale(c)
            for key, piece in self.pieces.items()
        }
        return QuasiPolynomial._build(lattice=self.lattice, pieces=MappingProxyType(pieces))

    def add(self, other: "QuasiPolynomial") -> "QuasiPolynomial":
        """The pointwise sum of two quasi-polynomials over the same lattice."""
        if self.lattice != other.lattice:
            raise ValueError("operands use different lattices")
        pieces = {k: p + other.pieces[k] for k, p in self.pieces.items()}
        return QuasiPolynomial._build(lattice=self.lattice, pieces=MappingProxyType(pieces))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuasiPolynomial)
            and self.lattice == other.lattice
            and self.pieces == other.pieces
        )

    def __repr__(self):
        return f"QuasiPolynomial(det={self.lattice.det}, pieces={len(self.pieces)})"


def equal_on_region(q1, q2, predicate, bound) -> bool:
    """Pointwise equality on every integer point of [0, bound] passing the predicate."""
    ranges = [range(int(b) + 1) for b in bound]
    for u in itertools.product(*ranges):
        if predicate(u) and q1.eval(u) != q2.eval(u):
            return False
    return True


def _ceildiv(a: int, b: int) -> int:
    return -((-a) // b)


def _round_fraction(f: Fraction) -> int:
    """Nearest integer, ties toward +infinity; exact."""
    return (2 * f.numerator + f.denominator) // (2 * f.denominator)


def _lagrange_gauss(v1, v2):
    """Shortest basis of the rank-2 lattice spanned by v1 and v2."""
    v1, v2 = list(v1), list(v2)

    def norm(v):
        return v[0] * v[0] + v[1] * v[1]

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]

    if norm(v1) < norm(v2):
        v1, v2 = v2, v1
    while True:
        q = _round_fraction(Fraction(dot(v1, v2), norm(v2)))
        v1 = [a - q * b for a, b in zip(v1, v2)]
        if norm(v1) >= norm(v2):
            break
        v1, v2 = v2, v1
    return tuple(v2), tuple(v1)


def _invert_fractions(rows):
    """Inverse of a small square matrix over Q; None when singular."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = rref(aug, n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in red]


def _window_rows(chamber: Chamber, s_max: int):
    """Rows (y, lo, hi) of the closed chamber's integer points with H1 + H2 <= s_max."""
    h1, h2 = chamber.inequalities
    h = (h1[0] + h2[0], h1[1] + h2[1])
    # the window is the triangle on 0 and the generators scaled to height s_max
    ys = [Fraction(s_max * g[1], h[0] * g[0] + h[1] * g[1]) for g in chamber.generators]
    for y in range(floor(min(0, *ys)), floor(max(0, *ys)) + 1):
        lo, hi = None, None
        feasible = True
        for hx, hy, rhs in ((h1[0], h1[1], 0), (h2[0], h2[1], 0), (-h[0], -h[1], -s_max)):
            r = rhs - hy * y
            if hx > 0:
                b = _ceildiv(r, hx)
                lo = b if lo is None else max(lo, b)
            elif hx < 0:
                b = r // hx
                hi = b if hi is None else min(hi, b)
            elif r > 0:
                feasible = False
                break
        if feasible and lo is not None and hi is not None and lo <= hi:
            yield y, lo, hi


def _lowest_points(chamber: Chamber, lattice: Lattice, s_max: int) -> dict:
    """The lowest point of the closed chamber in each residue class of the lattice.

    Lowest means least height H1 + H2, ties broken by the point itself; every
    class must occur at height <= s_max.  Along a row of the window the
    height is monotone and the classes repeat every m points, (m, 0) being
    the shortest lattice vector on the x axis, so each row offers only its m
    lowest points, and once every class has a point, only those no higher
    than the highest of them.
    """
    h1, h2 = chamber.inequalities
    hx, hy = h1[0] + h2[0], h1[1] + h2[1]
    (p, q), (_, r) = lattice.basis
    m = _row_period(lattice)
    best: dict[tuple[int, ...], tuple[int, int, int]] = {}
    top = s_max
    for y, lo, hi in _window_rows(chamber, s_max):
        if hx >= 0:
            xs = range(lo, min(hi, lo + m - 1) + 1)
        else:
            xs = range(hi, max(lo, hi - m + 1) - 1, -1)
        for x in xs:
            key = (hx * x + hy * y, x, y)
            if key[0] > top:
                break
            # lattice.reduce((x, y)), spelled out for the triangular basis
            res = (x % p, (y - x // p * q) % r)
            old = best.get(res)
            if old is None or key < old:
                best[res] = key
                if old is None and len(best) == lattice.det:
                    top = max(k[0] for k in best.values())
    if len(best) < lattice.det:
        raise FitError("internal: a residue class has no point in the anchor window")
    return {res: (x, y) for res, (_, x, y) in best.items()}


def _quadrant_basis(lattice, to_z):
    """Two short independent lattice images with nonnegative cone coordinates.

    Offsets built from such a basis always point into the cone, so a pattern
    anchored anywhere in the closed chamber stays in it.  Candidates come
    from small combinations of a Lagrange-Gauss reduced basis; the canonical
    triangular basis of the image lattice is the always-available fallback.
    """
    z1, z2 = to_z(lattice.basis[0]), to_z(lattice.basis[1])
    w1, w2 = _lagrange_gauss(z1, z2)
    cands = []
    for a in range(-12, 13):
        for b in range(-12, 13):
            v = (a * w1[0] + b * w2[0], a * w1[1] + b * w2[1])
            if v != (0, 0) and v[0] >= 0 and v[1] >= 0:
                cands.append(v)
    cands.extend(lattice_from_columns([z1, z2]).basis)
    cands.sort(key=lambda v: (v[0] + v[1], v))
    best = cands[0]
    for v in cands[1:]:
        if best[0] * v[1] - best[1] * v[0] != 0:
            return best, v
    raise FitError("internal: could not build a nonnegative lattice basis")


def _design_k_points(deg: int, extra: int):
    """Triangular interpolation grid plus a disjoint validation grid.

    The fit points {k >= 0 : k1 + k2 <= deg} are a principal lattice, which
    is unisolvent for total degree <= deg.  Validation points are the other
    points of the smallest box [0, K]^2 holding `extra` of them, keeping the
    whole pattern as compact as possible.
    """
    fit = [(i, s - i) for s in range(deg + 1) for i in range(s, -1, -1)]
    in_fit = set(fit)
    K = deg
    while (K + 1) ** 2 - len(fit) < extra:
        K += 1
    val = [
        k
        for k in sorted(
            ((i, j) for i in range(K + 1) for j in range(K + 1)),
            key=lambda e: (sum(e), e),
        )
        if k not in in_fit
    ][:extra]
    return fit, val


def _sweep_height(chamber: Chamber) -> int:
    """Height H1 + H2 of the window at the apex that a chamber fit is swept over."""
    h1, h2 = chamber.inequalities
    g1, g2 = chamber.generators
    hg = min(h1[0] * g2[0] + h1[1] * g2[1], h2[0] * g1[0] + h2[1] * g1[1])
    s_val = 4 * hg
    cross = abs(g1[0] * g2[1] - g1[1] * g2[0])
    while s_val * s_val * cross < 512 * (2 * hg) * (2 * hg):
        s_val *= 2
    return s_val


def pattern_extent_estimate(chamber, lattice, deg: int):
    """Rough upper bounds (max height t, count-table cells) for a chamber fit.

    Covers the interpolation patterns and the apex sweep, and is cheap (no
    residue enumeration), so callers can skip fits over a sane budget.
    """
    h1, h2 = chamber.inequalities

    def to_z(u):
        return (h1[0] * u[0] + h1[1] * u[1], h2[0] * u[0] + h2[1] * u[1])

    v1, v2 = _quadrant_basis(lattice, to_z)
    m = (deg + 1) * (deg + 2) // 2
    fit_k, val_k = _design_k_points(deg, VALIDATE_FACTOR * m)
    kmax = max(k[0] + k[1] for k in fit_k + val_k)
    p = lattice.basis[0][0]
    q = lattice.basis[1][1]
    corners = [(0, 0), (p, 0), (0, q), (p, q)]
    zs = [to_z(c) for c in corners]
    anchor_bound = (
        max(abs(z[0]) for z in zs)
        + max(abs(z[1]) for z in zs)
        + v1[0] + v1[1] + v2[0] + v2[1]
    )
    extent = kmax * (v1[0] + v1[1] + v2[0] + v2[1])
    de = h1[0] * h2[1] - h1[1] * h2[0]
    top = max(y for y, _, _ in _window_rows(chamber, _sweep_height(chamber)))
    tmax = max((anchor_bound + extent) // abs(de) + 1, top)
    g_hi = max(chamber.generators[0][0], chamber.generators[1][0])
    cells = (tmax + 1) * (g_hi * tmax + 1)
    return tmax, cells


def fit_chamber_qp(A: DegreeMatrix, chamber: Chamber, lattice: Lattice) -> QuasiPolynomial:
    """Recover the counting quasi-polynomial of A on a closed planar chamber.

    The lattice must be the chamber lattice or any full-rank sublattice of
    it.  Per residue class, a polynomial of total degree at most n - d is
    interpolated through a fixed unisolvent pattern of lattice translates
    anchored at the lowest point of the class in the closed chamber, where
    the quasi-polynomial already holds, then checked on VALIDATE_FACTOR
    times as many held-out pattern points; finally the assembled pieces are
    swept against the counts on a window at the apex of the chamber, which
    exercises both boundary rays.  Any mismatch raises FitError: wrong
    chamber or lattice input, never silently repaired.
    """
    if A.dim != 2:
        raise ValueError("chamber fitting is implemented for planar gradings only")
    deg = A.size - A.dim
    if deg < 0:
        raise ValueError("need at least as many columns as the grading rank")
    monos = sorted(
        ((i, j) for i in range(deg + 1) for j in range(deg + 1 - i)),
        key=lambda e: (sum(e), e),
    )
    m = len(monos)
    h1, h2 = chamber.inequalities
    det_t = h1[0] * h2[1] - h1[1] * h2[0]
    if det_t == 0:
        raise ValueError("chamber inequalities are linearly dependent")

    def to_z(u):
        return (h1[0] * u[0] + h1[1] * u[1], h2[0] * u[0] + h2[1] * u[1])

    def to_u(z):
        # inverse of to_z; exact on images of integer points
        a = h2[1] * z[0] - h1[1] * z[1]
        b = -h2[0] * z[0] + h1[0] * z[1]
        if a % det_t or b % det_t:
            raise FitError("internal: point is not an integer-point image")
        return (a // det_t, b // det_t)

    w1, w2 = _quadrant_basis(lattice, to_z)
    fit_k, val_k = _design_k_points(deg, VALIDATE_FACTOR * m)
    # the pattern as u-offsets from an anchor: an integer linear image of
    # the k-grid, so the fit points stay unisolvent
    steps = [
        to_u((k[0] * w1[0] + k[1] * w2[0], k[0] * w1[1] + k[1] * w2[1]))
        for k in fit_k + val_k
    ]
    design = [[v[0] ** i * v[1] ** j for (i, j) in monos] for v in steps[:m]]
    inv = _invert_fractions(design)
    if inv is None:
        raise FitError("internal: interpolation design is singular")

    # integer form of the design inverse: coefficient numerators over inv_den
    inv_den = lcm(*(f.denominator for row in inv for f in row))
    inv_num = [[int(f * inv_den) for f in row] for row in inv]

    # every class meets the half-open parallelogram on w1 and w2, which lies
    # in the chamber below this height
    anchors = _lowest_points(chamber, lattice, w1[0] + w1[1] + w2[0] + w2[1])
    pieces = {}
    for res in lattice.residues():
        anchor = anchors[res]
        u_pts = [(anchor[0] + v[0], anchor[1] + v[1]) for v in steps]
        vals = [count(A, u) for u in u_pts]
        # p(u) = q(u - anchor), q with numerators nums over inv_den
        nums = [
            sum(f * v for f, v in zip(row, vals[:m]) if f) for row in inv_num
        ]
        for v, u, val in zip(steps[m:], u_pts[m:], vals[m:]):
            acc = sum(n * v[0] ** i * v[1] ** j for (i, j), n in zip(monos, nums) if n)
            if acc != val * inv_den:
                raise FitError(
                    f"validation failed at {u} for residue {res}: "
                    "wrong chamber or lattice input"
                )
        q = dict(zip(monos, nums))
        pieces[res] = Polynomial._from_ints(2, inv_den, _taylor_shift(q, anchor))

    result = QuasiPolynomial(lattice, pieces)
    # apex-window sweep, first 4096 points: the tip and stretches of both rays
    left = 4096
    for y, lo, hi in _window_rows(chamber, _sweep_height(chamber)):
        hi = min(hi, lo + left - 1)
        for x, value in zip(range(lo, hi + 1), result.eval_row(y, lo, hi)):
            if value != count(A, (x, y)):
                raise FitError(
                    f"boundary sweep failed at {(x, y)}: wrong chamber or lattice input"
                )
        left -= hi - lo + 1
        if not left:
            break
    return result
