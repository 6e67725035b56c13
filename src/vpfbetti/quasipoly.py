"""Quasi-polynomials with respect to a lattice, and the chamber quasi-polynomials of a ring.

A quasi-polynomial stores one rational-coefficient polynomial per residue
class of a full-rank sublattice of Z^2.  fit_chamber_qp assembles a bigraded
ring's counting function on a closed chamber from the ring's cached partition
waves (`waves.py`) and checks it against the count table at the chamber's
apex; a mismatch is a hard structural error, never a silent repair.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, gcd, lcm
from types import MappingProxyType

from .chambers import Chamber
from .counting import DegreeMatrix, count_row
from .lattices import Lattice


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
        nvars = operator.index(nvars)
        coeffs = {}
        for exp, c in dict(terms).items():
            exp = tuple(map(operator.index, exp))
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"exponent {exp} is not {nvars} nonnegative integers")
            coeffs[exp] = Fraction(c)
        den = lcm(*(c.denominator for c in coeffs.values()))
        return cls._from_ints(
            nvars, den, {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
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
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
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
        if len(a) != self.nvars:
            raise ValueError("point dimension mismatch")
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


class QuasiPolynomial(_Frozen):
    """One polynomial in (mu, t) per residue class of a planar lattice.

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
        if any(piece.nvars != 2 for piece in table.values()):
            raise ValueError("every piece must be a polynomial in (mu, t)")
        zero = Polynomial.zero(2)
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

        Once per row period of the lattice, a class's piece is looked up by
        its residue and t put into its integer numerators, leaving integer
        coefficients in mu over its den, of degree D in mu.  An integer
        Horner loop gives the class's values at its first D + 1 points, and
        a non-integer value there raises FitError.  Along a class the values
        are a polynomial of degree D in the point's rank, so once they are
        integers at D + 1 consecutive points they are integers at every
        point.  A long class, one with more than 4 * (D + 2) points, fills
        the rest by running sums of its forward differences, which costs
        less past that length than Horner at every point; a shorter class
        runs Horner at every point.
        """
        t, lo, hi = operator.index(t), operator.index(lo), operator.index(hi)
        residue, pieces = self.lattice._residue, self.pieces
        m = self.lattice.row_period
        out = [0] * max(hi - lo + 1, 0)
        for first in range(lo, min(lo + m, hi + 1)):
            poly = pieces[residue(first, t)]
            top = max(poly._nums, default=(0,))[0]  # exponents are (mu, t) pairs
            coeffs = [0] * (top + 1)  # highest power of mu first
            for (i, j), n in poly._nums.items():
                coeffs[top - i] += n * t**j
            den = poly.den
            long = hi - first >= 4 * (top + 2) * m  # more than 4 * (top + 2) points
            for mu in range(first, first + (top + 1) * m if long else hi + 1, m):
                acc = 0
                for c in coeffs:
                    acc = acc * mu + c
                value, rest = divmod(acc, den)
                if rest:
                    raise FitError(f"non-integer piece value {Fraction(acc, den)} at {(mu, t)}")
                out[mu - lo] = value
            if long:
                values = out[first - lo:first - lo + (top + 1) * m:m]
                heads = []  # the differences of orders 0..top - 1 at the first point
                for _ in range(top):
                    heads.append(values[0])
                    values = list(map(operator.sub, values[1:], values))
                # the difference of order top is constant along the class
                values = repeat(values[0], (hi - first) // m + 1 - top)
                for head in reversed(heads):
                    values = accumulate(values, initial=head)
                out[first - lo::m] = values
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


def _sweep_rows(chamber: Chamber):
    """Rows (t, lo*t, hi*t) of the closed chamber lo*t <= mu <= hi*t, t = 0..top.

    The apex window a chamber fit is swept over: top is the least 4 * 2^k
    with (hi - lo) * top^2 >= 2048, so even a narrow chamber shows over
    a thousand points.
    """
    (lo, _), (hi, _) = chamber.generators
    top = 4
    while (hi - lo) * top * top < 2048:
        top *= 2
    return ((t, lo * t, hi * t) for t in range(top + 1))


def fit_chamber_qp(A: DegreeMatrix, chamber: Chamber, lattice: Lattice) -> QuasiPolynomial:
    """The counting quasi-polynomial of a bigraded A on a closed chamber, over a lattice.

    The lattice must be the chamber lattice or a full-rank sublattice of it.
    The pieces come from the partition waves that `hilbert` caches for A's
    ring (`waves.RingWaves.chamber_qp`), the ones its ring queries read, and
    are swept against the count table at the chamber's apex, on both rays; a
    mismatch raises FitError: wrong chamber or lattice input, never silently
    repaired.  A wave table over the budget raises BudgetExceededError.
    """
    if not A.is_bigraded() or len(set(A.degrees)) < 2:
        raise ValueError("chambers exist only for a bigraded ring with two distinct degrees")
    from .hilbert import _ring  # hilbert caches each ring's waves and imports this module

    result = _ring(A.degrees).waves.chamber_qp(chamber, lattice)
    # apex-window sweep, first 4096 points: the tip and stretches of both rays
    left = 4096
    for y, lo, hi in _sweep_rows(chamber):
        hi = min(hi, lo + left - 1)
        got, want = result.eval_row(y, lo, hi), count_row(A, y, lo, hi)
        if got != want:
            x = next(x for x, g, w in zip(range(lo, hi + 1), got, want) if g != w)
            raise FitError(
                f"boundary sweep failed at {(x, y)}: wrong chamber or lattice input"
            )
        left -= hi - lo + 1
        if not left:
            break
    return result
