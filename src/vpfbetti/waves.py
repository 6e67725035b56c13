"""Counts of a bigraded ring as signed sums of one-variable partition counts.

For the ring with deg T_i = (d_i, 1), let e_1 < ... < e_k be the distinct
degrees, m_j the multiplicity of e_j, N = sum m_j and a = t + N - 1.
Partial fractions in y of prod_j (1 - x^{e_j} y)^{-m_j} give, for t >= 0,

    count(mu, t) = sum_j sum_{r_0 + sum_{l != j} r_l = m_j - 1}
        C(a, r_0) prod_{l != j} C(-m_l, r_l) prod_{l < j} (-1)^{k_l}
        P_{j,k}(mu - e_j (a - r_0) + sum_{l > j} e_j k_l + sum_{l < j} e_l k_l)

with k_l = m_l + r_l, where P_{j,k}(m) counts the partitions of m into the
parts |e_j - e_l|, part l allowed k_l times (in k_l kinds: the coefficient
of x^m in prod_{l != j} (1 - x^{|e_j - e_l|})^{-k_l}), and is 0 for m < 0
(Sylvester's waves; Beck, Discrete Comput. Geom. 32, 2004).  With every m_j = 1 the
inner sum has one term, (-1)^{j-1} P_j(mu - e_j t - sum_{l < j} (e_j - e_l)), j
counted from 1.

Each P is a quasi-polynomial in m of degree D = sum k_l - 1 whose period L is
the lcm of its parts: on the class r mod L it is a polynomial in q = m // L.
Below the threshold L (D + 1) (1 + VALIDATE_FACTOR), P is read from an exact
table that reaches the largest argument read so far; at or past it, P reads
the class polynomial, built from the class's first D + 1 values of the
threshold-long table by Newton forward differences and checked on the rest
of them.  A table is a list of Python ints, so its size is checked in bytes
before it is allocated: a pointer and an int object per cell, the int no
larger than a bound on P there, against the bytes of the largest count table
(`kernels.MAX_TABLE_CELLS` cells of 8 bytes); over that, BudgetExceededError.

Read as quasi-polynomials, with C(q, i) = (-1)^i C(i - q - 1, i) for q < 0,
all the terms sum to 0, as the count does above the top degree.  So on a
closed chamber the count is the sum of the terms at or below its lower wall
and minus the sum of those above it (wall crossing; Szenes-Vergne, Adv. Appl.
Math. 30, 2003): a point's `RingWaves.count` and a chamber's `chamber_qp` (read
by `quasipoly.fit_chamber_qp`) each read the side that needs smaller tables.
"""

from __future__ import annotations

import sys
import threading
from itertools import accumulate, product
from math import comb, factorial, lcm
from operator import add, sub

from . import kernels
from .quasipoly import FitError, Polynomial, QuasiPolynomial

# held-out values per class-polynomial coefficient, checked before a class
# polynomial is used
VALIDATE_FACTOR = 3


def _partition_table(parts, size):
    """P(0), ..., P(size - 1) of prod (1 - x^part)^(-times) over the (part, times) pairs."""
    table = [0] * size
    table[0] = 1
    for p, times in parts:
        for _ in range(times):  # one factor 1 / (1 - x^p): running sums p apart
            if p * p <= size:  # p classes mod p, each summed at once
                for r in range(p):
                    table[r::p] = accumulate(table[r::p])
            else:  # fewer than p blocks of p values, each added onto the next
                for s in range(p, size, p):
                    table[s:s + p] = map(add, table[s:s + p], table[s - p:s])
    return table


def _binomial(q, i):
    """C(q, i) for any integer q: (-1)^i C(i - q - 1, i) for q < 0."""
    return comb(q, i) if q >= 0 else (-1) ** i * comb(i - q - 1, i)


class _Wave:
    """P of one multiset of parts: an exact table of its first values, then class polynomials.

    The table grows, under the ring's lock, to the largest argument read below
    the threshold, at least doubling each time, and is checked against the
    budget before it is allocated.  A class polynomial is a pure function of
    the threshold-long table, so threads that race on one store equal values.
    """

    def __init__(self, parts, lock):
        self.parts = parts  # ((part, times), ...)
        self.degree = sum(times for _, times in parts) - 1
        self.period = lcm(*(p for p, _ in parts))
        self.threshold = self.period * (self.degree + 1) * (1 + VALIDATE_FACTOR)
        self._lock = lock
        self._table = [1]  # P(0)
        self._classes = {}  # r -> forward differences of P(r + q L) at q = 0

    def __call__(self, m: int) -> int:
        """P(m) for m >= 0; below 0, the value of P's quasi-polynomial."""
        table = self._table
        if 0 <= m < len(table):
            return table[m]
        if 0 <= m < self.threshold:
            return self._grow(m + 1)[m]
        q, r = divmod(m, self.period)
        return sum(_binomial(q, i) * d for i, d in enumerate(self.diffs(r)))

    def diffs(self, r):
        """Forward differences at q = 0 of q -> P(r + q L), checked on the class's other values."""
        diffs = self._classes.get(r)
        if diffs is None:
            values = self._grow(self.threshold)[r::self.period]
            diffs, row = [], values[: self.degree + 1]
            while row:
                diffs.append(row[0])
                row = list(map(sub, row[1:], row[:-1]))
            for q in range(self.degree + 1, len(values)):
                if sum(comb(q, i) * d for i, d in enumerate(diffs)) != values[q]:
                    raise FitError(
                        f"the partitions into the parts {self.parts} are not a polynomial "
                        f"of degree {self.degree} on the class {r} mod {self.period}"
                    )
            self._classes[r] = diffs
        return diffs

    def _grow(self, size):
        """The table, rebuilt to at least `size` values if it is shorter."""
        with self._lock:
            table = self._table
            if len(table) < size:
                size = min(self.threshold, max(size, 2 * len(table)))
                # P(m) <= C(m // p + D + 1, D + 1), p the least part
                top = comb((size - 1) // self.parts[0][0] + self.degree + 1, self.degree + 1)
                need = size * (8 + sys.getsizeof(top))
                if need > 8 * kernels.MAX_TABLE_CELLS:
                    raise kernels.BudgetExceededError(
                        f"partition table of the parts {self.parts} to {size - 1} needs "
                        f"about {need} bytes, over the budget of {8 * kernels.MAX_TABLE_CELLS}"
                    )
                table = self._table = _partition_table(self.parts, size)
        return table


class RingWaves:
    """count(mu, t) of the bigraded ring with these degrees, from its partition waves.

    Equal multisets of parts share one wave, and so one table.  A wave table
    over the budget raises BudgetExceededError.
    """

    def __init__(self, degrees):
        degrees = list(degrees)
        e = sorted(set(degrees))
        mult = [degrees.count(d) for d in e]
        self._degrees = e
        self._a_shift = len(degrees) - 1
        lock = threading.Lock()
        waves = {}
        # (coefficient, r_0, e_j, argument shift, wave), one per (j, r)
        self._terms = []
        for j, ej in enumerate(e):
            others = [l for l in range(len(e)) if l != j]
            for rs in product(range(mult[j]), repeat=len(others)):
                if sum(rs) >= mult[j]:
                    continue
                coeff, shift, parts = 1, 0, {}
                for l, r in zip(others, rs):
                    k = mult[l] + r
                    coeff *= (-1) ** r * comb(k - 1, r)  # C(-m_l, r_l)
                    if l < j:
                        coeff *= (-1) ** k
                        shift += e[l] * k
                    else:
                        shift += ej * k
                    part = abs(ej - e[l])
                    parts[part] = parts.get(part, 0) + k
                key = tuple(sorted(parts.items()))
                if key not in waves:
                    waves[key] = _Wave(key, lock)
                self._terms.append((coeff, mult[j] - 1 - sum(rs), ej, shift, waves[key]))

    def count(self, mu: int, t: int) -> int:
        """The number of monomials of bidegree (mu, t); zero outside the cone.

        The point's lower wall is the largest degree below the top with e t <= mu.
        """
        e = self._degrees
        if t < 0 or not e[0] * t <= mu <= e[-1] * t:
            return 0
        a = t + self._a_shift
        wall = max((d for d in e[:-1] if d * t <= mu), default=e[0])
        terms, sign = self._side(wall, lambda term: mu - term[2] * (a - term[1]) + term[3])
        return self._read(mu, t, terms, sign)

    def _read(self, mu, t, terms, sign) -> int:
        """sign times the sum of these terms at (mu, t), with P(m) = 0 for m < 0 if sign is 1."""
        a, total = t + self._a_shift, 0
        for coeff, r0, ej, shift, wave in terms:
            m = mu - ej * (a - r0) + shift
            if m >= 0 or sign < 0:
                total += coeff * comb(a, r0) * wave(m)
        return sign * total

    def _side(self, wall, reach):
        """(terms, sign) of the side of `wall` whose distinct waves need the fewer table values.

        Those above it, negated, read class polynomials, so need each wave's
        threshold-long table; those at or below it need each wave's table to
        the largest argument `reach(term)` of its terms.  A tie reads below.
        """
        lower = [term for term in self._terms if term[2] <= wall]
        upper = [term for term in self._terms if term[2] > wall]
        need = {}  # wave -> table values
        for term in lower:
            need[term[4]] = max(need.get(term[4], 0), min(reach(term) + 1, term[4].threshold))
        if sum(need.values()) <= sum(wave.threshold for wave in {term[4] for term in upper}):
            return lower, 1
        return upper, -1

    def chamber_qp(self, chamber, lattice) -> QuasiPolynomial:
        """The counting quasi-polynomial on a closed chamber, one piece per residue of `lattice`.

        Read from one side of the chamber's lower wall, each whole wave table needed.
        """
        wall = chamber.generators[0][0]
        return self._assemble(*self._side(wall, lambda term: term[4].threshold), lattice)

    def _assemble(self, terms, sign, lattice) -> QuasiPolynomial:
        """sign times the sum of these terms, one piece per residue of the lattice.

        On the finer class through a residue every term's argument m stays in
        one class r mod L, where the term is a polynomial of total degree at
        most N - 2; their sum is the residue's piece, because the chamber's
        sum is one polynomial on the lattice's class and the finer class is
        Zariski-dense in it.
        """
        residues = lattice.residues()
        # the class r mod L of each term's argument at every residue
        classes = [
            [(x - ej * (y + self._a_shift - r0) + shift) % wave.period for x, y in residues]
            for _, r0, ej, shift, wave in terms
        ]
        polys = [
            {r: self._term_poly(term, r, sign) for r in set(column)}
            for term, column in zip(terms, classes)
        ]
        columns = [[by_class[r] for r in column] for by_class, column in zip(polys, classes)]
        pieces = {res: Polynomial._sum(2, parts) for res, parts in zip(residues, zip(*columns))}
        return QuasiPolynomial(lattice, pieces)

    def _term_poly(self, term, r, sign) -> Polynomial:
        """sign times the term, as a polynomial in (mu, t), where its argument is r mod L.

        The term is coeff C(a, r_0) sum_i d_i C(q, i).  With s = mu - e_j t,
        the argument m is s + c + r and q = (s + c) / L, so the wave's class
        polynomial is sum_i d_i (D! / i!) L^(D - i) prod_{k < i} (s + c - k L)
        over L^D D!, and C(a, r_0) is prod_{k < r_0} (t + N - 1 - k) over r_0!.
        """
        coeff, r0, ej, shift, wave = term
        top, period = wave.degree, wave.period
        c = shift - ej * (self._a_shift - r0) - r
        s_nums, falling = [0] * (top + 1), [1]  # low degree first
        for i, d in enumerate(wave.diffs(r)):
            weight = d * (factorial(top) // factorial(i)) * period ** (top - i)
            for k, f in enumerate(falling):
                s_nums[k] += weight * f
            falling = _times_linear(falling, c - i * period)
        t_nums = [1]
        for k in range(r0):
            t_nums = _times_linear(t_nums, self._a_shift - k)
        nums = {}  # s^a = (mu - e_j t)^a, expanded
        for a, sa in enumerate(s_nums):
            for i in range(a + 1):
                base = sign * coeff * sa * comb(a, i) * (-ej) ** (a - i)
                for b, tb in enumerate(t_nums):
                    nums[i, a - i + b] = nums.get((i, a - i + b), 0) + base * tb
        return Polynomial._from_ints(2, period**top * factorial(top) * factorial(r0), nums)


def _times_linear(nums, c):
    """Coefficients, low degree first, of p(x) (x + c) from those of p(x)."""
    return [a + c * b for a, b in zip([0, *nums], [*nums, 0])]
