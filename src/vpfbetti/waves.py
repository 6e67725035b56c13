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
"""

from __future__ import annotations

import sys
import threading
from itertools import accumulate, product
from math import comb, lcm
from operator import add, sub

from . import kernels
from .quasipoly import VALIDATE_FACTOR, FitError


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
        if m < 0:
            return 0
        table = self._table
        if m < len(table):
            return table[m]
        if m < self.threshold:
            return self._grow(m + 1)[m]
        q, r = divmod(m, self.period)
        diffs = self._classes.get(r)
        if diffs is None:
            diffs = self._classes[r] = self._fit(self._grow(self.threshold), r)
        return sum(comb(q, i) * d for i, d in enumerate(diffs))

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

    def _fit(self, table, r):
        """Forward differences of q -> P(r + q L), checked on the class's held-out values."""
        values = table[r::self.period]
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
        return diffs


class RingWaves:
    """count(mu, t) of the bigraded ring with these degrees, from its partition waves.

    Equal multisets of parts share one wave, and so one table.  A wave table
    over the budget raises BudgetExceededError.
    """

    def __init__(self, degrees):
        degrees = list(degrees)
        e = sorted(set(degrees))
        mult = [degrees.count(d) for d in e]
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
        """The number of monomials of bidegree (mu, t); zero for t < 0."""
        if t < 0:
            return 0
        a = t + self._a_shift
        total = 0
        for coeff, r0, ej, shift, wave in self._terms:
            m = mu - ej * (a - r0) + shift
            if m >= 0:
                total += coeff * comb(a, r0) * wave(m)
        return total
