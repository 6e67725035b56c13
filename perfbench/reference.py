"""Independent count references: enumeration written for the benchmark alone.

Nothing here imports vpfbetti or the test suite.  A bigraded ring with columns
(d_i, 1) is grouped by distinct degree e_1 < ... < e_r with multiplicities
m_1 .. m_r.  A point (mu, t) then counts the tuples k with sum k_j = t and
sum e_j k_j = mu, each weighted by prod C(k_j + m_j - 1, m_j - 1), the number
of ways to spread k_j among m_j equal columns.  The loop runs over k_1 ..
k_{r-2}; the last two k are solved from the two linear equations.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb


def _ways(k: int, m: int) -> int:
    return comb(k + m - 1, m - 1)


def count_bigraded(degrees, point) -> int:
    """Number of monomials of bidegree (mu, t) in columns (d, 1)."""
    mu, t = point
    groups = sorted(Counter(int(d) for d in degrees).items())
    if mu < 0 or t < 0:
        return 0
    if len(groups) == 1:
        (e, m), = groups
        return _ways(t, m) if mu == e * t else 0
    *outer, (ea, ma), (eb, mb) = groups

    def solve(s, m, weight):
        # k_a + k_b = s and ea k_a + eb k_b = m
        num = m - ea * s
        if num < 0 or num % (eb - ea):
            return 0
        kb = num // (eb - ea)
        if kb > s:
            return 0
        return weight * _ways(s - kb, ma) * _ways(kb, mb)

    def walk(i, s, m, weight):
        if i == len(outer):
            return solve(s, m, weight)
        e, mult = outer[i]
        total = 0
        for k in range(min(s, m // e) + 1):
            total += walk(i + 1, s - k, m - e * k, weight * _ways(k, mult))
        return total

    return walk(0, t, mu, 1)


def count_general(columns, point) -> int:
    """Number of lambda >= 0 with sum lambda_j * column_j == point (brute force)."""
    cols = [tuple(int(x) for x in c) for c in columns]
    target = tuple(int(x) for x in point)
    if any(x < 0 for x in target):
        return 0

    def rec(j, rest):
        if j == len(cols):
            return 1 if all(x == 0 for x in rest) else 0
        col = cols[j]
        limit = min((r // c for r, c in zip(rest, col) if c), default=0)
        return sum(
            rec(j + 1, tuple(r - k * c for r, c in zip(rest, col)))
            for k in range(limit + 1)
        )

    return rec(0, target)


def _self_check():
    """Cross-check the two enumerations against each other on small points."""
    for degrees in ((2, 3, 6), (1, 1, 2, 3), (2, 3, 6, 7), (1, 1, 2, 2, 3, 3)):
        cols = [(d, 1) for d in degrees]
        for mu, t in itertools.product(range(25), range(7)):
            a = count_bigraded(degrees, (mu, t))
            b = count_general(cols, (mu, t))
            if a != b:
                raise AssertionError(f"{degrees} at {(mu, t)}: {a} != {b}")


if __name__ == "__main__":
    _self_check()
    print("reference enumerations agree")
