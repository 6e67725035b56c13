"""Chamber decomposition of the positive cone for bigraded degree matrices.

Under the grading deg T_i = (d_i, 1) every column lies on a degree ray, so
for columns (d_1, 1) <= ... <= (d_n, 1) the maximal chambers are the closed
degree intervals lo*t <= mu <= hi*t between consecutive distinct degrees.
Each chamber records the index pairs whose cone contains it and the
intersection lattice of those pairs.  The columns (a, 1) and (b, 1) span
the lattice mu = a t mod |b - a|, whose canonical basis is a gcd and a
modular inverse, so no lattice here needs a Hermite normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from math import gcd
from operator import index

from .lattices import Lattice, lattice_intersect


class DegenerateGradingError(ValueError):
    """Fewer than two distinct generator degrees: no planar chamber geometry."""


@dataclass(frozen=True)
class Chamber:
    """The closed cone lo*t <= mu <= hi*t between the degree rays (lo, 1) and (hi, 1).

    Its generators must be ((lo, 1), (hi, 1)) with integers lo < hi, or this
    raises ValueError.  Its `inequalities` are derived: the primitive forms
    (1, -lo) and (-1, hi), each vanishing on one ray and nonnegative on the
    chamber.
    """

    generators: tuple[tuple[int, int], tuple[int, int]]
    index_set: tuple[tuple[int, int], ...]
    lattice: Lattice
    inequalities: tuple[tuple[int, int], tuple[int, int]] = field(init=False)

    def __post_init__(self):
        (lo, s), (hi, r) = ((index(x), index(y)) for x, y in self.generators)
        if s != 1 or r != 1 or lo >= hi:
            raise ValueError(
                f"generators {self.generators} are not ((lo, 1), (hi, 1)) with lo < hi"
            )
        object.__setattr__(self, "generators", ((lo, 1), (hi, 1)))
        object.__setattr__(self, "inequalities", ((1, -lo), (-1, hi)))

    def contains(self, u) -> bool:
        (lo, _), (hi, _) = self.generators
        mu, t = u
        return lo * t <= mu <= hi * t


def pair_lattice(d_i: int, d_j: int) -> Lattice:
    """Lattice spanned by (d_i, 1) and (d_j, 1), d_i != d_j: mu = d_i t mod g, g = |d_j - d_i|.

    Its basis has p = gcd(d_i, g), r = g / p and q = (d_i / p)^-1 mod r, since
    (p, q) lies in it iff 1 = (d_i / p) q mod r; its index in Z^2 is g.
    """
    g = abs(d_j - d_i)
    p = gcd(d_i, g)
    return Lattice(basis=((p, pow(d_i // p, -1, g // p)), (0, g // p)))


def chamber_complex_2xn(degrees) -> tuple[Chamber, ...]:
    """Ordered maximal chambers for columns (d_i, 1), d_1 <= ... <= d_n.

    Duplicate degrees are collapsed for the geometry (they do not create new
    chamber walls); the index sets still refer to the original column
    positions, duplicates included.
    """
    degrees = [index(d) for d in degrees]
    if any(b < a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be nondecreasing")
    distinct = sorted(set(degrees))
    if len(distinct) < 2:
        raise DegenerateGradingError(
            "need at least two distinct generator degrees; a ring with one distinct "
            "degree has no chambers (hilbert and hf_bigraded_ring give its values)"
        )
    chambers = []
    for k in range(1, len(distinct)):
        lo, hi = distinct[k - 1], distinct[k]
        # the degrees are sorted, so each column at or below lo precedes each one at or above hi
        below = [i for i, d in enumerate(degrees) if d <= lo]
        above = [j for j, d in enumerate(degrees) if d >= hi]
        # repeated degrees repeat a pair lattice; intersect each distinct one once
        pairs = product(distinct[:k], distinct[k:])
        lattice = reduce(lattice_intersect, (pair_lattice(a, b) for a, b in pairs))
        chambers.append(Chamber(((lo, 1), (hi, 1)), tuple(product(below, above)), lattice))
    return tuple(chambers)


def locate(chambers, u) -> tuple[int, ...]:
    """Indices of every chamber whose closure contains u; empty iff outside."""
    u = tuple(map(index, u))
    if len(u) != 2:
        raise ValueError("point dimension mismatch")
    return tuple(i for i, c in enumerate(chambers) if c.contains(u))


def global_lattice(degrees) -> Lattice:
    """Intersection of the pair lattices over all pairs of distinct degrees.

    Each pair straddles the chamber above its lower degree, so this is the
    intersection of the chamber lattices.
    """
    return reduce(lattice_intersect, (c.lattice for c in chamber_complex_2xn(sorted(degrees))))
