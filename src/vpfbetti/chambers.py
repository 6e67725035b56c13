"""Chamber decomposition of the positive cone for bigraded degree matrices.

For columns (d_1, 1) <= ... <= (d_n, 1) the maximal chambers are the cones
spanned by consecutive distinct degrees.  Each chamber records the index
pairs whose cone contains it and the intersection lattice of those pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .lattices import Lattice, lattice_from_columns, lattice_intersect


class DegenerateGradingError(ValueError):
    """Fewer than two distinct generator degrees: no planar chamber geometry."""


@dataclass(frozen=True)
class Chamber:
    """Closed 2-dimensional cone cut out by two integer linear forms."""

    generators: tuple[tuple[int, int], tuple[int, int]]
    inequalities: tuple[tuple[int, int], tuple[int, int]]
    index_set: tuple[tuple[int, int], ...]
    lattice: Lattice

    def contains(self, u) -> bool:
        return all(h[0] * u[0] + h[1] * u[1] >= 0 for h in self.inequalities)

    def strictly_contains(self, u) -> bool:
        return all(h[0] * u[0] + h[1] * u[1] > 0 for h in self.inequalities)


def pair_lattice(d_i: int, d_j: int) -> Lattice:
    """Lattice spanned by (d_i, 1) and (d_j, 1); its index in Z^2 is |d_j - d_i|."""
    return lattice_from_columns([(d_i, 1), (d_j, 1)])


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
            "need at least two distinct generator degrees; the single-degree "
            "case is supported only through direct counting"
        )
    chambers = []
    for lo, hi in zip(distinct, distinct[1:]):
        index_set = tuple(
            (i, j)
            for i in range(len(degrees))
            for j in range(i + 1, len(degrees))
            if degrees[i] != degrees[j]
            and min(degrees[i], degrees[j]) <= lo
            and max(degrees[i], degrees[j]) >= hi
        )
        # repeated degrees repeat a pair lattice; intersect each distinct one once
        lat = None
        for pair in sorted({(degrees[i], degrees[j]) for i, j in index_set}):
            piece = pair_lattice(*pair)
            lat = piece if lat is None else lattice_intersect(lat, piece)
        chambers.append(
            Chamber(
                generators=((lo, 1), (hi, 1)),
                inequalities=((1, -lo), (-1, hi)),
                index_set=index_set,
                lattice=lat,
            )
        )
    return tuple(chambers)


def chamber_from_generators(g1, g2) -> Chamber:
    """Manually supplied planar chamber (for general 2 x n degree matrices).

    The two inequalities are the primitive integer forms vanishing on one
    generator ray and positive on the other; the attached lattice is the span
    of the generators.
    """
    g1 = (index(g1[0]), index(g1[1]))
    g2 = (index(g2[0]), index(g2[1]))

    def form(on, toward):
        from math import gcd

        h = (-on[1], on[0])
        s = h[0] * toward[0] + h[1] * toward[1]
        if s == 0:
            raise ValueError("generators are linearly dependent")
        if s < 0:
            h = (-h[0], -h[1])
        g = gcd(abs(h[0]), abs(h[1]))
        return (h[0] // g, h[1] // g)

    return Chamber(
        generators=(g1, g2),
        inequalities=(form(g1, g2), form(g2, g1)),
        index_set=(),
        lattice=lattice_from_columns([g1, g2]),
    )


def locate(chambers, u) -> tuple[int, ...]:
    """Indices of every chamber whose closure contains u; empty iff outside."""
    u = (Fraction(u[0]), Fraction(u[1]))
    return tuple(i for i, c in enumerate(chambers) if c.contains(u))


def global_lattice(degrees) -> Lattice:
    """Intersection of the pair lattices over all pairs of distinct degrees."""
    distinct = sorted(set(index(d) for d in degrees))
    if len(distinct) < 2:
        raise DegenerateGradingError("need at least two distinct generator degrees")
    lat = None
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            piece = pair_lattice(distinct[i], distinct[j])
            lat = piece if lat is None else lattice_intersect(lat, piece)
    return lat
