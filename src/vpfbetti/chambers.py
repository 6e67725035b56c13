"""Chamber decomposition of the positive cone for bigraded degree matrices.

Under the grading deg T_i = (d_i, 1) every column lies on a degree ray, so
for columns (d_1, 1) <= ... <= (d_n, 1) the maximal chambers are the closed
degree intervals lo*t <= mu <= hi*t between consecutive distinct degrees.
Each chamber records the index pairs whose cone contains it and the
intersection lattice of those pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index

from .lattices import Lattice, lattice_from_columns, lattice_intersect


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
            "need at least two distinct generator degrees; a ring with one distinct "
            "degree has no chambers (hilbert and hf_bigraded_ring give its values)"
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
                index_set=index_set,
                lattice=lat,
            )
        )
    return tuple(chambers)


def locate(chambers, u) -> tuple[int, ...]:
    """Indices of every chamber whose closure contains u; empty iff outside."""
    u = tuple(map(index, u))
    if len(u) != 2:
        raise ValueError("point dimension mismatch")
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
