import pytest

from oracles import lattice_from_columns
from vpfbetti import hilbert, lattices
from vpfbetti.chambers import (
    Chamber,
    DegenerateGradingError,
    chamber_complex_2xn,
    global_lattice,
    locate,
)
from vpfbetti.counting import DegreeMatrix
from vpfbetti.hilbert import KappaNumerator, hf_bigraded_ring
from vpfbetti.regions import region_decomposition


def test_chambers_2367():
    chambers = chamber_complex_2xn([2, 3, 6, 7])
    assert [c.generators for c in chambers] == [
        ((2, 1), (3, 1)),
        ((3, 1), (6, 1)),
        ((6, 1), (7, 1)),
    ]


def test_chambers_236_inequalities():
    c1, c2 = chamber_complex_2xn([2, 3, 6])
    assert c1.inequalities == ((1, -2), (-1, 3))
    assert c2.inequalities == ((1, -3), (-1, 6))


def test_chambers_duplicates_collapse():
    chambers = chamber_complex_2xn([5, 5, 5, 9])
    assert len(chambers) == 1
    assert chambers[0].generators == ((5, 1), (9, 1))
    # index pairs still refer to original columns
    assert set(chambers[0].index_set) == {(0, 3), (1, 3), (2, 3)}


def test_repeated_degrees_keep_the_chamber_lattices():
    # a repeated degree repeats pair lattices but adds none
    repeated = chamber_complex_2xn([1, 1, 1, 2, 2, 3, 3, 3, 7])
    distinct = chamber_complex_2xn([1, 2, 3, 7])
    assert [c.lattice for c in repeated] == [c.lattice for c in distinct]
    assert [c.lattice.det for c in distinct] == [6, 30, 60]


def test_chambers_need_sorted_input():
    with pytest.raises(ValueError):
        chamber_complex_2xn([3, 2, 6])


def test_chambers_degenerate():
    with pytest.raises(DegenerateGradingError):
        chamber_complex_2xn([4, 4, 4])


def test_index_set_and_lattices():
    c1, c2 = chamber_complex_2xn([2, 3, 6])
    assert set(c1.index_set) == {(0, 1), (0, 2)}
    assert set(c2.index_set) == {(0, 2), (1, 2)}
    assert c1.lattice.det == 4  # pair lattices of gaps 1, 4, 3 intersected
    assert c2.lattice.det == 12


def test_locate_interior():
    chambers = chamber_complex_2xn([2, 3, 6])
    assert locate(chambers, (7, 3)) == (0,)


def test_locate_shared_boundary():
    chambers = chamber_complex_2xn([2, 3, 6])
    assert locate(chambers, (9, 3)) == (0, 1)


def test_locate_outside():
    chambers = chamber_complex_2xn([2, 3, 6])
    assert locate(chambers, (1, 1)) == ()


def test_chambers_tile_positive_cone():
    degrees = [2, 3, 6]
    chambers = chamber_complex_2xn(degrees)
    for mu in range(0, 40):
        for t in range(0, 7):
            inside = (mu, t) == (0, 0) or (t > 0 and min(degrees) * t <= mu <= max(degrees) * t)
            located = locate(chambers, (mu, t))
            assert bool(located) == inside
            strict = [
                i for i in located
                if all(h[0] * mu + h[1] * t > 0 for h in chambers[i].inequalities)
            ]
            assert len(strict) <= 1  # interiors are disjoint


def test_columns_lie_on_chamber_rays():
    degrees = [2, 3, 6, 7]
    chambers = chamber_complex_2xn(degrees)
    rays = {g for c in chambers for g in c.generators}
    for d in degrees:
        assert (d, 1) in rays


def test_global_lattice_values():
    assert global_lattice([2, 3, 6]).det == 12
    assert global_lattice([1, 2]).det == 1
    assert global_lattice([2, 4]).det == 2


def test_global_lattice_sublattice_of_chamber_lattices():
    degrees = [2, 3, 6, 7]
    glat = global_lattice(degrees)
    for c in chamber_complex_2xn(degrees):
        assert all(c.lattice.contains(b) for b in glat.basis)


def test_global_lattice_degenerate():
    with pytest.raises(DegenerateGradingError):
        global_lattice([3, 3])


def test_chamber_quadrant():
    # the quadrant is a cone but no degree interval, so it is not a chamber
    square = lattice_from_columns([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="lo < hi"):
        Chamber(generators=((1, 0), (0, 1)), index_set=(), lattice=square)


def test_chamber_from_generators_dependent():
    square = lattice_from_columns([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        Chamber(generators=((2, 4), (1, 2)), index_set=(), lattice=square)


def test_chamber_derives_its_inequalities_from_its_generators():
    # generators ((lo, 1), (hi, 1)) with lo < hi give lo*t <= mu <= hi*t
    square = lattice_from_columns([(1, 0), (0, 1)])
    for generators in [((2, 4), (1, 2)), ((3, 1), (2, 1)), ((2, 1), (2, 1))]:
        with pytest.raises(ValueError, match="lo < hi"):
            Chamber(generators=generators, index_set=(), lattice=square)
    c = Chamber(generators=((-2, 1), (5, 1)), index_set=(), lattice=square)
    assert c.inequalities == ((1, 2), (-1, 5))
    assert c.contains((-6, 3)) and c.contains((15, 3)) and c.contains((0, 0))
    assert not c.contains((-7, 3)) and not c.contains((16, 3)) and not c.contains((0, -1))


def test_the_ring_path_builds_its_lattices_without_a_hermite_normal_form(monkeypatch, fresh_tables):
    def hnf(rows):
        raise AssertionError("the ring path called hnf")

    monkeypatch.setattr(lattices, "hnf", hnf)
    degrees = (2, 3, 6, 7, 11)
    assert [c.lattice.det for c in chamber_complex_2xn(degrees)] == [180, 4320, 1800, 360]
    assert global_lattice(degrees).det == 21600
    assert hilbert._ring(degrees).lattice == global_lattice(degrees)
    assert hf_bigraded_ring(degrees, (40, 6)).chamber == 2
    unit = KappaNumerator.from_terms(DegreeMatrix.bigraded(degrees), [((0, 0), 1)])
    assert region_decomposition(unit).fits
