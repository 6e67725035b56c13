"""Partition waves against the count table, brute force and the chamber quasi-polynomials."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_count
from vpfbetti import hilbert, kernels, waves
from vpfbetti.chambers import chamber_complex_2xn
from vpfbetti.counting import DegreeMatrix, count_row
from vpfbetti.hilbert import hf_bigraded_ring
from vpfbetti.quasipoly import FitError, fit_chamber_qp
from vpfbetti.rees import ci_shifts
from vpfbetti.regions import region_decomposition
from vpfbetti.waves import RingWaves

# 2-6 degrees from 0-12, repeats allowed, at least two distinct
RINGS = st.lists(st.integers(0, 12), min_size=2, max_size=6).filter(lambda d: len(set(d)) > 1)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(RINGS)
def test_waves_equal_count_across_the_band(degrees):
    # count, and in the cone each side of the point's lower wall, whichever
    # side count reads there
    ring = DegreeMatrix.bigraded(degrees)
    ring_waves = RingWaves(degrees)
    e = sorted(set(degrees))
    for t in range(21):
        mus = range(e[0] * t - 3, e[-1] * t + 4)
        row = count_row(ring, t, mus[0], mus[-1])
        assert [ring_waves.count(mu, t) for mu in mus] == row
        for mu, want in zip(mus[3:-3], row[3:-3]):
            wall = max(d for d in e[:-1] if d * t <= mu)
            below = [term for term in ring_waves._terms if term[2] <= wall]
            above = [term for term in ring_waves._terms if term[2] > wall]
            assert ring_waves._read(mu, t, below, 1) == want
            assert ring_waves._read(mu, t, above, -1) == want


@settings(max_examples=40, derandomize=True, deadline=None)
@given(RINGS, st.lists(st.tuples(st.integers(-1, 80), st.integers(-1, 6)), min_size=1, max_size=4))
def test_waves_equal_brute_force(degrees, points):
    ring_waves = RingWaves(degrees)
    columns = [(d, 1) for d in degrees]
    for mu, t in points:
        assert ring_waves.count(mu, t) == brute_count(columns, (mu, t))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from([(2, 3, 6, 7), (2, 3, 4, 5, 6), (2, 2, 5)]), st.randoms(use_true_random=False))
def test_ring_queries_equal_the_chamber_fits_at_far_points(degrees, rng):
    ring = hilbert._ring(degrees)
    for _ in range(4):
        t = rng.randint(0, 10 ** rng.randint(1, 12))
        mu = rng.randint(min(degrees) * t, max(degrees) * t)
        res = hf_bigraded_ring(degrees, (mu, t))
        assert res.value == ring.fit(res.chamber).eval_row(t, mu, mu)[0]


@pytest.mark.parametrize(
    "degrees",
    [(2, 3, 6), (4, 9, 13), (2, 3, 5, 7, 11, 13), (1, 2), (5, 8), (2, 2, 5), (1, 1, 2, 3, 3),
     (2, 2, 2, 7), (3, 3, 4, 4)],
    ids=lambda d: ",".join(map(str, d)),
)
def test_both_sides_of_every_chamber_give_its_quasi_polynomial(degrees):
    # the terms at or below the chamber's lower wall, and minus those above it
    ring, ring_waves = DegreeMatrix.bigraded(degrees), RingWaves(degrees)
    for chamber in chamber_complex_2xn(degrees):
        (lo, _), (hi, _) = chamber.generators
        below = [term for term in ring_waves._terms if term[2] <= lo]
        above = [term for term in ring_waves._terms if term[2] > lo]
        lower = ring_waves._assemble(below, 1, chamber.lattice)
        assert ring_waves._assemble(above, -1, chamber.lattice) == lower
        for t in range(25):
            assert lower.eval_row(t, lo * t, hi * t) == count_row(ring, t, lo * t, hi * t)


def test_a_wave_that_fails_its_held_out_values_raises(monkeypatch):
    # (2, 3, 6) reads the parts (1, 4) at j = 0: period 4, degree 1, so class 0
    # is fitted at 0 and 4 and checked at 8, 12, ...
    real = waves._partition_table

    def corrupted(parts, size):
        table = real(parts, size)
        if parts == ((1, 1), (4, 1)):
            table[12] += 1
        return table

    monkeypatch.setattr(waves, "_partition_table", corrupted)
    ring_waves = RingWaves((2, 3, 6))
    with pytest.raises(FitError):
        ring_waves.count(6 * 10**6, 10**6)


def test_a_wave_table_grows_to_the_largest_argument_read():
    ring_waves = RingWaves((2, 3, 6))  # at j = 0 the parts (1, 4): threshold 32
    (wave,) = {term[-1] for term in ring_waves._terms if term[-1].parts == ((1, 1), (4, 1))}
    assert wave.threshold == 32 and len(wave._table) == 1
    # each point is read below its wall 3, whose waves need fewer values than
    # the 96 of the one above it, the parts (3, 4)
    ring_waves.count(12 + 2 * 3, 3)  # at j = 0 it reads P(mu - 2t), here P(12)
    assert len(wave._table) == 13
    ring_waves.count(15 + 2 * 4, 4)  # P(15): the table doubles
    assert len(wave._table) == 26
    ring_waves.count(6 * 10**6, 10**6)  # past the threshold: the class polynomials
    assert len(wave._table) == 32


def test_a_wave_table_over_the_byte_budget_raises_before_allocating():
    # the part 9,999,999 alone, on both sides of the wall: 4e7 values below its
    # threshold, under the cell budget, but a pointer and an int object each
    # are over its bytes; the point reads past the threshold
    ring_waves = RingWaves((1, 10**7))
    tracemalloc.start()
    try:
        with pytest.raises(kernels.BudgetExceededError, match="bytes"):
            ring_waves.count(10**9, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_point_past_a_wave_over_budget_reads_the_other_side(monkeypatch, fresh_tables):
    # in chamber (1,1)-(3,1) of (1, 3, 4) the terms below the wall read the
    # wave of degree 1, the parts (2, 3), to its threshold 48; those above it
    # read the cheaper waves of the parts (1, 2) and (1, 3), thresholds 16
    # and 24, so the count answers where that wave is over the budget
    degrees, u = (1, 3, 4), (2 * 10**9 + 1, 10**9)
    want = hf_bigraded_ring(degrees, u)
    ring_waves = RingWaves(degrees)
    below = [term for term in ring_waves._terms if term[2] <= 1]
    assert want.chamber == 0 and ring_waves._read(*u, below, 1) == want.value
    fresh_tables()
    real = waves._partition_table

    def over_budget(parts, size):
        if parts == ((2, 1), (3, 1)):
            raise kernels.BudgetExceededError(f"partition table of the parts {parts}")
        return real(parts, size)

    monkeypatch.setattr(waves, "_partition_table", over_budget)
    ring_waves = RingWaves(degrees)
    assert ring_waves.count(*u) == want.value
    below = [term for term in ring_waves._terms if term[2] <= 1]
    with pytest.raises(kernels.BudgetExceededError):
        ring_waves._read(*u, below, 1)
    assert hf_bigraded_ring(degrees, u) == want
    ring = hilbert._ring(degrees)
    assert ring._fits == [None] * len(ring.chambers)


def test_a_ring_has_one_wave_set(monkeypatch, fresh_tables):
    # ring queries, chamber fits and decompositions all read the waves
    # cached with the ring, so each ring builds one RingWaves
    built = []
    real = RingWaves.__init__

    def init(self, degrees):
        built.append(tuple(degrees))
        real(self, degrees)

    monkeypatch.setattr(RingWaves, "__init__", init)
    degrees = (2, 3, 6, 7)
    for u in ((250, 100), (400, 100), (650, 100)):
        hf_bigraded_ring(degrees, u)
    for chamber in chamber_complex_2xn(degrees):
        fit_chamber_qp(DegreeMatrix.bigraded(degrees), chamber, chamber.lattice)
    assert built == [degrees]
    built.clear()
    for d in ((2, 3, 6), (4, 9, 13), (6, 10, 15)):
        region_decomposition(ci_shifts(d).tor(1))
    assert built == [(2, 3, 6), (4, 9, 13), (6, 10, 15)]


def test_each_wave_table_size_built_once_from_eight_threads(monkeypatch, fresh_tables):
    degrees = (2, 2, 3, 5, 5, 7)
    points = [(mu, t) for t in (37, 10**6, 10**9 + 1) for mu in range(2 * t, 7 * t + 1, 5 * t // 23)]
    jobs = [points[k::8] + points[: k + 1] for k in range(8)]  # every job reads the first point
    want = [[hf_bigraded_ring(degrees, u) for u in job] for job in jobs]
    built = []
    real = waves._partition_table

    def table(parts, size):
        built.append((parts, size))  # list.append is atomic across threads
        return real(parts, size)

    monkeypatch.setattr(waves, "_partition_table", table)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # a race shows in some rounds only
            fresh_tables()
            built.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(lambda job: [hf_bigraded_ring(degrees, u) for u in job], job)
                    for job in jobs
                ]
                assert [f.result(timeout=120) for f in futures] == want
            # a wave's table only grows: each size once, in increasing order
            for parts in {parts for parts, _ in built}:
                sizes = [size for p, size in built if p == parts]
                assert sizes == sorted(set(sizes))
    finally:
        sys.setswitchinterval(switch)
