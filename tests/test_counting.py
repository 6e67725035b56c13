import itertools
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from oracles import brute_count
from vpfbetti import BudgetExceededError, counting, kernels
from vpfbetti.counting import DegreeMatrix, count, count_row, series_coeffs
from vpfbetti.hilbert import KappaNumerator, hf_bigraded_ring, hf_module

RING_236 = DegreeMatrix.bigraded([2, 3, 6])
RING_2367 = DegreeMatrix.bigraded([2, 3, 6, 7])


def test_count_origin():
    assert count(RING_2367, (0, 0)) == 1


def test_count_pairs():
    assert count(RING_2367, (9, 2)) == 2  # {2+7, 3+6}


def test_count_single():
    assert count(RING_2367, (5, 2)) == 1  # only 2+3


def test_count_zero_outside():
    assert count(RING_236, (10, 2)) == 0


def test_count_negative_coordinates():
    assert count(RING_236, (-1, 3)) == 0
    assert count(RING_236, (4, -2)) == 0


def test_count_matches_brute_force_on_box():
    for mu in range(0, 25):
        for t in range(0, 6):
            assert count(RING_236, (mu, t)) == brute_count(RING_236.columns, (mu, t))


def test_count_general_dimension():
    A = DegreeMatrix.from_columns([(1, 0), (0, 1), (1, 1)])
    for x in range(6):
        for y in range(6):
            assert count(A, (x, y)) == brute_count(A.columns, (x, y))


def test_count_column_permutation_invariant():
    B = DegreeMatrix.bigraded([6, 2, 3])
    for mu in range(0, 25):
        for t in range(0, 5):
            assert count(RING_236, (mu, t)) == count(B, (mu, t))


def test_count_column_recursion():
    # dropping the last column: count(A, u) = sum_k count(A', u - k*a_n)
    A = DegreeMatrix.bigraded([2, 3, 6])
    Ap = DegreeMatrix.bigraded([2, 3])
    for mu in range(0, 20):
        for t in range(0, 5):
            total = sum(
                count(Ap, (mu - 6 * k, t - k)) for k in range(t + 1)
            )
            assert count(A, (mu, t)) == total


def test_series_single_diagonal():
    A = DegreeMatrix.from_columns([(1, 1)])
    table = series_coeffs(A, (3, 3))
    for u in itertools.product(range(4), range(4)):
        assert table[u] == (1 if u[0] == u[1] else 0)


def test_series_matches_count_everywhere():
    table = series_coeffs(RING_236, (12, 2))
    assert table[(12, 2)] == 1
    # over (2,3,6) the only split of (9,2) is 3+6; brute force confirms
    assert table[(9, 2)] == brute_count(RING_236.columns, (9, 2)) == 1
    assert table[(10, 2)] == 0
    for u, v in table.items():
        assert v == count(RING_236, u)
    # with the fourth generator the second split 2+7 appears
    assert series_coeffs(RING_2367, (9, 2))[(9, 2)] == 2


def test_series_empty_product():
    A = DegreeMatrix.from_columns([], dim=2)
    table = series_coeffs(A, (3, 2))
    assert table[(0, 0)] == 1
    assert sum(table.values()) == 1


def test_series_bad_bound():
    with pytest.raises(ValueError):
        series_coeffs(RING_236, (-1, 3))


def test_count_zero_whenever_outside_cone():
    rng = random.Random(3)
    for _ in range(300):
        mu, t = u = (rng.randint(-10, 40), rng.randint(-3, 8))
        if not (u == (0, 0) or (t > 0 and 2 * t <= mu <= 6 * t)):
            assert count(RING_236, u) == 0


def test_degree_matrix_validation():
    with pytest.raises(ValueError):
        DegreeMatrix.from_columns([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        DegreeMatrix.from_columns([(-1, 2)])
    with pytest.raises(ValueError):
        DegreeMatrix.from_columns([(1, 2), (1, 2, 3)])


def test_degree_matrix_constructor_checks_what_from_columns_checks():
    # a zero column would make every count infinite
    with pytest.raises(ValueError, match="zero column"):
        DegreeMatrix(2, ((0, 0), (1, 1)))
    with pytest.raises(ValueError):
        DegreeMatrix(2, ((-1, 2),))
    with pytest.raises(ValueError):
        DegreeMatrix(3, ((1, 2),))
    with pytest.raises(TypeError):
        DegreeMatrix(2, ((2.0, 1),))
    assert DegreeMatrix(2, [[2, 1], (3, 1)]) == DegreeMatrix.bigraded([2, 3])


def test_count_shared_ring_from_eight_threads(fresh_tables):
    # every thread asks for ever larger t, so wave tables grow while others read them
    ring = DegreeMatrix.bigraded([2, 3, 6, 7])
    rng = random.Random(11)
    jobs = [
        [(rng.randint(2 * t, 7 * t), t) for t in range(k, 400, 8)] for k in range(8)
    ]

    def read(pts):
        return [count(ring, (mu, t)) for mu, t in pts]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            answers = [f.result(timeout=60) for f in [pool.submit(read, pts) for pts in jobs]]
    finally:
        sys.setswitchinterval(switch)
    fresh_tables()
    assert answers == [read(pts) for pts in jobs]
    # the band rows, apart from the waves
    table = kernels.bigraded_table(ring.degrees, 399, 7 * 399)
    assert len(table) == 400
    assert answers == [[table[t][mu - 2 * t] for mu, t in pts] for pts in jobs]
    assert counting._oracle.cache_info().currsize == 0


def test_general_box_grows_only_the_missed_coordinate(fresh_tables):
    A = DegreeMatrix.from_columns([(1, 0, 1), (0, 1, 1), (1, 1, 2)])
    assert count(A, (2, 3, 4)) == brute_count(A.columns, (2, 3, 4))
    assert counting._oracle(A).box[0] == (8, 8, 8)
    for u, bound in (((20, 1, 20), (20, 8, 20)), ((3, 9, 2), (20, 16, 20))):
        assert count(A, u) == brute_count(A.columns, u)
        assert counting._oracle(A).box[0] == bound
    for u in itertools.product((0, 5, 11), (0, 7, 16), (0, 9, 20)):
        assert count(A, u) == brute_count(A.columns, u)
    with pytest.raises(BudgetExceededError):
        count(A, (1000, 1000, 1000))
    assert counting._oracle(A).box[0] == (20, 16, 20)


def test_count_row_equals_count_at_every_point(monkeypatch, fresh_tables):
    ring = DegreeMatrix.bigraded([2, 3, 6])
    # (t, lo, hi): across the band and past both edges, wholly left or right
    # of it, t = 0, t < 0, empty, and a tall row
    cases = [
        (5, -4, 40), (5, 11, 29), (5, -9, 3), (5, 31, 45), (0, -3, 3),
        (-2, -6, 6), (5, 8, 7), (5, 20, 2), (40, 70, 250),
    ]
    for t, lo, hi in cases:
        got = count_row(ring, t, lo, hi)
        assert got == [count(ring, (mu, t)) for mu in range(lo, hi + 1)], (t, lo, hi)
        assert got == [brute_count(ring.columns, (mu, t)) for mu in range(lo, hi + 1)]
    # a matrix that is not bigraded is read point by point from its boxed DP
    general = DegreeMatrix.from_columns([(1, 1), (2, 1), (1, 2)])
    for t in range(-1, 7):
        got = count_row(general, t, -2, 15)
        assert got == [brute_count(general.columns, (mu, t)) for mu in range(-2, 16)]
    assert counting._oracle(general).box[0] == (16, 8)  # the oracle the rows grew is kept
    assert count_row(DegreeMatrix.from_columns([], dim=2), 0, -1, 1) == [0, 1, 0]
    with pytest.raises(ValueError, match="point dimension mismatch"):
        count_row(DegreeMatrix.from_columns([(1, 1, 1)]), 1, 0, 2)
    # an over-budget row raises before any row is built: the whole band to t = 60
    monkeypatch.setattr(kernels, "MAX_TABLE_CELLS", 5000)
    with pytest.raises(BudgetExceededError, match="count table to t=60 needs 7381 cells"):
        count_row(ring, 60, 120, 360)


def test_point_queries_never_grow_band_rows(monkeypatch, fresh_tables):
    # count, hf_module and series_coeffs read the ring's waves; count_row reads the band rows
    def refuse(degrees, t_max, k_max):
        raise AssertionError("band rows grown")

    monkeypatch.setattr(kernels, "band_rows", refuse)
    for degrees in ((2, 3, 6, 7), (5, 5)):
        ring = DegreeMatrix.bigraded(degrees)
        kappa = KappaNumerator.from_terms(ring, [((0, 0), 1), ((2, 1), 1)])
        for mu, t in ((0, 0), (9, 2), (10, 2), (40, 8), (50, 10)):
            want = brute_count(ring.columns, (mu, t))
            assert count(ring, (mu, t)) == want
            assert hf_module(kappa, (mu, t)) == want + brute_count(ring.columns, (mu - 2, t - 1))
        table = series_coeffs(ring, (30, 6))
        assert table == {u: brute_count(ring.columns, u) for u in table}
        with pytest.raises(AssertionError, match="band rows grown"):
            count_row(ring, 4, 0, 30)
        assert counting._oracle.cache_info().currsize == 0


def test_an_evicted_oracle_is_rebuilt_with_equal_counts(fresh_tables):
    # the boxed tables are kept for the 64 matrices read last
    A = DegreeMatrix.from_columns([(1, 0, 1), (0, 1, 1), (1, 1, 2)])
    points = list(itertools.product((0, 3, 7), (0, 4), (2, 9)))
    before = [count(A, u) for u in points]
    oracle = counting._oracle(A)
    for k in range(64):
        count(DegreeMatrix.from_columns([(1, 0, 1), (0, 1, k + 3)]), (1, 1, 1))
    assert counting._oracle.cache_info().currsize == 64
    assert counting._oracle(A) is not oracle and counting._oracle(A).box is None
    assert [count(A, u) for u in points] == before
    assert before == [brute_count(A.columns, u) for u in points]


def test_count_equals_the_ring_query_at_every_pooled_far_point(fresh_tables):
    # the far points of the benchmark's hilbert jobs, each past the count table's budget
    with open(Path(__file__).parents[1] / "perfbench" / "expected.json") as fh:
        pool = json.load(fh)["hilbert_pool"]
    assert sum(map(len, pool.values())) == 64
    for ring, entries in pool.items():
        degrees = tuple(map(int, ring.split(",")))
        A = DegreeMatrix.bigraded(degrees)
        for entry in entries:
            point = tuple(entry["point"])
            assert count(A, point) == hf_bigraded_ring(degrees, point).value, (degrees, point)
