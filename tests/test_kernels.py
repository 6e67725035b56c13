import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_count
from vpfbetti import counting, kernels
from vpfbetti.counting import DegreeMatrix, count, count_row


def assert_window_matches(degrees, t_max, mu_max):
    # row t is the band min(d) * t <= mu <= max(d) * t cut at mu_max, and every count off it is 0
    table = kernels.bigraded_table(degrees, t_max, mu_max)
    lo, hi = min(degrees), max(degrees)
    assert [len(row) for row in table] == [
        max(min(hi * t, mu_max) - lo * t + 1, 0) for t in range(t_max + 1)
    ]
    cols = [(d, 1) for d in degrees]
    for t, row in enumerate(table):
        for mu in range(mu_max + 1):
            k = mu - lo * t
            got = row[k] if 0 <= k < len(row) else 0
            assert got == brute_count(cols, (mu, t)), (mu, t)


def test_rows_match_brute_force():
    assert_window_matches([2, 3, 6], 5, 20)
    rows = kernels.band_rows([2, 3, 6], 6, 24)
    assert [len(row) for row in rows] == [4 * t + 1 for t in range(7)]
    cols = [(2, 1), (3, 1), (6, 1)]
    assert [list(row) for row in rows] == [
        [brute_count(cols, (2 * t + k, t)) for k in range(4 * t + 1)] for t in range(7)
    ]
    ring = DegreeMatrix.bigraded([2, 3, 6])
    for t in range(7):
        for mu in range(-1, 40):
            assert count_row(ring, t, mu, mu) == [brute_count(cols, (mu, t))]


def test_degree_zero_column():
    # a generator of degree zero still has bidegree (0, 1): counts stay finite
    assert_window_matches([0, 2], 4, 8)


def test_degrees_wider_than_window():
    # most columns never fit inside the window; some rows start past mu_max and are empty
    for degrees, mu_max in (([1, 20], 15), ([3, 12], 8), ([2, 7], 5), ([9, 11], 4)):
        assert_window_matches(degrees, 6, mu_max)


def test_repeated_degrees():
    assert_window_matches([2, 2, 3, 3, 3], 5, 16)


def test_single_degree_has_zero_width_band():
    for k_max in (0, 50):
        assert [list(row) for row in kernels.band_rows([4], 9, k_max)] == [[1]] * 10
    assert_window_matches([4], 5, 22)


def test_value_bound():
    assert kernels.value_bound(0, 100) == 1
    assert kernels.value_bound(1, 100) == 1
    assert kernels.value_bound(3, 4) == 15  # compositions of 4 into 3 parts


def test_band_cells_closed_form():
    for width in range(4):
        for t in range(8):
            for cap in range(12):
                want = sum(min(cap, width * s) + 1 for s in range(t + 1))
                assert kernels.band_cells(width, t, cap) == want


def test_budget_raises_before_allocating(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_TABLE_CELLS", 90)
    assert sum(map(len, kernels.band_rows([1, 3], 8, 16))) == 81  # the whole band to t = 8
    tracemalloc.start()
    try:
        for t_max, k_max in ((9, 18), (10**6, 10**6)):  # 100 cells, then about 10**12
            with pytest.raises(kernels.BudgetExceededError, match=f"count table to t={t_max} "):
                kernels.band_rows([1, 3], t_max, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    # mu <= 9 of rows t <= 9 is a 100-cell box but 37 band cells, read from
    # 58 cells cut at offset 6; mu <= 27 needs the whole band to t = 9, 100 cells
    assert kernels.band_cells(2, 9, 6) == 58
    assert sum(map(len, kernels.bigraded_table([1, 3], 9, 9))) == 37
    with pytest.raises(kernels.BudgetExceededError, match="count table to t=9 needs 100 cells"):
        kernels.bigraded_table([1, 3], 9, 27)


def test_rows_stop_at_largest_offset_asked():
    degrees = [1, 10**6]
    cols = [(d, 1) for d in degrees]
    assert [len(row) for row in kernels.band_rows(degrees, 10, 0)] == [1] * 11
    assert [len(row) for row in kernels.band_rows(degrees, 10, 5)] == [1] + [6] * 10
    rows = kernels.band_rows(degrees, 12, 7)
    assert [len(row) for row in rows] == [1] + [8] * 12
    for t, row in enumerate(rows):
        assert list(row) == [brute_count(cols, (t + k, t)) for k in range(len(row))]


def test_a_shift_past_the_cut_allocates_nothing(fresh_tables):
    # row t of (1, 10**8) is cut at offset 1, and the second column's shift
    # of 10**8 - 1 lands past it, so nothing is shifted that far
    tracemalloc.start()
    try:
        [value] = count_row(DegreeMatrix.bigraded([1, 10**8]), 2, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 0 and peak < 2**20


def test_wide_window_stays_inside_the_budget(monkeypatch, fresh_tables):
    # rows of the window stop at mu_max, not at the band's edge
    monkeypatch.setattr(kernels, "MAX_TABLE_CELLS", 11 * 11)
    assert_window_matches([1, 10**6], 10, 10)
    assert_window_matches([3, 2000], 10, 10)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=4), st.integers(0, 9), st.integers(0, 40)
)
def test_random_order_queries_match_brute_force(degrees, t_max, k_max):
    # rows of every height and cut, the same whatever the order of the degrees
    rows = kernels.band_rows(degrees, t_max, k_max)
    lo, width = min(degrees), max(degrees) - min(degrees)
    assert [len(row) for row in rows] == [min(k_max, width * t) + 1 for t in range(t_max + 1)]
    cols = [(d, 1) for d in degrees]
    for t, row in enumerate(rows):
        assert list(row) == [brute_count(cols, (lo * t + k, t)) for k in range(len(row))]
    assert [list(row) for row in kernels.band_rows(sorted(degrees), t_max, k_max)] == [
        list(row) for row in rows
    ]


def test_twelve_equal_columns_across_the_64_bit_switch():
    ring = DegreeMatrix.bigraded([5] * 12)
    for t in range(261):
        assert count(ring, (5 * t, t)) == comb(t + 11, 11)
    # 8 bytes per offset to t = 271, native rows; 9 from t = 272 on, rows of ints
    assert [kernels._offset_bytes(12, t) for t in (0, 271, 272)] == [1, 8, 9]
    rows = kernels.band_rows([5] * 12, 271, 0)
    assert rows[0].itemsize == 8
    assert [list(row) for row in rows] == [[comb(t + 11, 11)] for t in range(272)]
    assert kernels.band_rows([5] * 12, 300, 0) == [[comb(t + 11, 11)] for t in range(301)]


def test_stage_rows_widen_between_extensions():
    # comb(t + 3, 3) needs 1 byte per offset up to t = 9 and 2 bytes from
    # t = 10 on, so every row of a table to t >= 10 holds 2 bytes per offset
    degrees = [1, 2, 4, 5]
    cols = [(d, 1) for d in degrees]
    assert [kernels._offset_bytes(4, t) for t in (9, 10)] == [1, 2]
    assert {row.itemsize for row in kernels.band_rows(degrees, 9, 8)} == {1}
    assert {row.itemsize for row in kernels.band_rows(degrees, 14, 8)} == {2}
    band = [[brute_count(cols, (t + k, t)) for k in range(4 * t + 1)] for t in range(15)]
    for k_max in (8, 56):  # cut rows, then the whole band
        rows = kernels.band_rows(degrees, 14, k_max)
        assert [list(row) for row in rows] == [row[: k_max + 1] for row in band]


def test_window_of_rows_wider_than_eight_bytes():
    # comb(t + 34, 34) needs 9 bytes per offset from t = 34 on; the counts
    # near the band's low edge are partition numbers, small enough to enumerate
    degrees = [10 * j for j in range(35)]
    assert [kernels._offset_bytes(35, t) for t in (33, 34)] == [8, 9]
    table = kernels.bigraded_table(degrees, 36, 80)
    cols = [(d, 1) for d in reversed(degrees)]
    for t in range(33, 37):
        for mu in range(81):
            assert table[t][mu] == brute_count(cols, (mu, t)), (mu, t)
    # twenty columns each of degrees 0 and 1: every count is a product of two binomials
    table = kernels.bigraded_table([0] * 20 + [1] * 20, 40, 40)
    assert table == [
        [comb(mu + 19, 19) * comb(t - mu + 19, 19) for mu in range(t + 1)] for t in range(41)
    ]
    assert table[40][20] > 2**64


def test_window_reads_the_shared_rows(fresh_tables):
    # count_row and the window read the same counts whatever the degree order,
    # each from rows built for that call alone; count reads the ring's waves
    ring = DegreeMatrix.bigraded([6, 2, 3])
    want = brute_count(ring.columns, (30, 8))
    assert count_row(ring, 8, 30, 30) == [want] and count(ring, (30, 8)) == want
    assert counting._oracle.cache_info().currsize == 0
    table = kernels.bigraded_table([3, 2, 6], 20, 50)
    assert table[8][30 - 2 * 8] == want and len(table) == 21
    again = kernels.bigraded_table([2, 6, 3], 20, 50)
    assert again == table and all(a is not b for a, b in zip(again, table))
    assert_window_matches([2, 6, 3], 12, 30)


def test_rows_stay_valid_after_an_error_mid_extension(monkeypatch):
    # a build that fails part-way keeps nothing, so the next one starts clean
    degrees = [1, 2, 5]
    want = [list(row) for row in kernels.band_rows(degrees, 14, 45)]
    calls = []

    def failing(data):
        calls.append(data)
        if len(calls) == 8:  # unpacking row 7
            raise MemoryError
        return memoryview(data)

    monkeypatch.setattr(kernels, "memoryview", failing, raising=False)
    with pytest.raises(MemoryError):
        kernels.band_rows(degrees, 14, 45)
    monkeypatch.undo()
    assert len(calls) == 8
    assert [list(row) for row in kernels.band_rows(degrees, 14, 45)] == want
    cols = [(d, 1) for d in degrees]
    for t, row in enumerate(want):
        assert row == [brute_count(cols, (t + k, t)) for k in range(len(row))]
