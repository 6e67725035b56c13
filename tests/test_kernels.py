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
    band = kernels.BandRows([2, 3, 6])
    for t in range(7):
        for mu in range(-1, 40):
            assert band.row(t, mu, mu) == [brute_count([(2, 1), (3, 1), (6, 1)], (mu, t))]
    assert [len(row) for row in band.rows] == [4 * t + 1 for t in range(7)]


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
    band = kernels.BandRows([4])
    band.extend(9)
    assert band.width == 0
    assert [list(row.unpack()) for row in band.rows] == [[1]] * 10
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


def test_budget_raises_before_allocating(monkeypatch, fresh_tables):
    monkeypatch.setattr(kernels, "MAX_TABLE_CELLS", 90)
    band = kernels.BandRows([1, 3])
    band.extend(8, 16)  # the whole band to t = 8: 81 cells
    with pytest.raises(kernels.BudgetExceededError):
        band.extend(9, 18)  # the cap doubles to 32, so the whole band: 100 cells
    assert len(band.rows) == 9 and band.cap == 16
    band.extend(8, 16)
    # mu <= 9 of rows t <= 9 is a 100-cell box but 37 band cells, read from a
    # 58-cell table; mu <= 27 needs the whole band to t = 9, 100 cells
    assert sum(map(len, kernels.bigraded_table([1, 3], 9, 9))) == 37
    shared = kernels.band_rows([1, 3])
    assert kernels.band_cells(shared.width, 9, shared.cap) == 58
    with pytest.raises(kernels.BudgetExceededError):
        kernels.bigraded_table([1, 3], 9, 27)
    assert len(shared.rows) == 10 and shared.cap == 6


def test_rows_stop_at_largest_offset_asked():
    degrees = [1, 10**6]
    cols = [(d, 1) for d in degrees]
    band = kernels.BandRows(degrees)
    band.extend(10)
    assert [len(row) for row in band.rows] == [1] * 11
    band.extend(10, 5)
    assert [len(row) for row in band.rows] == [1] + [6] * 10
    band.extend(12, 7)  # a larger offset rebuilds at twice the cap
    assert band.cap == 10 and [len(row) for row in band.rows] == [1] + [11] * 12
    for t, row in enumerate(band.rows):
        assert list(row.unpack()) == [brute_count(cols, (t + k, t)) for k in range(len(row))]


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
    st.lists(st.integers(0, 5), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(-2, 30), st.integers(-1, 9)), min_size=1, max_size=12),
)
def test_random_order_queries_match_brute_force(degrees, points):
    # each query extends the rows to its own t, so growth comes in uneven steps
    band = kernels.BandRows(degrees)
    cols = [(d, 1) for d in degrees]
    for mu, t in points:
        assert band.row(t, mu, mu) == [brute_count(cols, (mu, t))]
    lo, width = min(degrees), max(degrees) - min(degrees)
    in_band = [(t, mu - lo * t) for mu, t in points if 0 <= mu - lo * t <= width * t]
    assert len(band.rows) == max([t for t, _ in in_band] + [0]) + 1
    assert band.cap <= 2 * max([k for _, k in in_band] + [0])
    assert [len(row) for row in band.rows] == [
        min(band.cap, width * t) + 1 for t in range(len(band.rows))
    ]


def test_twelve_equal_columns_across_the_64_bit_switch():
    ring = DegreeMatrix.bigraded([5] * 12)
    for t in range(261):
        assert count(ring, (5 * t, t)) == comb(t + 11, 11)
    band = kernels.BandRows([5] * 12)
    band.extend(300)  # one extension through every width, 1 byte per offset to 9 from t = 272
    assert [list(row.unpack()) for row in band.rows] == [[comb(t + 11, 11)] for t in range(301)]
    assert [band.rows[t].itemsize for t in (0, 271, 272)] == [1, 8, 9]


def test_stage_rows_widen_between_extensions(fresh_tables):
    # comb(t + 3, 3) needs 1 byte per offset up to t = 9 and 2 bytes from t = 10 on
    degrees = [1, 2, 4, 5]
    cols = [(d, 1) for d in degrees]
    band = kernels.BandRows(degrees)
    band.extend(6, 8)  # cut rows, 1 byte per offset
    band.extend(14, 8)  # the kept stage rows of row 6 are widened at row 10
    assert [band.rows[t].itemsize for t in (6, 9, 10, 14)] == [1, 1, 2, 2]
    band.extend(14, 56)  # rebuilt from row 2, the last whole one, and widened again
    assert [len(row) for row in band.rows] == [4 * t + 1 for t in range(15)]
    for t in range(15):
        for mu in range(t - 1, 5 * t + 2):
            assert band.row(t, mu, mu) == [brute_count(cols, (mu, t))], (mu, t)


def test_window_of_rows_wider_than_eight_bytes(fresh_tables):
    # comb(t + 34, 34) needs 9 bytes per offset from t = 34 on; the counts
    # near the band's low edge are partition numbers, small enough to enumerate
    degrees = [10 * j for j in range(35)]
    table = kernels.bigraded_table(degrees, 36, 80)
    assert [kernels.band_rows(degrees).rows[t].itemsize for t in (33, 34)] == [8, 9]
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
    # count_row and the window read one table per ring, whatever the degree order;
    # count reads the ring's waves and keeps no table of its own
    ring = DegreeMatrix.bigraded([6, 2, 3])
    want = brute_count(ring.columns, (30, 8))
    assert count_row(ring, 8, 30, 30) == [want] and count(ring, (30, 8)) == want
    band = kernels.band_rows([2, 3, 6])
    assert ring not in counting._ORACLES and kernels.band_rows((3, 6, 2)) is band
    rows = band.rows
    kernels.bigraded_table([3, 2, 6], 20, 50)
    assert band.rows is rows and len(rows) == 21
    assert_window_matches([2, 6, 3], 12, 30)


def test_rows_stay_valid_after_an_error_mid_extension(monkeypatch):
    # rows change in place, so an error must leave a state later extensions can build on
    degrees = [1, 2, 5]
    band = kernels.BandRows(degrees)
    band.extend(8, 20)  # rows 6..8 are cut
    bound = kernels.value_bound
    for stop in (7, 10):  # inside the rebuild of rows 6..8, then among the appended rows
        def failing(n, t, stop=stop):
            if t == stop:
                raise MemoryError
            return bound(n, t)

        monkeypatch.setattr(kernels, "value_bound", failing)
        with pytest.raises(MemoryError):
            band.extend(12, 45)
        monkeypatch.setattr(kernels, "value_bound", bound)
    cols = [(d, 1) for d in degrees]
    for t in range(15):
        for mu in range(5 * t + 2):
            assert band.row(t, mu, mu) == [brute_count(cols, (mu, t))], (mu, t)
