from oracles import brute_count
from vpfbetti import kernels
from vpfbetti.kernels import bigraded_table_bigint, bigraded_table_int64


def table_entries(table, t_max, mu_max):
    return [[int(table[t][mu]) for mu in range(mu_max + 1)] for t in range(t_max + 1)]


def test_fallback_matches_brute_force():
    table = bigraded_table_int64([2, 3, 6], 5, 20)
    cols = [(2, 1), (3, 1), (6, 1)]
    for t in range(6):
        for mu in range(21):
            assert table[t][mu] == brute_count(cols, (mu, t))


def test_bigint_matches_fallback():
    a = bigraded_table_int64([1, 2, 5, 5], 8, 30)
    b = bigraded_table_bigint([1, 2, 5, 5], 8, 30)
    assert table_entries(a, 8, 30) == table_entries(b, 8, 30)


def test_dispatch_uses_bigint_when_unsafe(monkeypatch):
    monkeypatch.setattr(kernels, "_INT64_SAFE", 5)
    table = kernels.bigraded_table([1, 1], 6, 6)
    assert isinstance(table, list)  # big-int list path
    assert table[6][6] == 7


def test_value_bound():
    assert kernels.value_bound(0, 100) == 1
    assert kernels.value_bound(1, 100) == 1
    assert kernels.value_bound(3, 4) == 15  # compositions of 4 into 3 parts


def test_degree_zero_column():
    # a generator of degree zero still has bidegree (0, 1): counts stay finite
    table = kernels.bigraded_table([0, 2], 4, 8)
    cols = [(0, 1), (2, 1)]
    for t in range(5):
        for mu in range(9):
            assert int(table[t][mu]) == brute_count(cols, (mu, t))


def test_int64_skips_degrees_wider_than_table():
    # mu_max + 1 < d < 2 (mu_max + 1): the shifted source slice would run past the row
    for degrees, mu_max in (([1, 20], 15), ([3, 12], 8), ([2, 7], 5)):
        a = bigraded_table_int64(degrees, 6, mu_max)
        b = bigraded_table_bigint(degrees, 6, mu_max)
        assert table_entries(a, 6, mu_max) == table_entries(b, 6, mu_max)
