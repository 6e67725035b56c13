import pytest

from vpfbetti import counting, hilbert, kernels


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty count, chamber-fit and wave caches for one test; call the returned function to empty them again.

    The caches go together: the shared band rows of every ring
    (`kernels._BANDS`, read by `count_row` and value rows), the boxed tables
    of the matrices that are not bigraded (`counting._ORACLES`), and the
    per-ring records of partition waves and chamber fits
    (`hilbert._cached_ring`, read by `count` and ring queries), so a test
    that counts fits or tables starts cold.
    """

    def reset():
        monkeypatch.setattr(kernels, "_BANDS", {})
        monkeypatch.setattr(counting, "_ORACLES", {})
        hilbert._cached_ring.cache_clear()

    reset()
    return reset
