import pytest

from vpfbetti import counting, hilbert


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty count, chamber-fit and wave caches for one test; call the returned function to empty them again.

    The caches go together: the boxed tables of the matrices that are not
    bigraded (`counting._oracle`), and the per-ring records of partition
    waves and chamber fits (`hilbert._cached_ring`, read by `count` and ring
    queries), so a test that counts fits or tables starts cold.  Band rows
    are built per call and need no reset.
    """

    def reset():
        counting._oracle.cache_clear()
        hilbert._cached_ring.cache_clear()

    reset()
    return reset
