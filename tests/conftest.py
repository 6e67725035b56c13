import pytest

from vpfbetti import counting, kernels


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty count caches for one test; call the returned function to empty them again.

    Both caches go together: the shared band rows of every ring
    (`kernels._BANDS`) and the per-matrix memo that points at them
    (`counting._ORACLES`).
    """

    def reset():
        monkeypatch.setattr(kernels, "_BANDS", {})
        monkeypatch.setattr(counting, "_ORACLES", {})

    reset()
    return reset
