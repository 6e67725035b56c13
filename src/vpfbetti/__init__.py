"""Exact vector partition functions, multigraded Hilbert functions, and the
eventual piecewise quasi-polynomial tables of graded Betti numbers of ideal
powers.  All arithmetic is exact (arbitrary-precision integers and
rationals).

Each public name is imported from its module the first time it is read, so
`import vpfbetti` loads no submodule and `import vpfbetti.counting` loads
only what counting uses.
"""

import importlib

__version__ = "0.1.0"

# the public names, under the module that defines each
_EXPORTS = {
    "chambers": (
        "Chamber", "DegenerateGradingError", "chamber_complex_2xn", "global_lattice",
        "locate",
    ),
    "counting": ("DegreeMatrix", "count", "series_coeffs"),
    "hilbert": (
        "DataIntegrityWarning", "KappaNumerator", "RingHilbertValue", "hf_bigraded_ring",
        "hf_grid", "hf_module", "series_identity_check",
    ),
    "kernels": ("BudgetExceededError",),
    "lattices": ("Lattice", "RankError", "hnf", "lattice_intersect"),
    "quasipoly": ("FitError", "Polynomial", "QuasiPolynomial", "fit_chamber_qp"),
    "rees": (
        "SpecFormatError", "ToriSpec", "UnsupportedRankError", "ci_shifts", "ingest",
        "serialize",
    ),
    "regions": (
        "BelowThresholdError", "HalfLine", "Region", "RegionDecomposition", "eval_betti",
        "region_decomposition", "sort_lines", "stability_threshold", "total_betti_polynomial",
    ),
    "verify": ("RunReport", "verify_spec"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    # any other name raises, so `from vpfbetti import cli` imports the submodule
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
