"""Exact vector partition functions, multigraded Hilbert functions, and the
eventual piecewise quasi-polynomial tables of graded Betti numbers of ideal
powers.  All arithmetic is exact (arbitrary-precision integers and
rationals).
"""

from .chambers import (
    Chamber,
    DegenerateGradingError,
    chamber_complex_2xn,
    chamber_from_generators,
    global_lattice,
    locate,
)
from .counting import DegreeMatrix, count, series_coeffs
from .hilbert import (
    DataIntegrityWarning,
    KappaNumerator,
    RingHilbertValue,
    hf_bigraded_ring,
    hf_grid,
    hf_module,
    series_identity_check,
)
from .kernels import BudgetExceededError
from .lattices import (
    Lattice,
    RankError,
    hnf,
    lattice_from_columns,
    lattice_intersect,
)
from .quasipoly import (
    FitError,
    Polynomial,
    QuasiPolynomial,
    fit_chamber_qp,
)
from .rees import (
    SpecFormatError,
    ToriSpec,
    UnsupportedRankError,
    ci_shifts,
    ingest,
    serialize,
)
from .regions import (
    BelowThresholdError,
    HalfLine,
    Region,
    RegionDecomposition,
    eval_betti,
    region_decomposition,
    sort_lines,
    stability_threshold,
    total_betti_polynomial,
)
from .verify import RunReport, verify_spec

__version__ = "0.1.0"

__all__ = [
    "BelowThresholdError",
    "BudgetExceededError",
    "Chamber",
    "DataIntegrityWarning",
    "DegenerateGradingError",
    "DegreeMatrix",
    "FitError",
    "HalfLine",
    "KappaNumerator",
    "Lattice",
    "Polynomial",
    "QuasiPolynomial",
    "RankError",
    "Region",
    "RegionDecomposition",
    "RingHilbertValue",
    "RunReport",
    "SpecFormatError",
    "ToriSpec",
    "UnsupportedRankError",
    "chamber_complex_2xn",
    "chamber_from_generators",
    "ci_shifts",
    "count",
    "eval_betti",
    "fit_chamber_qp",
    "global_lattice",
    "hf_bigraded_ring",
    "hf_grid",
    "hf_module",
    "hnf",
    "ingest",
    "lattice_from_columns",
    "lattice_intersect",
    "locate",
    "region_decomposition",
    "serialize",
    "series_coeffs",
    "series_identity_check",
    "sort_lines",
    "stability_threshold",
    "total_betti_polynomial",
    "verify_spec",
]
