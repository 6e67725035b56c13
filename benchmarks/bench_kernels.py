"""Kernel smoke run: the cone-sheared row kernel, int64 rows against object rows.

Grows the band rows of three rings one row at a time, checks the int64 rows
against a run forced onto Python-integer rows where that is affordable, and
reports wall times.  Also times a representative chamber fit.
The repository's benchmark is perfbench/; this script is a quick check.

Usage: python benchmarks/bench_kernels.py
"""

import time

from vpfbetti import kernels
from vpfbetti.chambers import chamber_complex_2xn, global_lattice
from vpfbetti.counting import DegreeMatrix
from vpfbetti.quasipoly import fit_chamber_qp

WORKLOADS = [
    ("degrees (2,3,6), t <= 2000", [2, 3, 6], 2000),
    ("degrees (1..7), t <= 600", [1, 2, 3, 4, 5, 6, 7], 600),
    ("degrees (2,3,6,7), t <= 1200", [2, 3, 6, 7], 1200),
]
OBJECT_CELLS = 2_000_000  # largest band also grown with Python-integer rows


def grow(degrees, t_max):
    band = kernels.BandRows(degrees)
    band.extend(t_max, band.width * t_max)  # the whole band
    return band


def time_call(fn, *args, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    for label, degrees, t_max in WORKLOADS:
        width = max(degrees) - min(degrees)
        cells = kernels.band_cells(width, t_max, width * t_max)
        print(f"\n{label}  ({cells} band cells)")
        t_np, ref = time_call(grow, degrees, t_max)
        print(f"  int64 rows      : {t_np * 1e3:8.1f} ms")
        if cells <= OBJECT_CELLS:
            safe = kernels._INT64_SAFE
            kernels._INT64_SAFE = 0  # every row past row 0 holds Python integers
            try:
                t_big, big = time_call(grow, degrees, t_max, repeats=1)
            finally:
                kernels._INT64_SAFE = safe
            assert all(a.tolist() == b.tolist() for a, b in zip(ref.rows, big.rows))
            print(f"  object rows     : {t_big * 1e3:8.1f} ms   ({t_big / t_np:.1f}x slower than int64)")

    print("\nchamber fit, degrees (2,3,6), global lattice (12 residues):")
    ring = DegreeMatrix.bigraded([2, 3, 6])
    chambers = chamber_complex_2xn([2, 3, 6])
    lattice = global_lattice([2, 3, 6])
    start = time.perf_counter()
    for chamber in chambers:
        fit_chamber_qp(ring, chamber, lattice)
    print(f"  both chambers fitted and validated in {(time.perf_counter() - start) * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
