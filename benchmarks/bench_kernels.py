"""Kernel smoke run: the int64 NumPy count-table kernel vs the big-integer one.

Runs the same dense bigraded table fills through both kernels, checks that
they agree, and reports wall times.  Also times a representative chamber fit.
The repository's benchmark is perfbench/; this script is a quick check.

Usage: python benchmarks/bench_kernels.py
"""

import time

from vpfbetti import kernels
from vpfbetti.chambers import chamber_complex_2xn, global_lattice
from vpfbetti.counting import DegreeMatrix
from vpfbetti.quasipoly import fit_chamber_qp

WORKLOADS = [
    ("degrees (2,3,6), t <= 2000", [2, 3, 6], 2000, 12000),
    ("degrees (1..7), t <= 600", [1, 2, 3, 4, 5, 6, 7], 600, 4200),
    ("degrees (2,3,6,7), t <= 1200", [2, 3, 6, 7], 1200, 8400),
]


def time_call(fn, *args, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    for label, degrees, t_max, mu_max in WORKLOADS:
        cells = (t_max + 1) * (mu_max + 1)
        print(f"\n{label}  ({cells} cells)")
        t_np, ref = time_call(kernels.bigraded_table_int64, degrees, t_max, mu_max)
        print(f"  numpy int64     : {t_np * 1e3:8.1f} ms")
        if cells <= 2_000_000:
            t_big, big = time_call(
                kernels.bigraded_table_bigint, degrees, t_max, mu_max, repeats=1
            )
            assert all(
                int(ref[t][mu]) == big[t][mu]
                for t in range(0, t_max + 1, max(1, t_max // 7))
                for mu in range(0, mu_max + 1, max(1, mu_max // 17))
            )
            print(f"  big-int         : {t_big * 1e3:8.1f} ms   ({t_big / t_np:.1f}x slower than numpy)")

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
