"""Dense count-table kernels: vectorized int64 NumPy rows, or big-int lists.

`bigraded_table` takes the int64 kernel whenever every table value provably
fits in 64 bits, and the arbitrary-precision kernel otherwise.
"""

from math import comb

import numpy as np

# int64 guard: table values never exceed the number of compositions of t_max.
_INT64_SAFE = 2**62


def value_bound(n_columns, t_max):
    """Upper bound on any entry of a bigraded count table with n columns."""
    if n_columns == 0:
        return 1
    return comb(t_max + n_columns - 1, n_columns - 1)


def bigraded_table(degrees, t_max, mu_max):
    """Dense table T[t][mu] of counts for columns (d, 1), exact."""
    degrees = [int(d) for d in degrees]
    if value_bound(len(degrees), t_max) < _INT64_SAFE:
        return bigraded_table_int64(degrees, t_max, mu_max)
    return bigraded_table_bigint(degrees, t_max, mu_max)


def bigraded_table_int64(degrees, t_max, mu_max):
    """NumPy int64 rows; the caller guarantees that every value fits."""
    a = np.zeros((t_max + 1, mu_max + 1), dtype=np.int64)
    a[0, 0] = 1
    for d in degrees:
        if d > mu_max:
            continue  # the column never fits inside the table
        for t in range(1, t_max + 1):
            a[t, d:] += a[t - 1, : mu_max + 1 - d]
    return a


def bigraded_table_bigint(degrees, t_max, mu_max):
    """Lists of Python integers, for tables whose values may exceed 64 bits."""
    rows = [[0] * (mu_max + 1) for _ in range(t_max + 1)]
    rows[0][0] = 1
    for d in degrees:
        for t in range(1, t_max + 1):
            prev = rows[t - 1]
            cur = rows[t]
            for mu in range(d, mu_max + 1):
                v = prev[mu - d]
                if v:
                    cur[mu] += v
    return rows
