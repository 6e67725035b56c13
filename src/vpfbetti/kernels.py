"""Count tables of bigraded rings as cone-sheared rows, built whole per call.

For columns (d_j, 1) every count of bidegree (mu, t) is zero outside the band
min(d)*t <= mu <= max(d)*t, so `band_rows` builds row t as the offsets
mu - min(d)*t in [0, (max(d) - min(d))*t], cut at the largest offset its
caller asks for.  A row is built as one Python int with B bytes per offset,
that is the row's generating polynomial evaluated at x = 2**(8*B)
(Kronecker substitution), so adding shifted rows is exact integer
arithmetic at any size; B is the least of 1, 2, 4, 8 or more bytes that
holds `value_bound` at the last row.  Each row is then unpacked through a
native memoryview when B is 1, 2, 4 or 8 and with int.from_bytes otherwise.
`counting.count_row` reads one row of them and `bigraded_table` copies the
rows that the chamber fits' apex sweeps and `verify`'s value rows read.
Point counts read the partition waves instead (`waves.RingWaves`), so these
rows stay a check that shares no code with them.  Every table is checked
against MAX_TABLE_CELLS before anything is allocated, and none is kept.
"""

import operator
import sys
from math import comb

# Largest table, in cells, that any count table may have.
MAX_TABLE_CELLS = 50_000_000


class BudgetExceededError(RuntimeError):
    """A count table would exceed MAX_TABLE_CELLS; nothing was allocated."""


def check_cells(cells, what):
    """Raise BudgetExceededError if a table of `cells` cells is over the budget."""
    if cells > MAX_TABLE_CELLS:
        raise BudgetExceededError(
            f"{what} needs {cells} cells, over the budget of {MAX_TABLE_CELLS}"
        )


def value_bound(n_columns, t_max):
    """Upper bound on any entry of a bigraded count table with n columns."""
    if n_columns == 0:
        return 1
    return comb(t_max + n_columns - 1, n_columns - 1)


def band_cells(width, t_max, cap):
    """Cells of rows 0..t_max, row t holding min(cap, width * t) + 1 offsets."""
    full = t_max if width == 0 else min(t_max, cap // width)  # rows that fit whole
    return (full + 1) * (width * full + 2) // 2 + (t_max - full) * (cap + 1)


def _offset_bytes(n_columns, t):
    """Bytes per offset of rows to t: the fewest that hold value_bound, 1, 2, 4 or 8 up to 8."""
    need = (value_bound(n_columns, t).bit_length() + 7) // 8
    return need if need > 8 else 1 << (need - 1).bit_length()


def band_rows(degrees, t_max, k_max):
    """Rows 0..t_max of the ring's counts, row t cut to offsets 0..min(k_max, width * t).

    rows[t][k] is the count at bidegree (min(d) * t + k, t); each row is a
    memoryview of ints, or a list of them past 8 bytes per offset.  Row t
    of stage j (the first j columns) is stage j-1's row t plus stage j's
    row t-1 shifted by d_j - min(d), one packed-int addition.
    """
    degrees = [operator.index(d) for d in degrees]
    t_max, k_max = operator.index(t_max), operator.index(k_max)
    lo = min(degrees)
    width = max(degrees) - lo
    shifts = [d - lo for d in degrees]
    check_cells(band_cells(width, t_max, k_max), f"count table to t={t_max}")
    size = _offset_bytes(len(shifts), t_max)
    bits = 8 * size
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(size) if sys.byteorder == "little" else None

    def unpack(row, length):
        data = row.to_bytes(size * length, "little")
        if fmt:
            return memoryview(data).cast(fmt)
        return [int.from_bytes(data[i: i + size], "little") for i in range(0, len(data), size)]

    stages, length = [1] * len(shifts), 1  # row t of every stage, and its offsets
    rows = [unpack(1, 1)]
    mask = None  # cuts a row to k_max + 1 offsets
    for t in range(1, t_max + 1):
        old, length = length, min(k_max, width * t) + 1
        if old + width > length and mask is None:  # only a cut row needs it
            mask = (1 << bits * length) - 1
        row, new = 0, []
        for s, prev in zip(shifts, stages):
            if s < length:  # a row shifted to the cut or past it adds nothing
                if s:
                    prev <<= bits * s
                row = row + prev if row else prev
                if old + s > length:  # the shifted row passes the cut
                    row &= mask
            new.append(row)
        stages = new
        rows.append(unpack(row, length))
    return rows


def bigraded_table(degrees, t_max, mu_max):
    """Rows 0..t_max of the ring's band rows, cut at mu_max, as lists of ints.

    Row t holds the counts at mu = lo * t + k for 0 <= k <= min(width * t,
    mu_max - lo * t), over the least degree lo and the degrees' spread
    width; it is empty when lo * t > mu_max.  Each row counts as one cell
    or more of the budget.
    """
    check_cells(t_max + 1, "count table rows")
    lo = min(degrees)
    width = max(degrees) - lo
    t_top = t_max if lo == 0 else min(t_max, mu_max // lo)  # later rows start past mu_max
    # the last offset any row needs: the rows are cut no further than they reach
    k_max = max(min(mu_max - lo * t, width * t) for t in range(t_top + 1))
    rows = band_rows(degrees, t_top, k_max)
    return [list(row[: mu_max - lo * t + 1]) for t, row in enumerate(rows)] + [
        [] for _ in range(t_top, t_max)
    ]
