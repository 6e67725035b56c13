"""Count tables of bigraded rings as cone-sheared rows, grown in place.

For columns (d_j, 1) every count of bidegree (mu, t) is zero outside the band
min(d)*t <= mu <= max(d)*t, so `BandRows` stores row t as the offsets
mu - min(d)*t in [0, (max(d) - min(d))*t], cut at the largest offset asked
for.  Rows are int64 while the proven value bound fits in 64 bits and Python
integers (dtype=object) from then on.
`band_rows` keeps one shared `BandRows` per ring; `count` reads it, and
`bigraded_table` is the dense window of it that value grids read.
Every table is checked against MAX_TABLE_CELLS before anything is allocated.
"""

import threading
from math import comb

import numpy as np

# int64 guard: table values never exceed the number of compositions of t_max.
_INT64_SAFE = 2**62

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


class BandRows:
    """Exact counts of one bigraded ring, one cone-sheared row per t.

    rows[t][k] is the count at bidegree (lo * t + k, t) for k up to
    min(cap, width * t): rows stop at the largest offset asked for, never past
    the band.  Row t of stage j (the first j columns) is stage j-1's row t
    plus stage j's row t-1 shifted by d_j - lo.  The last row of every stage
    is kept, so a taller `extend` continues where it stopped; a larger cap,
    at least double the old one, rebuilds the rows past the last one the old
    cap held whole.  `extend` takes the instance's lock.  `rows` is one list
    that only grows, and an entry is replaced only by a complete row at least
    as long, so readers that take no lock read each rows[t] once.
    """

    def __init__(self, degrees):
        degrees = [int(d) for d in degrees]
        self.lo = min(degrees)
        self.width = max(degrees) - self.lo
        self.shifts = [d - self.lo for d in degrees]
        self.cap = 0
        one = np.ones(1, dtype=np.int64)
        self.rows = [one]
        self._last = [one] * len(degrees)  # row len(rows) - 1 of every stage
        self._whole = (0, self._last)  # the last row the cap holds whole, every stage
        self._lock = threading.Lock()

    def value(self, u):
        """The count at bidegree u = (mu, t); grows the rows on a miss."""
        mu, t = u
        k = mu - self.lo * t
        if t < 0 or not 0 <= k <= self.width * t:
            return 0
        rows = self.rows
        if t >= len(rows) or k >= len(row := rows[t]):
            self.extend(t, k)
            row = rows[t]
        return int(row[k])

    def extend(self, t_max, k_max=0):
        """Make rows 0..t_max hold offsets 0..k_max; check the budget first."""
        with self._lock:
            rows = self.rows
            t_max = max(t_max, len(rows) - 1)
            cap = self.cap if k_max <= self.cap else max(k_max, 2 * self.cap)
            if t_max < len(rows) and cap == self.cap:
                return
            check_cells(band_cells(self.width, t_max, cap), f"count table to t={t_max}")
            whole = self._whole
            if cap == self.cap:
                start, last = len(rows), self._last
            else:  # rows up to the last whole one stay; the rest are rebuilt
                start, last = whole[0] + 1, whole[1]
            n = len(self.shifts)
            for t in range(start, t_max + 1):
                dtype = np.int64 if value_bound(n, t) < _INT64_SAFE else object
                row = np.zeros(min(cap, self.width * t) + 1, dtype=dtype)
                stages = []
                for j, (s, prev) in enumerate(zip(self.shifts, last)):
                    if j:
                        row = row.copy()
                    m = min(len(prev), len(row) - s)
                    if m > 0:
                        row[s: s + m] += prev[:m]
                    stages.append(row)
                last = stages
                if self.width * t <= cap:
                    whole = (t, stages)
                if t < len(rows):
                    rows[t] = row
                else:
                    rows.append(row)
                if t == len(rows) - 1:  # so an error part-way leaves a valid state
                    self._last, self._whole = last, whole
            self.cap = cap


_BANDS: dict[tuple[int, ...], BandRows] = {}
_BANDS_LOCK = threading.Lock()


def band_rows(degrees) -> BandRows:
    """The one shared `BandRows` of the ring with these degrees, in any order."""
    key = tuple(sorted(int(d) for d in degrees))
    with _BANDS_LOCK:
        band = _BANDS.get(key)
        if band is None:
            band = _BANDS[key] = BandRows(key)
    return band


def bigraded_table(degrees, t_max, mu_max):
    """Dense window T[t][mu] of the ring's shared band rows, exact, as one array.

    int64 unless a row past the 64-bit bound is inside the window, then dtype=object.
    """
    check_cells((t_max + 1) * (mu_max + 1), "count window")
    band = band_rows(degrees)
    lo = band.lo
    t_top = t_max if lo == 0 else min(t_max, mu_max // lo)  # later rows start past mu_max
    # the last offset row t needs: the cap grows no further than the window reaches
    reach = [min(mu_max - lo * t, band.width * t) for t in range(t_top + 1)]
    band.extend(t_top, max(reach))
    rows = band.rows
    table = np.zeros((t_max + 1, mu_max + 1), dtype=rows[t_top].dtype)
    for t, k in enumerate(reach):
        table[t, lo * t: lo * t + k + 1] = rows[t][: k + 1]
    return table
