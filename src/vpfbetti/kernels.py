"""Count tables of bigraded rings as cone-sheared rows, grown in place.

For columns (d_j, 1) every count of bidegree (mu, t) is zero outside the band
min(d)*t <= mu <= max(d)*t, so `BandRows` stores row t as the offsets
mu - min(d)*t in [0, (max(d) - min(d))*t], cut at the largest offset asked
for.  A row is built as one Python int with B bytes per offset, that is the
row's generating polynomial evaluated at x = 2**(8*B) (Kronecker
substitution), so adding shifted rows is exact integer arithmetic at any
size; B is the least of 1, 2, 4, 8 or more bytes that holds `value_bound`.
A served row keeps that int until its first read unpacks it, through a
native memoryview when B is 1, 2, 4 or 8 and with int.from_bytes otherwise,
so rows that are only grown past cost no conversion.
`band_rows` keeps one shared `BandRows` per ring; `counting.count_row` (the
chamber fits' apex sweeps) reads it, and `bigraded_table` copies the band
rows that `verify`'s value rows and series identity read.  Point counts read
the partition waves instead (`waves.RingWaves`), so these rows stay a check
that shares no code with them.
Every table is checked against MAX_TABLE_CELLS before anything is allocated.
"""

import operator
import sys
import threading
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
    """Bytes per offset of row t: the fewest that hold value_bound, 1, 2, 4 or 8 up to 8."""
    need = (value_bound(n_columns, t).bit_length() + 7) // 8
    return need if need > 8 else 1 << (need - 1).bit_length()


class _Row:
    """A served row: `length` offsets packed `itemsize` bytes each into `packed`.

    Unpacked on its first read into `view`: a native memoryview at 1, 2, 4 or
    8 bytes per offset, a list of ints past that.  Readers that race both
    unpack the row and store equal views.
    """

    __slots__ = ("packed", "itemsize", "length", "view")

    def __init__(self, packed, itemsize, length):
        self.packed, self.itemsize, self.length = packed, itemsize, length
        self.view = None

    def __len__(self):
        return self.length

    def unpack(self):
        """The row's offsets, indexable and sliceable."""
        view = self.view
        if view is None:
            b = self.itemsize
            data = self.packed.to_bytes(b * self.length, "little")
            fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(b) if sys.byteorder == "little" else None
            if fmt:
                view = memoryview(data).cast(fmt)
            else:
                view = [int.from_bytes(data[i: i + b], "little") for i in range(0, len(data), b)]
            self.view = view
        return view


def _widen(packed, length, old, new):
    """`packed` with each of its `length` offsets widened from `old` to `new` bytes."""
    offsets = _Row(packed, old, length).unpack()
    return int.from_bytes(b"".join(v.to_bytes(new, "little") for v in offsets), "little")


class BandRows:
    """Exact counts of one bigraded ring, one cone-sheared row per t.

    rows[t].unpack()[k] is the count at bidegree (lo * t + k, t) for k up to
    min(cap, width * t): rows stop at the largest offset asked for, never past
    the band.  Row t of stage j (the first j columns) is stage j-1's row t
    plus stage j's row t-1 shifted by d_j - lo, one packed-int addition.
    The last row of every stage is kept, so a taller `extend` continues where
    it stopped, widening those n rows when row t needs more bytes per offset;
    a larger cap, at least double the old one, rebuilds the rows past the
    last one the old cap held whole.  `extend` takes the instance's lock.
    `rows` is one list that only grows, and an entry is replaced only by a
    complete row at least as long, so readers that take no lock read each
    rows[t] once.
    """

    def __init__(self, degrees):
        degrees = [operator.index(d) for d in degrees]
        self.lo = min(degrees)
        self.width = max(degrees) - self.lo
        self.shifts = [d - self.lo for d in degrees]
        self.cap = 0
        self.rows = [_Row(1, 1, 1)]
        # (t, bytes per offset, offsets, packed row t of every stage)
        self._last = (0, 1, 1, [1] * len(degrees))  # row len(rows) - 1
        self._whole = self._last  # the last row the cap holds whole
        self._lock = threading.Lock()

    def row(self, t, lo, hi):
        """Counts at (mu, t) for lo <= mu <= hi, zero off the band; [] when lo > hi.

        One `extend` and one slice of the unpacked row, however many points.
        """
        base = self.lo * t
        a, b = max(lo - base, 0), min(hi - base, self.width * t)
        if t < 0 or a > b:
            return [0] * max(hi - lo + 1, 0)
        rows = self.rows
        if t >= len(rows) or b >= rows[t].length:
            self.extend(t, b)
        row = rows[t]
        band = list((row.view or row.unpack())[a: b + 1])
        return [0] * (base + a - lo) + band + [0] * (hi - base - b)

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
            # rows up to the last whole one stay when the cap grows; the rest are rebuilt
            last = self._last if cap == self.cap else whole
            _, size, length, stages = last
            n = len(self.shifts)
            mask = None  # cuts a row to cap + 1 offsets of `size` bytes
            for t in range(last[0] + 1, t_max + 1):
                wider = _offset_bytes(n, t)
                if wider != size:
                    stages = [_widen(row, length, size, wider) for row in stages]
                    size, mask = wider, None
                bits = 8 * size
                old, length = length, min(cap, self.width * t) + 1
                if old + self.width > length and mask is None:  # only a cut row needs it
                    mask = (1 << bits * length) - 1
                row, new = 0, []
                for s, prev in zip(self.shifts, stages):
                    if s < length:  # a row shifted to the cut or past it adds nothing
                        if s:
                            prev <<= bits * s
                        row = row + prev if row else prev
                        if old + s > length:  # the shifted row passes the cut
                            row &= mask
                    new.append(row)
                stages = new
                last = (t, size, length, stages)
                if self.width * t <= cap:
                    whole = last
                served = _Row(row, size, length)
                if t < len(rows):
                    rows[t] = served
                else:
                    rows.append(served)
                if t == len(rows) - 1:  # so an error part-way leaves a valid state
                    self._last, self._whole = last, whole
            self.cap = cap


_BANDS: dict[tuple[int, ...], BandRows] = {}
_BANDS_LOCK = threading.Lock()


def band_rows(degrees) -> BandRows:
    """The one shared `BandRows` of the ring with these degrees, in any order."""
    key = tuple(sorted(operator.index(d) for d in degrees))
    with _BANDS_LOCK:
        band = _BANDS.get(key)
        if band is None:
            band = _BANDS[key] = BandRows(key)
    return band


def bigraded_table(degrees, t_max, mu_max):
    """Rows 0..t_max of the ring's shared band rows, cut at mu_max, as lists of ints.

    Row t holds the counts at mu = lo * t + k for 0 <= k <= min(width * t,
    mu_max - lo * t), with `band_rows(degrees)`'s lo and width; it is empty
    when lo * t > mu_max.  Each row counts as one cell or more of the budget.
    """
    check_cells(t_max + 1, "count table rows")
    band = band_rows(degrees)
    lo, hi = band.lo, band.lo + band.width
    t_top = t_max if lo == 0 else min(t_max, mu_max // lo)  # later rows start past mu_max
    # the last offset row t needs: the cap grows no further than the rows reach
    band.extend(t_top, max(min(mu_max - lo * t, band.width * t) for t in range(t_top + 1)))
    return [band.row(t, lo * t, min(hi * t, mu_max)) for t in range(t_max + 1)]
