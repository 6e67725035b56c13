"""Outside-in span recorder for the vpfbetti benchmark.

The package is not instrumented; this module wraps its public functions from
outside.  Every module that bound a wrapped name gets the wrapper (so
``vpfbetti.verify.hf_module`` and ``vpfbetti.hilbert.hf_module`` are both
patched), methods are replaced on their class, and ``install`` fails if any
original object is still reachable from a ``vpfbetti`` module afterwards.

Each call records a span (name, start, end, parent) in flat in-memory arrays;
``summary`` turns them into per-name call counts and self times (span time
minus the time covered by child spans) when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

# Span names.  "kernels.fill" is split by the
# path the kernel takes (int64 or bigint) so each path has its own self time.
SPANS = (
    "cli",
    "rees.ingest",
    "render",
    "hilbert.hf_ring",
    "verify.check_decomposition",
    "hilbert.series_identity",
    "regions.decomposition",
    "regions.eval_betti",
    "hilbert.hf_module",
    "chambers.locate",
    "quasipoly.fit",
    "quasipoly.shift",
    "quasipoly.add",
    "quasipoly.eval",
    "lattices.reduce",
    "counting.count",
    "counting.series_coeffs",
    "counting.box_fill",
    "kernels.fill.int64",
    "kernels.fill.bigint",
)
REPORTED_CALLS = (
    "counting.count", "quasipoly.fit", "quasipoly.eval", "lattices.reduce",
    "chambers.locate", "regions.decomposition", "regions.eval_betti",
    "hilbert.hf_module",
)
REPORTED_SELF = REPORTED_CALLS + (
    "counting.series_coeffs", "quasipoly.shift", "quasipoly.add",
    "hilbert.series_identity", "verify.check_decomposition", "hilbert.hf_ring",
    "rees.ingest", "render", "cli",
)


class Tracer:
    """Flat span store plus the counters measured at the wrapped boundaries."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.ids = {n: i for i, n in enumerate(SPANS)}
        # counters filled by the boundary hooks
        self.fills = 0  # table constructions of any kind
        self.count_hits = 0  # counting.count calls that built no table
        self.fill_cells = 0
        self.fill_bytes = 0
        self.fit_residues = 0

    def wrap(self, span, fn):
        """Return fn wrapped so that every call records one span."""
        nid = self.ids[span]
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self.stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def metrics(self) -> dict:
        """The per-layer metrics of this run, under the names BENCHMARK.json lists."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        starts = np.frombuffer(self.start, dtype=np.float64)
        ends = np.frombuffer(self.end, dtype=np.float64)
        dur = ends - starts
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        k = len(SPANS)
        calls = dict(zip(SPANS, np.bincount(names, minlength=k).tolist()))
        self_s = dict(zip(SPANS, np.bincount(names, weights=dur - child, minlength=k).tolist()))
        # grid points compared by verify: eval_betti spans nested in
        # check_decomposition (spans are stored in start order, so a span's
        # descendants are the indices up to the first start after its end)
        points = 0
        is_eval = names == self.ids["regions.eval_betti"]
        for idx in np.flatnonzero(names == self.ids["verify.check_decomposition"]):
            stop = int(np.searchsorted(starts, ends[idx], side="right"))
            points += int(is_eval[idx + 1:stop].sum())
        int64, bigint = "kernels.fill.int64", "kernels.fill.bigint"
        out = {
            "kernels.fill.calls": calls[int64] + calls[bigint],
            "kernels.fill.self_s": self_s[int64] + self_s[bigint],
            "kernels.fill.cells": self.fill_cells,
            "kernels.fill.bytes_computed": self.fill_bytes,
            "kernels.fill.bigint_calls": calls[bigint],
            "kernels.fill.bigint_self_s": self_s[bigint],
            "counting.table_hit_ratio": self.count_hits / max(1, calls["counting.count"]),
            "quasipoly.fit.residues": self.fit_residues,
            "verify.points_checked": points,
        }
        for span in REPORTED_CALLS:
            out[f"{span}.calls"] = calls[span]
        for span in REPORTED_SELF:
            out[f"{span}.self_s"] = self_s[span]
        return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_computed"):
        return "B"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "vpfbetti" or n.startswith("vpfbetti.")]


def _rebind(original, replacement) -> None:
    """Point every module-level binding of `original` at `replacement`."""
    hits = 0
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"no module binds {original!r}")


def _table_bytes(table) -> int:
    if isinstance(table, np.ndarray):
        return int(table.nbytes)
    return 8 * sum(len(row) for row in table)  # one machine word per cell


def install() -> Tracer:
    """Wrap every traced boundary of the imported package; return the tracer."""
    import vpfbetti  # noqa: F401  (loads every submodule)
    from vpfbetti import (
        chambers, cli, counting, hilbert, kernels, quasipoly, rees, regions,
        svgfig, textfmt, verify,
    )
    from vpfbetti.lattices import Lattice
    from vpfbetti.quasipoly import QuasiPolynomial

    tr = Tracer()
    originals = []

    def patch(span, fn, outer=None):
        traced = tr.wrap(span, fn)
        originals.append(fn)
        _rebind(fn, outer(traced) if outer else traced)

    def patch_method(span, cls, attr):
        fn = cls.__dict__[attr]
        originals.append(fn)
        setattr(cls, attr, tr.wrap(span, fn))

    # kernel fill: the path is the one kernels.value_bound selects
    fill = kernels.bigraded_table
    safe = getattr(kernels, "_INT64_SAFE", 2**62)
    fill_int64 = tr.wrap("kernels.fill.int64", fill)
    fill_bigint = tr.wrap("kernels.fill.bigint", fill)

    def traced_fill(degrees, t_max, mu_max):
        bigint = kernels.value_bound(len(degrees), t_max) >= safe
        table = (fill_bigint if bigint else fill_int64)(degrees, t_max, mu_max)
        tr.fills += 1
        tr.fill_cells += (t_max + 1) * (mu_max + 1)
        tr.fill_bytes += _table_bytes(table)
        return table

    originals.append(fill)
    _rebind(fill, traced_fill)

    def count_hits(traced):
        def traced_count(A, u):
            before = tr.fills
            value = traced(A, u)
            if tr.fills == before:
                tr.count_hits += 1
            return value
        return traced_count

    def box_fills(traced):
        def traced_box(columns, bound):
            tr.fills += 1
            return traced(columns, bound)
        return traced_box

    def fit_residues(traced):
        def traced_fit(A, chamber, lattice, **kwargs):
            tr.fit_residues += lattice.det
            return traced(A, chamber, lattice, **kwargs)
        return traced_fit

    patch("counting.count", counting.count, count_hits)
    patch("counting.series_coeffs", counting.series_coeffs)
    if hasattr(counting, "_box_table"):  # private; absent means no boxed DP to time
        patch("counting.box_fill", counting._box_table, box_fills)
    patch("quasipoly.fit", quasipoly.fit_chamber_qp, fit_residues)
    patch("chambers.locate", chambers.locate)
    patch("regions.decomposition", regions.region_decomposition)
    patch("regions.eval_betti", regions.eval_betti)
    patch("hilbert.hf_module", hilbert.hf_module)
    patch("hilbert.series_identity", hilbert.series_identity_check)
    patch("hilbert.hf_ring", hilbert.hf_bigraded_ring)
    patch("verify.check_decomposition", verify.check_decomposition)
    patch("rees.ingest", rees.ingest)
    patch("cli", cli.main)
    for mod in (textfmt, svgfig):
        for key, fn in list(vars(mod).items()):
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not key.startswith("_"):
                patch("render", fn)
    patch_method("quasipoly.shift", QuasiPolynomial, "shift")
    patch_method("quasipoly.add", QuasiPolynomial, "add")
    patch_method("quasipoly.eval", QuasiPolynomial, "eval")
    patch_method("lattices.reduce", Lattice, "reduce")

    left = [
        f"{mod.__name__}.{key}"
        for mod in _package_modules()
        for holder in [vars(mod)] + [vars(c) for c in vars(mod).values() if inspect.isclass(c)]
        for key, value in holder.items()
        if any(value is fn for fn in originals)
    ]
    if left:
        raise RuntimeError(f"unwrapped bindings remain: {left}")
    return tr
