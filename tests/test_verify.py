import json
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import decomposition_row_reference
from vpfbetti import hilbert
from vpfbetti.counting import DegreeMatrix
from vpfbetti.hilbert import KappaNumerator, _value_rows
from vpfbetti.quasipoly import FitError, Polynomial, QuasiPolynomial
from vpfbetti.rees import ci_shifts, ingest, serialize
from vpfbetti.regions import region_decomposition, row_support
from vpfbetti.verify import GRID_PAD, check_decomposition, verify_spec


def sign_flipped_236():
    """The (2, 3, 6) shifts with the first syzygy (5, 1) sign-flipped: not a module."""
    doc = json.loads(serialize(ci_shifts((2, 3, 6))))
    for entry in doc["tor"]:
        if entry["index"] == 1:
            for shift in entry["shifts"]:
                if shift["a"] == [5, 1]:
                    shift["c"] = -1
    return ingest(doc)


def report_without_duration(spec, tmax):
    out = verify_spec(spec, tmax).to_dict()
    del out["duration_s"]
    return out


def test_check_decomposition_leaves_warning_filters_alone(monkeypatch):
    # the filters are process-wide: a check that changes them races with
    # every other thread, so it must not touch them at all
    kappa = sign_flipped_236().tor(1)
    dec = region_decomposition(kappa)
    box = ((0, 1), (80, 10))
    rows = _value_rows(kappa, *box)

    def refuse(*args, **kwargs):
        raise AssertionError("process-wide warning filters touched")

    # undone before pytest, which uses both, reports the outcome
    with monkeypatch.context() as patch:
        patch.setattr(warnings, "catch_warnings", refuse)
        patch.setattr(warnings, "simplefilter", refuse)
        checks = {c.name: c for c in check_decomposition(dec, 10, rows, box)}
    assert not checks["nonnegative values"].passed
    assert checks["nonnegative values"].witness == (13, 5, -1)


def test_check_decomposition_refuses_rows_short_of_a_band_row():
    # rows cut short on any side would read as zeros and give false witnesses
    kappa = sign_flipped_236().tor(1)
    dec = region_decomposition(kappa)
    assert dec.t0 == 5
    for box in [((0, 6), (80, 10)), ((0, 1), (80, 9)), ((9, 1), (80, 10)), ((0, 1), (40, 10))]:
        with pytest.raises(ValueError, match="leave the value rows"):
            check_decomposition(dec, 10, _value_rows(kappa, *box), box)


def verify_rows(kappa, tmax):
    """The value rows and their box that verify_spec reads for kappa up to tmax."""
    shifts = kappa.shifts
    lo = (min(a[0] for a in shifts) - GRID_PAD, min(a[1] for a in shifts))
    bound = (max(kappa.ring.degrees) * tmax + max(a[0] for a in shifts) + GRID_PAD, tmax)
    return _value_rows(kappa, lo, bound), (lo, bound)


def test_a_failing_report_compares_every_band_row(monkeypatch):
    # all three witnesses are in row t0 = 4, and the report counts every band point
    ring = DegreeMatrix.bigraded((4, 9))
    kappa = KappaNumerator.from_terms(ring, [((8, 0), 1), ((6, 2), -1)])
    dec = region_decomposition(kappa)
    rows, box = verify_rows(kappa, 30)
    heights = set()
    read = QuasiPolynomial.eval_row

    def recorded(self, t, lo, hi):
        heights.add(t)
        return read(self, t, lo, hi)

    monkeypatch.setattr(QuasiPolynomial, "eval_row", recorded)
    checks = {c.name: c for c in check_decomposition(dec, 30, rows, box)}
    assert checks["oracle equivalence"].detail == "grid t=4..30, 2862 points"
    witnesses = ("oracle equivalence", "support exactness", "nonnegative values")
    assert [checks[name].witness[1] for name in witnesses] == [4, 4, 4]
    # row t reads the fits at t - a_t for a_t = 0 and 2
    assert heights == set(range(2, 31))


@pytest.mark.parametrize("degrees", [(2, 3, 6), (4, 7, 9), (3, 5, 7)])
def test_a_corrupted_fit_fails_at_the_reference_point(degrees):
    # every residue of every tor1 fit in turn is worth 1/2 (4 + 12, 15 + 10 and 4 + 4 classes)
    kappa = ci_shifts(degrees).tor(1)
    dec = region_decomposition(kappa)
    rows, box = verify_rows(kappa, 20)
    bands = [(t, *row_support(dec, t)) for t in range(dec.t0, 21)]
    bands = [(t, lo - GRID_PAD, hi + GRID_PAD) for t, lo, hi in bands]
    half = Polynomial(2, {(0, 0): Fraction(1, 2)})
    for idx, fit in dec.fits.items():
        for res in fit.lattice.residues():
            broken_fit = QuasiPolynomial(fit.lattice, {**fit.pieces, res: half})
            broken = replace(dec, fits={**dec.fits, idx: broken_fit})
            with pytest.raises(FitError) as want:
                for band in bands:
                    decomposition_row_reference(broken, *band)
            with pytest.raises(FitError, match=f"^{re.escape(str(want.value))}$"):
                check_decomposition(broken, 20, rows, box)


def test_line_ordering_fails_at_t0_on_corrupted_lines():
    kappa = ci_shifts((2, 3, 6)).tor(1)
    dec = region_decomposition(kappa)
    box = ((0, 1), (80, 10))
    rows = _value_rows(kappa, *box)

    def ordering(d):
        return next(c for c in check_decomposition(d, 10, rows, box) if c.name == "line ordering")

    assert ordering(dec).passed and ordering(dec).witness is None
    assert dec.t0 == 5
    # lines 0 and 1 have slope 2 and values 13 < 16 at t0; lines 3 and 4 have
    # slopes 2 < 3 and both value 17 at t0, so swapped they are sorted at t0
    # by value but not by slope, and cross above it
    assert [(L.slope, L.value(5)) for L in dec.lines[:5]] == [
        (2, 13), (2, 16), (2, 17), (2, 17), (3, 17)
    ]
    for i in (0, 3):
        lines = list(dec.lines)
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
        check = ordering(replace(dec, lines=tuple(lines)))
        assert not check.passed and check.witness == (dec.t0,)


def test_verify_spec_builds_one_set_of_rows_per_index_and_no_grid(monkeypatch):
    # the series identity and the oracle checks share one set of value rows
    # per index, and no dense grid is built under them
    calls = []

    def counted(kappa, lo, hi):
        calls.append((lo, hi))
        return _value_rows(kappa, lo, hi)

    def refuse(*args):
        raise AssertionError("verify built a dense value grid")

    for module in [m for name, m in sys.modules.items() if name.startswith("vpfbetti.")]:
        for attr, fn in [("hf_grid", hilbert.hf_grid), ("_value_rows", _value_rows)]:
            if getattr(module, attr, None) is fn:
                monkeypatch.setattr(module, attr, refuse if attr == "hf_grid" else counted)
    spec = ci_shifts((2, 3, 6))
    report = verify_spec(spec, 20)
    assert report.passed
    assert calls == [((-5, 0), (125, 20)), ((0, 1), (136, 20)), ((6, 1), (136, 20))]
    assert len(calls) == len(spec.tors)


def test_verify_spec_from_eight_threads(fresh_tables):
    spec = sign_flipped_236()
    want = report_without_duration(spec, 12)
    assert not want["passed"]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fresh_tables()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(report_without_duration, spec, 12) for _ in range(8)]
            assert [f.result(timeout=120) for f in futures] == [want] * 8
    finally:
        sys.setswitchinterval(switch)
