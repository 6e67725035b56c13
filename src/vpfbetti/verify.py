"""Verification suites: oracle equivalence, support, ordering, series identity.

Every check that fails carries a concrete witness point.  These are the
checks behind the `verify` CLI command and the acceptance tests.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from .hilbert import _padded, _series_identity, _value_rows
from .regions import RegionDecomposition, eval_rows, region_decomposition, row_support
from .rees import ToriSpec, serialize

# lattice points checked beyond each side of the support at every height
GRID_PAD = 5


@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: tuple | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass
class RunReport:
    command: str
    input_digest: str
    checks: list[CheckResult] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "duration_s": round(self.duration_s, 3),
        }

    def render(self) -> str:
        lines = [f"report for: {self.command}", f"input digest: {self.input_digest}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"  [{status}] {c.name}"
            if c.detail:
                line += f" ({c.detail})"
            if c.witness is not None:
                line += f" witness={tuple(c.witness)}"
            lines.append(line)
        lines.append(
            f"{'all checks passed' if self.passed else 'CHECKS FAILED'} "
            f"in {self.duration_s:.2f}s"
        )
        return "\n".join(lines)


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _unsorted(values) -> bool:
    return any(b < a for a, b in zip(values, values[1:]))


def check_decomposition(dec: RegionDecomposition, tmax: int, rows, box):
    """Oracle equivalence and support exactness up to tmax, line ordering for all t >= t0.

    The oracle is rows = `hilbert._value_rows(dec.kappa, *box)`; rows whose
    box misses a band row raise ValueError.
    """
    if tmax < dec.t0:
        detail = f"empty grid: tmax {tmax} below threshold {dec.t0}"
        return [CheckResult("oracle equivalence", True, detail=detail)]

    supports = [(t, *row_support(dec, t)) for t in range(dec.t0, tmax + 1)]
    bands = [(t, lo - GRID_PAD, hi + GRID_PAD) for t, lo, hi in supports]
    (mu0, t_first), (mu1, t_last) = box
    lo, hi = min(b[1] for b in bands), max(b[2] for b in bands)
    if dec.t0 < t_first or tmax > t_last or lo < mu0 or hi > mu1:
        raise ValueError(f"band rows mu={lo}..{hi}, t={dec.t0}..{tmax} leave the value rows")
    equiv_witness = support_witness = negative_witness = None
    for (t, lo, hi), gots in zip(bands, eval_rows(dec, bands)):
        wants = _padded(*rows[t - t_first], lo, hi)
        # a row is scanned point by point only for a witness it can still give
        if (gots != wants and (equiv_witness is None or support_witness is None)) or (
            negative_witness is None and min(wants) < 0
        ):
            for mu, got, want in zip(range(lo, hi + 1), gots, wants):
                if got != want and equiv_witness is None:
                    equiv_witness = (mu, t, got, want)
                if (got == 0) != (want == 0) and support_witness is None:
                    support_witness = (mu, t, got, want)
                if want < 0 and negative_witness is None:
                    negative_witness = (mu, t, want)
    npoints = sum(hi - lo + 1 for _, lo, hi in bands)
    checks = [
        CheckResult("oracle equivalence", equiv_witness is None, equiv_witness,
                    f"grid t={dec.t0}..{tmax}, {npoints} points"),
        CheckResult("support exactness", support_witness is None, support_witness,
                    "zero exactly where the oracle is zero"),
        CheckResult("nonnegative values", negative_witness is None, negative_witness,
                    "genuine syzygy dimensions cannot be negative"),
    ]

    # the gap between neighbours at t is their gap at t0 plus their slope gap
    # times t - t0: sorted slopes and values sorted at t0 stay sorted for all
    # t >= t0, so the order is certified, or first fails, at t0
    unsorted = _unsorted([line.slope for line in dec.lines]) or _unsorted(
        [line.value(dec.t0) for line in dec.lines]
    )
    detail = f"monotone values and slope blocks, t={dec.t0}..{tmax}"
    witness = (dec.t0,) if unsorted else None
    return [*checks, CheckResult("line ordering", not unsorted, witness, detail)]


def verify_spec(spec: ToriSpec, tmax: int) -> RunReport:
    """Run every suite on every homological index of a shift specification."""
    start = time.perf_counter()
    report = RunReport(
        command=f"verify degrees={list(spec.degrees)} tmax={tmax}",
        input_digest=digest_of(serialize(spec)),
    )
    max_deg = max(spec.degrees)
    for index, kappa in spec.tors:
        prefix = f"tor{index}"
        if tmax <= 0:
            report.checks.append(
                CheckResult(
                    f"{prefix}: series identity",
                    True,
                    detail="empty grid (tmax <= 0); nothing checked",
                )
            )
            continue
        # one set of value rows per index: the oracle checks read them, then
        # the identity certifies them, last because its product runs in place
        shifts = kappa.shifts
        mu_bound = max_deg * tmax + max((a[0] for a in shifts), default=0) + GRID_PAD
        # the rows start at the lowest shift whatever the box's left edge
        box = ((min((a[0] for a in shifts), default=0) - GRID_PAD,
                min((a[1] for a in shifts), default=0)), (mu_bound, tmax))
        rows = _value_rows(kappa, *box)
        if kappa.is_zero():
            checks = [CheckResult("decomposition", True, detail="empty numerator")]
        else:
            checks = check_decomposition(region_decomposition(kappa), tmax, rows, box)
        identity = CheckResult(
            "series identity",
            _series_identity(kappa, rows, box[0][1]),
            detail=f"coefficients up to ({mu_bound}, {tmax})",
        )
        for check in [identity, *checks]:
            check.name = f"{prefix}: {check.name}"
            report.checks.append(check)
    report.duration_s = time.perf_counter() - start
    return report
