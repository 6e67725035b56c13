"""The benchmark's workloads: fixed job lists whose query points come from a seed.

A job is one unit that passes or fails.  CLI jobs call ``vpfbetti.cli.main``
once per argv in ``calls``; count jobs are a library session of ``count``
queries on one ring.  No two jobs of a workload share a ring (and so no
count table or chamber-fit cache), except the ``revisit`` job of count-sweep.
The seed picks query points, never the amount of work; verify-ci has no
query points, so its seed changes nothing.  The job order is fixed because
count tables stay cached, so the order changes which allocations overlap
and with it the peak memory.

Expected results: CLI output is compared, after masking timing fields, with
the seed output recorded in expected.json by make_expected.py; verify jobs
must also report ``passed: true``; counts are compared with reference.py.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SPEC_5_8 = HERE / "data" / "ci_5_8.json"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("verify-ci", "fit-regions", "count-sweep")

# --- verify-ci: the oracle-check commands users run ---------------------------
VERIFY_CI = (
    ("reproduce", [["reproduce", "--tmax", "40"]]),
    ("verify-4,7,9", [["verify", "--degrees", "4,7,9", "--tmax", "40", "--format", "structured"]]),
    # shift data read through --spec so that rees.ingest runs
    ("verify-spec-5,8", [["verify", "--spec", str(SPEC_5_8), "--tmax", "120", "--format", "structured"]]),
)

# --- fit-regions: chamber fits and region decompositions ----------------------
FIT_REGIONS = (
    ("regions-4,9,13-structured", [["regions", "--degrees", "4,9,13", "--index", "1", "--format", "structured"]]),
    ("regions-6,10,15-csv", [["regions", "--degrees", "6,10,15", "--index", "1", "--format", "csv"]]),
    ("regions-2,3,6-svg", [["regions", "--degrees", "2,3,6", "--index", "1", "--format", "svg"]]),
    ("chambers-2,3,6,7,11", [["chambers", "--degrees", "2,3,6,7,11", "--format", "structured"]]),
)
# far hilbert points: every chamber is fitted, no count table covers the point
HILBERT_RINGS = ((2, 3, 6, 7), (2, 3, 4, 5, 6))
HILBERT_POOL = 32  # recorded points per ring in expected.json
HILBERT_POINTS = 4  # points per ring and run, drawn from the pool

# --- count-sweep: growing count tables -----------------------------------------
# Each t doubles the last, so every first query at a new t regrows the table to
# exactly (t+1) x (max(d)*t + 1) whatever mu the seed picks.  The 12-column
# ring crosses t = 239, where the 64-bit bound fails and the bigint fill runs.
SWEEP_RINGS = (
    ("wide-2,3,6", (2, 3, 6), (125, 250, 500, 1000, 2000)),
    ("narrow-10,11,12", (10, 11, 12), (125, 250, 500, 1000)),
    ("four-2,3,6,7", (2, 3, 6, 7), (75, 150, 300, 600, 1200)),
    ("bigint-12col", (1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3), (30, 60, 120, 240)),
)
QUERIES_PER_T = 3  # one regrowth, then reads inside the new table
BOX_COLUMNS = ((1, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1))
BOX_FIRST = (19, 16, 20)  # fixes the box the boxed DP fills
REVISIT_QUERIES = 8

_DURATION = re.compile(r'"duration_s": [0-9.eE+-]+')
_ELAPSED = re.compile(r" in \d+\.\d+s$", re.MULTILINE)


def mask_output(text: str) -> str:
    """Blank the timing fields so outputs compare byte for byte."""
    return _ELAPSED.sub(" in X.XXs", _DURATION.sub('"duration_s": 0', text))


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def hilbert_argv(degrees, point):
    return [
        "hilbert", "--degrees", ",".join(map(str, degrees)),
        f"{point[0]},{point[1]}", "--format", "structured",
    ]


def _cone_mu(rng, degrees, t):
    # at least max(d)*t/4, so the first query of a ring covers its whole cone
    lo = max(min(degrees) * t, -(-max(degrees) * t // 4))
    return rng.randint(lo, max(degrees) * t)


def _cli_job(job_id, calls, expect, verify=False):
    return {"id": job_id, "kind": "cli", "calls": calls, "expect": expect, "verify": verify}


def _count_job(job_id, ring, points, expect):
    return {"id": job_id, "kind": "count", "ring": ring, "points": points, "expect": expect}


def _sweep_jobs(rng):
    jobs = []
    for job_id, degrees, ts in SWEEP_RINGS:
        points = [[_cone_mu(rng, degrees, t), t] for t in ts for _ in range(QUERIES_PER_T)]
        jobs.append(_count_job(
            job_id, {"degrees": list(degrees)}, points,
            [reference.count_bigraded(degrees, p) for p in points],
        ))
    box = [list(BOX_FIRST)]
    for _ in range(QUERIES_PER_T):
        lam = [rng.randint(0, 2) for _ in BOX_COLUMNS]
        box.append([sum(k * c[i] for k, c in zip(lam, BOX_COLUMNS)) for i in range(3)])
    jobs.append(_count_job(
        "boxed-dp", {"columns": [list(c) for c in BOX_COLUMNS]}, box,
        [reference.count_general(BOX_COLUMNS, p) for p in box],
    ))
    # the intended revisit: reads inside the first ring's finished table
    _, degrees, ts = SWEEP_RINGS[0]
    revisit = []
    for _ in range(REVISIT_QUERIES):
        t = rng.randint(1, ts[-1])
        revisit.append([rng.randint(min(degrees) * t, max(degrees) * t), t])
    jobs.append(_count_job(
        "revisit-2,3,6", {"degrees": list(degrees)}, revisit,
        [reference.count_bigraded(degrees, p) for p in revisit],
    ))
    return jobs


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one workload run, with each job's expected result."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "count-sweep":
        return _sweep_jobs(rng)
    expected = load_expected()
    if workload == "verify-ci":
        jobs = [
            _cli_job(job_id, calls, expected["cli"][job_id], verify=True)
            for job_id, calls in VERIFY_CI
        ]
    else:
        jobs = [_cli_job(job_id, calls, expected["cli"][job_id]) for job_id, calls in FIT_REGIONS]
        for degrees in HILBERT_RINGS:
            key = ",".join(map(str, degrees))
            picks = rng.sample(expected["hilbert_pool"][key], HILBERT_POINTS)
            jobs.append(_cli_job(
                f"hilbert-{key}",
                [hilbert_argv(degrees, p["point"]) for p in picks],
                [p["expect"] for p in picks],
            ))
    return jobs
