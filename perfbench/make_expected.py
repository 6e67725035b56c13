"""Record the seed outputs that the CLI jobs are compared with.

Usage: python3 perfbench/make_expected.py   (from the repository root)

Writes perfbench/data/ci_5_8.json (the shift document one verify job reads)
and perfbench/expected.json: for every fixed CLI job, the exit code and the
SHA-256 of its output with timing fields masked; and a pool of far points per
hilbert ring with the same record.  Structured output is promised to stay
byte-identical, so rerun this only when an output change is intended.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import vpfbetti  # noqa: E402
import vpfbetti.cli  # noqa: E402

import workloads  # noqa: E402
from worker import observed, run_cli  # noqa: E402


def record(calls, verify=False):
    job = {"kind": "cli", "verify": verify}
    out = observed(job, [run_cli(vpfbetti, argv) for argv in calls])
    for entry in out:
        if entry["exit"] != 0 or entry["stderr"] or entry.get("passed") is False:
            raise SystemExit(f"seed output is not a success: {calls} -> {entry}")
    return [{"exit": e["exit"], "sha256": e["sha256"], "bytes": e["bytes"]} for e in out]


def main():
    workloads.SPEC_5_8.parent.mkdir(exist_ok=True)
    workloads.SPEC_5_8.write_text(vpfbetti.serialize(vpfbetti.ci_shifts((5, 8))))
    cli = {job_id: record(calls, verify=True) for job_id, calls in workloads.VERIFY_CI}
    cli.update({job_id: record(calls) for job_id, calls in workloads.FIT_REGIONS})
    rng = random.Random("hilbert-pool")
    pool = {}
    for degrees in workloads.HILBERT_RINGS:
        entries = []
        for _ in range(workloads.HILBERT_POOL):
            t = rng.randint(1000, 100000)
            point = [rng.randint(min(degrees) * t, max(degrees) * t), t]
            (expect,) = record([workloads.hilbert_argv(degrees, point)])
            entries.append({"point": point, "expect": expect})
        pool[",".join(map(str, degrees))] = entries
    doc = {"cli": cli, "hilbert_pool": pool}
    workloads.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.EXPECTED} and {workloads.SPEC_5_8}")


if __name__ == "__main__":
    main()
