"""Run one workload's job list in a fresh, single-threaded interpreter.

Usage (from run.py): python3 perfbench/worker.py < request.json

The request is {"trace": bool, "jobs": [...]} as built by workloads.py.  The
worker imports vpfbetti, optionally installs the span recorder, runs the jobs
in order through the package's public entry points, and prints one JSON line
with the job-list wall time, peak resident memory, each job's observed output
and, when traced, the per-layer metrics.  Output checking happens in run.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

from workloads import mask_output


def run_cli(vpfbetti, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = vpfbetti.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_count(vpfbetti, job):
    ring = job["ring"]
    if "degrees" in ring:
        A = vpfbetti.DegreeMatrix.bigraded(ring["degrees"])
    else:
        A = vpfbetti.DegreeMatrix.from_columns(ring["columns"])
    # looked up on each call so that a traced run goes through the wrapper
    return [vpfbetti.count(A, p) for p in job["points"]]


def run_job(vpfbetti, job):
    if job["kind"] == "count":
        return run_count(vpfbetti, job)
    return [run_cli(vpfbetti, argv) for argv in job["calls"]]


def verify_passed(stdout: str) -> bool:
    """The report's own verdict: `passed` in JSON, the closing line in text."""
    if stdout.startswith("{"):
        return json.loads(stdout).get("passed") is True
    return "all checks passed" in stdout


def observed(job, raw):
    """What run.py compares: masked digests for CLI calls, values for counts."""
    if job["kind"] == "count" or "error" in raw:
        return raw
    out = []
    for call in raw:
        text = mask_output(call["stdout"])
        entry = {
            "exit": call["exit"],
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "bytes": len(text),
            "stderr": call["stderr"],
        }
        if job.get("verify"):
            entry["passed"] = verify_passed(call["stdout"])
        out.append(entry)
    return out


def main() -> int:
    request = json.load(sys.stdin)
    import vpfbetti
    import vpfbetti.cli

    tracer = None
    if request["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.install()

    raw = []
    start = time.perf_counter()
    for job in request["jobs"]:
        try:
            raw.append(run_job(vpfbetti, job))
        except Exception:  # noqa: BLE001 - a failed job is counted, the rest still run
            raw.append({"error": traceback.format_exc(limit=4)})
    wall_s = time.perf_counter() - start

    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {
        "wall_s": wall_s,
        "peak_rss_mib": peak_kib / 1024.0,
        "outputs": [observed(job, r) for job, r in zip(request["jobs"], raw)],
        "trace": tracer.metrics() if tracer else None,
        "package_file": vpfbetti.__file__,
        "env": {
            "python": sys.version.split()[0],
            "numpy": __import__("numpy").__version__,
            "compiled_kernels_available": bool(getattr(vpfbetti, "compiled_kernels_available", False)),
        },
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
