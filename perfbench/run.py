"""vpfbetti benchmark: run one workload and print its metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-ci --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all > perfbench/baseline.json

With ``--trace 0`` the run repeats the workload's job list in fresh worker
processes for ``--seconds`` seconds and reports the end-to-end metrics
(medians over the repetitions).  With ``--trace 1`` it alternates untraced and
traced repetitions and reports the per-layer metrics.  Every repetition's
output is checked against its reference; the last line of stdout is
{"correct", "attempted", "failed", "metrics"}.  ``--workload all`` runs every
workload both ways and prints one document with the environment.

The package is imported from ``src/`` next to this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import unit_of
from workloads import WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9  # fresh interpreters timed per run for setup_s, at least
MIN_REPS = 3  # untraced repetitions per run, at least
BUDGET_S = 150  # no repetition starts that could end after this
WORKER_TIMEOUT_S = 120

class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def time_import() -> float:
    """Wall time of one fresh interpreter that imports vpfbetti."""
    start = time.perf_counter()
    # with pipes, run() returns at the child's exit; a plain wait with a
    # timeout polls in steps of up to 50 ms and would quantise the time
    subprocess.run(
        [sys.executable, "-c", "import vpfbetti"],
        env=child_env(), cwd=ROOT, check=True, timeout=60, capture_output=True,
    )
    return time.perf_counter() - start


def run_worker(jobs: list[dict], trace: bool) -> dict:
    # the worker receives only the generated inputs, never the references
    request = {"trace": trace, "jobs": [{k: v for k, v in j.items() if k != "expect"} for j in jobs]}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(request), capture_output=True, text=True,
        env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if not Path(report["package_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported vpfbetti from {report['package_file']}, not from {SRC}")
    return report


def job_failure(job: dict, out) -> str | None:
    """Why a job's observed output does not match its reference, or None."""
    if isinstance(out, dict):
        return out.get("error", "malformed worker output")
    if job["kind"] == "count":
        bad = [(p, w, g) for p, w, g in zip(job["points"], job["expect"], out) if w != g]
        if bad or len(out) != len(job["expect"]):
            return f"count mismatch (point, reference, got): {bad[:3]}"
        return None
    if len(out) != len(job["calls"]):
        return "missing call outputs"
    for argv, want, got in zip(job["calls"], job["expect"], out):
        if got["exit"] != want["exit"]:
            return f"{argv}: exit {got['exit']}, expected {want['exit']}"
        if got["sha256"] != want["sha256"]:
            return f"{argv}: output differs from the seed output ({got['bytes']} vs {want['bytes']} bytes)"
        if got["stderr"]:
            return f"{argv}: unexpected stderr {got['stderr'][:200]!r}"
        if job["verify"] and got.get("passed") is not True:
            return f"{argv}: report did not pass"
    return None


def counts_of(metrics: dict) -> dict:
    """The per-layer values that must repeat exactly between traced runs."""
    return {k: v for k, v in metrics.items() if unit_of(k) != "s"}


def per_layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    """Seconds are medians over the traced repetitions; counts are exact."""
    metrics = {}
    for name, first in traced[0]["trace"].items():
        unit = unit_of(name)
        value = median(r["trace"][name] for r in traced) if unit == "s" else first
        metrics[name] = {"value": value, "unit": unit}
    overhead = median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    jobs = make_jobs(workload, seed)
    if not trace:
        time_import()  # warm the bytecode and file caches
    # setup samples are taken between repetitions, so that they see the same
    # machine conditions as the workload
    setups, plain, traced = [], [], []
    attempted = failed = 0
    problems = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - begin
        enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= 2)
        if enough and (elapsed >= seconds or elapsed + 1.5 * longest > BUDGET_S):
            break
        if not trace:
            setups.append(time_import())
        use_trace = trace and len(traced) < len(plain)
        rep_start = time.perf_counter()
        report = run_worker(jobs, use_trace)
        longest = max(longest, time.perf_counter() - rep_start)
        for job, out in zip(jobs, report["outputs"]):
            attempted += 1
            why = job_failure(job, out)
            if why:
                failed += 1
                problems.append(f"{job['id']}: {why}")
        (traced if use_trace else plain).append(report)

    correct = failed == 0
    if trace:
        first = counts_of(traced[0]["trace"])
        for other in traced[1:]:
            if counts_of(other["trace"]) != first:
                correct = False
                problems.append("traced repetitions disagree on call or cell counts")
        metrics = per_layer_metrics(traced, plain)
    else:
        setups += [time_import() for _ in range(SETUP_SAMPLES - len(setups))]
        metrics = {
            "wall_s": {"value": median(r["wall_s"] for r in plain), "unit": "s"},
            "setup_s": {"value": median(setups), "unit": "s"},
            "peak_rss_mib": {"value": median(r["peak_rss_mib"] for r in plain), "unit": "MiB"},
        }
    for line in problems[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    return {
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "worker_env": plain[0]["env"],
    }


def environment(worker_env: dict) -> dict:
    env = dict(worker_env)
    env["nproc"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env["cpu_model"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    env["commit"] = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        env["commit"] = proc.stdout.strip() or None
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vpfbetti" / "__init__.py").is_file():
        print(f"error: no vpfbetti package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps({"env": environment(run["worker_env"]), "repetitions": run["repetitions"]}))
            print(json.dumps(run["result"]))
            return 0
        doc = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                run = measure(workload, args.seed, args.seconds, trace)
                doc["workloads"].setdefault(workload, {})["traced" if trace else "end_to_end"] = {
                    **run["result"], "repetitions": run["repetitions"],
                }
                print(f"{workload} trace={int(trace)} done", file=sys.stderr)
        doc["env"] = environment(run["worker_env"])
        print(json.dumps(doc, indent=1, sort_keys=True))
        return 0
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
