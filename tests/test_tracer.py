"""The benchmark's tracer still wraps every name it traces.

perfbench/tracer.py patches the package from outside by name, so renaming or
unbinding a traced function breaks traced benchmark runs; this test makes that
a test failure.  It runs in a fresh interpreter because install() rebinds
the package's functions for the rest of the process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import tracer
tr = tracer.install()
from vpfbetti import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main(["hilbert", "--degrees", "2,3,6", "12,2"])
hilbert = tr.metrics()
with contextlib.redirect_stdout(io.StringIO()) as counted:
    rc_count = cli.main(["count", "--degrees", "2,3,6", "12,2"])
print(json.dumps({{
    "rc": [rc, rc_count], "out": [out.getvalue(), counted.getvalue()],
    "hilbert": hilbert, "metrics": tr.metrics(),
}}))
"""


def test_tracer_installs_and_records_a_traced_query():
    code = TRACED_RUN.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["rc"] == [0, 0]
    assert report["out"][0].startswith("1  chamber=C2") and report["out"][1] == "1\n"
    # a ring query reads partition waves: it locates its chamber and counts nothing
    assert report["hilbert"]["chambers.locate.calls"] >= 1
    assert report["hilbert"]["counting.count.calls"] == 0
    assert report["metrics"]["counting.count.calls"] >= 1
