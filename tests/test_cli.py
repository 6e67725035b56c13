import contextlib
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_count
from vpfbetti.cli import main
from vpfbetti.counting import DegreeMatrix, count
from vpfbetti.rees import ci_shifts, serialize


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_count_basic(capsys):
    rc, out, _ = run(capsys, "count", "--degrees", "2,3,6,7", "9,2")
    assert rc == 0 and out.strip() == "2"


def test_count_origin(capsys):
    rc, out, _ = run(capsys, "count", "--degrees", "2,3,6,7", "0,0")
    assert rc == 0 and out.strip() == "1"


def test_count_outside(capsys):
    rc, out, _ = run(capsys, "count", "--degrees", "2,3,6,7", "1,0")
    assert rc == 0 and out.strip() == "0"


@pytest.mark.parametrize(
    "argv", [["count", "--degrees", "2,3", "-1,0"], ["hilbert", "--degrees", "2,3", "-2,5"]]
)
def test_negative_point_is_a_positional(capsys, argv):
    # without "--": a point with a leading minus is not read as an option
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (0, "0\n", "")


def test_count_matrix_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": [[1, 0, 1], [0, 1, 1]]}))
    rc, out, _ = run(capsys, "count", "--matrix", str(path), "2,2")
    # (2,2) = 2*(1,1) = (1,0)+(0,1)+(1,1) = 2*(1,0)+2*(0,1): three ways
    assert rc == 0 and out.strip() == "3"


def test_count_usage_error(capsys):
    rc, _, err = run(capsys, "count", "9,2")
    assert rc == 2 and "error" in err


def test_count_degree_wider_than_first_table(capsys):
    rc, out, _ = run(capsys, "count", "--degrees", "1,20", "1,1")
    assert rc == 0 and out.strip() == "1"


def test_count_over_budget_exits_2_without_allocating(capsys):
    tracemalloc.start()
    try:
        # rows to t = 10**5 holding offsets up to 5 * 10**4: 3.75e9 cells
        rc, out, err = run(capsys, "count", "--degrees", "1,2", "150000,100000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == "" and err.startswith("error:") and "budget" in err
    assert peak < 2**20


@pytest.mark.parametrize("degrees,point", [("1,1000000", "10,10"), ("2,1000", "4000,2000")])
def test_count_widely_spread_degrees_near_the_band_edge(capsys, degrees, point):
    # the whole band would be over the budget; the rows asked for are tiny
    rc, out, _ = run(capsys, "count", "--degrees", degrees, point)
    assert rc == 0 and out.strip() == "1"


def test_count_degree_spread_past_any_allocation(capsys):
    # shifting a row by 10**20 offsets cannot be allocated; the cut row needs none
    rc, out, err = run(capsys, "count", "--degrees", "1,100000000000000000000", "3,2")
    assert (rc, out, err) == (0, "0\n", "")


def test_count_bad_point(capsys):
    rc, _, err = run(capsys, "count", "--degrees", "2,3", "a,b")
    assert rc == 2


@pytest.mark.parametrize(
    "argv, content",
    [
        (["count", "--degrees=-1,2", "1,1"], None),
        (["hilbert", "--degrees", "2,3,-1", "5,2"], None),
        (["hilbert", "--degrees", "2,3,6", "5"], None),
        (["regions", "--degrees", "2,3,0", "--index", "1"], None),
        (["chambers", "--degrees", "2,3,-1"], None),
        (["count", "--matrix", "{file}", "1,1"], '{"rows": [[1, 0, 1], [0, 0, 1]]}'),
        (["count", "--matrix", "{file}", "1,1"], '{"rows": [[1, 0'),
        (["count", "--matrix", "{file}", "1,1"], '{"rows": [[1, 2], [1]]}'),
        # only JSON integers are matrix entries: 1.5 would be truncated to 1
        (["count", "--matrix", "{file}", "3,2"], '{"rows": [[1.5, 1], [1, 1]]}'),
        (["count", "--matrix", "{file}", "3,2"], '{"rows": [[1e400, 1], [1, 1]]}'),
        (["count", "--matrix", "{file}", "3,2"], '{"rows": [[true, 1], [1, 1]]}'),
        (["count", "--matrix", "{file}", "3,2"], '{"rows": [["3", 1], [1, 1]]}'),
        (["count", "--matrix", "{file}", "3,2"], '{"rows": ["31", "11"]}'),
        # file arguments that cannot be read are input errors, not verification failures
        (["count", "--matrix", "{dir}", "1,1"], None),
        (["verify", "--spec", "{dir}"], None),
        (["count", "--matrix", "{file}", "1,1"], b'{"rows": [[1, 0], [0, 1]]}\xff'),
        (["verify", "--spec", "{file}"], serialize(ci_shifts((2, 3))).encode() + b"\xe9"),
        (["count", "--degrees", "2,3", "5,2", "--out", "{dir}"], None),
        # an empty field is not read as a missing coordinate or degree
        (["count", "--degrees", "2,3", "1,,1"], None),
        (["count", "--degrees", "2,,3", "5,2"], None),
    ],
    ids=[
        "count-negative-degree",
        "hilbert-negative-degree",
        "hilbert-short-point",
        "regions-zero-degree",
        "chambers-negative-degree",
        "matrix-zero-column",
        "matrix-malformed-json",
        "matrix-ragged-rows",
        "matrix-float-entry",
        "matrix-overflowing-float-entry",
        "matrix-bool-entry",
        "matrix-string-entry",
        "matrix-string-rows",
        "matrix-directory",
        "spec-directory",
        "matrix-not-utf8",
        "spec-not-utf8",
        "out-directory",
        "point-empty-field",
        "degrees-empty-field",
    ],
)
def test_bad_input_exits_2(capsys, tmp_path, argv, content):
    path = tmp_path / "input.json"
    if isinstance(content, str):
        path.write_text(content)
    elif content is not None:
        path.write_bytes(content)
    argv = [a.replace("{file}", str(path)).replace("{dir}", str(tmp_path)) for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == "" and err.startswith("error: ")


def test_hilbert_ring(capsys):
    rc, out, _ = run(capsys, "hilbert", "--degrees", "2,3,6", "12,2")
    assert rc == 0
    assert out.startswith("1")
    assert "chamber=C2" in out


def test_hilbert_far_point_fits_only_its_chamber(capsys):
    argv = ("hilbert", "--degrees", "2,3,6,7,11", "30,10")
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert out == "7  chamber=C1 residue=(30, 10)\n"
    rc, out, _ = run(capsys, *argv, "--format", "structured")
    assert rc == 0
    assert json.loads(out) == {"chamber": 0, "point": [30, 10], "residue": [30, 10], "value": 7}


def test_hilbert_chamber_over_budget_exits_2(capsys):
    # chamber (5,1)-(7,1) of this ring has own-lattice det 79200, and even its
    # lowest anchors need count rows past the cell budget
    rc, out, err = run(capsys, "hilbert", "--degrees", "2,3,5,7,11,13", "60,10")
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_hilbert_chamber_fits_from_its_lowest_points(capsys):
    # chamber (6,1)-(7,1) has own-lattice det 1800; every residue class occurs
    # by t = 93, so the fit stays far inside the cell budget
    argv = ("hilbert", "--degrees", "2,3,6,7,11", "65,10")
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert out == "23  chamber=C3 residue=(5, 70)\n"
    rc, out, _ = run(capsys, *argv, "--format", "structured")
    assert rc == 0
    assert json.loads(out) == {"chamber": 2, "point": [65, 10], "residue": [5, 70], "value": 23}
    columns = [(d, 1) for d in (2, 3, 6, 7, 11)]
    assert count(DegreeMatrix.bigraded([2, 3, 6, 7, 11]), (65, 10)) == 23
    assert brute_count(columns, (65, 10)) == 23


def test_hilbert_module(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(serialize(ci_shifts((2, 3, 6))))
    rc, out, _ = run(capsys, "hilbert", "--spec", str(path), "--index", "1", "28,10")
    assert rc == 0 and out.strip() == "3"


def test_chambers_table(capsys):
    rc, out, _ = run(capsys, "chambers", "--degrees", "2,3,6")
    assert rc == 0
    assert "mu - 2t >= 0, 3t - mu >= 0" in out
    assert "global lattice det: 12" in out


def test_chambers_structured_deterministic(capsys):
    rc1, out1, _ = run(capsys, "chambers", "--degrees", "2,3,6", "--format", "structured")
    rc2, out2, _ = run(capsys, "chambers", "--degrees", "2,3,6", "--format", "structured")
    assert rc1 == rc2 == 0 and out1 == out2
    doc = json.loads(out1)
    assert doc["global_lattice"]["det"] == 12


def test_chambers_csv(capsys):
    rc, out, _ = run(capsys, "chambers", "--degrees", "2,3,6", "--format", "csv")
    assert rc == 0 and out.splitlines()[0] == "chamber,lo,hi,ineq1,ineq2,det"


def test_regions_tor2_lines(capsys):
    rc, out, _ = run(capsys, "regions", "--degrees", "2,3,6", "--index", "2")
    assert rc == 0
    for text in ("mu = 2t + 9", "mu = 3t + 8", "mu = 6t + 5"):
        assert text in out


def test_regions_tor0_lines(capsys):
    rc, out, _ = run(capsys, "regions", "--degrees", "2,3,6", "--index", "0")
    assert rc == 0
    for text in ("mu = 2t", "mu = 3t", "mu = 6t"):
        assert text in out


def test_regions_ci_12(capsys):
    rc, out, _ = run(capsys, "regions", "--degrees", "1,2", "--index", "1")
    assert rc == 0
    assert "mu = 1t + 2" in out and "mu = 2t + 1" in out


def test_regions_empty_index(capsys):
    rc, out, _ = run(capsys, "regions", "--degrees", "2,3,6", "--index", "3")
    assert rc == 0 and "empty decomposition" in out


def test_regions_structured_reingestable_lattice(capsys):
    rc, out, _ = run(
        capsys, "regions", "--degrees", "2,3,6", "--index", "1", "--format", "structured"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["t0"] == 5 and doc["modulus"] == 12
    assert len(doc["lines"]) == 12


def test_regions_svg(capsys, tmp_path):
    out_file = tmp_path / "fig.svg"
    rc, _, _ = run(
        capsys,
        "regions", "--degrees", "2,3,6", "--index", "1",
        "--format", "svg", "--tmax", "12", "--out", str(out_file),
    )
    assert rc == 0
    svg = out_file.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "polygon" in svg and "mu = 6t + 3" in svg


def test_rees_ci_roundtrip(capsys):
    rc, out, _ = run(capsys, "rees-ci", "--degrees", "2,3,6")
    assert rc == 0
    from vpfbetti.rees import ingest

    assert ingest(out) == ci_shifts((2, 3, 6))


def test_rees_ci_deterministic(capsys):
    _, out1, _ = run(capsys, "rees-ci", "--degrees", "2,3,6")
    _, out2, _ = run(capsys, "rees-ci", "--degrees", "2,3,6")
    assert out1 == out2


def test_verify_pass(capsys):
    rc, out, _ = run(capsys, "verify", "--degrees", "2,3,6", "--tmax", "12")
    assert rc == 0
    assert "all checks passed" in out
    assert "[FAIL]" not in out


def test_verify_corrupted_fails_with_witness(capsys, tmp_path):
    doc = json.loads(serialize(ci_shifts((2, 3, 6))))
    for entry in doc["tor"]:
        if entry["index"] == 1:
            for shift in entry["shifts"]:
                if shift["a"] == [5, 1]:
                    shift["c"] = -1  # sign flip: no genuine module has this
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", "--spec", str(path), "--tmax", "10")
    assert rc == 1
    assert "[FAIL]" in out and "witness=" in out


# R + R(-1, 0) over degrees (1, 2): the strip [2t, 2t + 1] gets the piece
# 2, but hf_module(3, 1) is 1.  The strip's probe at t0 + 1 sits on the
# closed upper edge of the (0, 0) term's cone, so that term's chamber
# quasi-polynomial is used above the cone.  R + R(0, -2) over (2, 3, 6)
# goes wrong the same way and gives -1 at (31, 6).
@pytest.mark.parametrize(
    "degrees, shifts, tmax, failed",
    [
        ([1, 2], [[0, 0], [1, 0]], "6", {"tor1: oracle equivalence": [3, 1, 2, 1]}),
        ([2, 3, 6], [[0, 0], [0, 2]], "40", {
            "tor1: oracle equivalence": [31, 6, -1, 0],
            "tor1: support exactness": [31, 6, -1, 0],
        }),
    ],
    ids=["1-2", "2-3-6"],
)
def test_verify_catches_a_piece_used_outside_its_cone(capsys, tmp_path, degrees, shifts, tmax, failed):
    doc = {
        "generators": [[d, 1] for d in degrees],
        "tor": [{"index": 1, "shifts": [{"a": a, "c": 1} for a in shifts]}],
    }
    path = tmp_path / "free.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run(
        capsys, "verify", "--spec", str(path), "--tmax", tmax, "--format", "structured"
    )
    assert rc == 1
    checks = json.loads(out)["checks"]
    assert {c["name"]: c["witness"] for c in checks if not c["passed"]} == failed


def test_verify_tmax_zero_warns(capsys):
    rc, out, err = run(capsys, "verify", "--degrees", "2,3,6", "--tmax", "0")
    assert rc == 0
    assert "warning" in err
    assert "nothing checked" in out


def test_verify_structured(capsys):
    rc, out, _ = run(
        capsys, "verify", "--degrees", "2,3,6", "--tmax", "8", "--format", "structured"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_reproduce(capsys):
    rc, out, _ = run(capsys, "reproduce", "--tmax", "8")
    assert rc == 0
    assert "[[1, 0, 0], [0, 1, 0]]" in out
    assert "mu - 2t >= 0, 3t - mu >= 0" in out
    assert "(28, 10), index 1: 3" in out
    assert "(Q2 + Q2)" in out and "(8, -1)" in out
    assert "all checks passed" in out


def test_reproduce_unknown_id(capsys):
    rc, _, err = run(capsys, "reproduce", "9.99")
    assert rc == 2 and "unknown example id" in err


def test_missing_file(capsys):
    rc, _, err = run(capsys, "verify", "--spec", "/nonexistent/x.json")
    assert rc == 2


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.txt"
    rc, out, _ = run(capsys, "count", "--degrees", "2,3", "5,2", "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text().strip() == "1"


def test_regions_degenerate_single_degree(capsys):
    rc, out, _ = run(capsys, "regions", "--degrees", "1,1", "--index", "1")
    assert rc == 0
    assert "single-degree support" in out
    assert "mu = 1t + 1" in out


def test_regions_degenerate_csv_lists_the_rays(capsys, tmp_path):
    spec = tmp_path / "ray.json"
    spec.write_text(json.dumps({"generators": [[2, 1]], "tor": [
        {"index": 1, "shifts": [{"a": [0, 0], "c": 1}, {"a": [4, 1], "c": -1}]},
    ]}))
    rc, out, _ = run(capsys, "regions", "--spec", str(spec), "--index", "1", "--format", "csv")
    assert rc == 0
    assert out == 'intercept,line,poly\n0,mu = 2t,"1"\n2,mu = 2t + 2,"-1"\n'


def test_regions_degenerate_svg(capsys, tmp_path):
    target = tmp_path / "ray.svg"
    rc, _, _ = run(
        capsys, "regions", "--degrees", "1,1", "--index", "1",
        "--format", "svg", "--out", str(target),
    )
    assert rc == 0
    assert target.read_text().startswith("<svg")


def _joined(strategy):
    return st.lists(strategy, min_size=1, max_size=4).map(",".join)


MALFORMED = st.sampled_from(["", "1,,2", "1.5", "0x10", "+3", "1_0"])
# comma lists: positive, small and often negative, or with a malformed token
INT_LISTS = st.one_of(
    _joined(st.integers(1, 9).map(str)),
    _joined(st.integers(-2, 12).map(str)),
    _joined(st.one_of(st.integers(-2, 12).map(str), MALFORMED)),
)
BIDEGREES = st.tuples(st.integers(-2, 40), st.integers(-2, 12)).map(lambda u: f"{u[0]},{u[1]}")
POINTS = st.sampled_from([BIDEGREES] * 3 + [INT_LISTS]).flatmap(lambda points: points)
COEFFS = st.one_of(st.integers(-2, 2), st.booleans(), st.floats(-2, 2), st.text(max_size=2))
SHIFTS = st.fixed_dictionaries(
    {"a": st.lists(st.integers(-2, 12), min_size=1, max_size=3), "c": COEFFS}
)
UNIT = {"index": 0, "shifts": [{"a": [0, 0], "c": 1}]}
ENTRIES = st.one_of(st.integers(0, 12), st.integers(-2, 10**20))
# --matrix documents: equal rows of JSON integers, bigraded ones with a wide
# degree spread among them, then ragged or empty rows, non-integer entries
# and other shapes
MATRIX_DOCS = st.one_of(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=1, max_size=3)
    ).map(lambda rows: {"rows": rows}),
    st.lists(ENTRIES, min_size=1, max_size=3).map(lambda ds: {"rows": [ds, [1] * len(ds)]}),
    st.fixed_dictionaries(
        {
            "rows": st.lists(
                st.lists(
                    st.one_of(ENTRIES, st.floats(-2, 2), st.booleans(), st.text(max_size=2)),
                    max_size=3,
                ),
                max_size=3,
            )
        }
    ),
    st.sampled_from([[], {}, {"rows": "12"}, {"rows": [1, 2]}, {"rows": None}, "rows", 3]),
)
# documents that pass the schema but carry arbitrary shift data
PLAUSIBLE_DOCS = st.fixed_dictionaries(
    {
        "generators": st.lists(st.integers(1, 9), min_size=1, max_size=4).map(
            lambda ds: [[d, 1] for d in sorted(ds)]
        ),
        "tor": st.lists(
            st.fixed_dictionaries(
                {
                    "index": st.integers(1, 3),
                    "shifts": st.lists(
                        st.fixed_dictionaries(
                            {
                                "a": st.tuples(st.integers(0, 20), st.integers(0, 4)).map(list),
                                "c": st.integers(-2, 2),
                            }
                        ),
                        max_size=4,
                    ),
                }
            ),
            max_size=3,
            unique_by=lambda e: e["index"],
        ).map(lambda rest: [UNIT] + rest),
    }
)
# documents with bad generators, negative or duplicate indices and bad coefficients
WILD_DOCS = st.fixed_dictionaries(
    {
        "generators": st.lists(
            st.one_of(
                st.integers(-2, 9).map(lambda d: [d, 1]),
                st.lists(st.integers(-2, 9), max_size=3),
                st.sampled_from([[True, 1], [1.5, 1], "3", None]),
            ),
            max_size=4,
        ),
        "tor": st.tuples(
            st.booleans(),
            st.lists(
                st.fixed_dictionaries(
                    {"index": st.integers(-1, 3), "shifts": st.lists(SHIFTS, max_size=4)}
                ),
                max_size=3,
            ),
        ).map(lambda u_rest: [UNIT] * u_rest[0] + u_rest[1]),
    }
)
FORMATS = {
    "hilbert": ["table", "structured"],
    "chambers": ["table", "structured", "csv"],
    "regions": ["table", "structured", "csv", "svg"],
    "verify": ["table", "structured"],
}


@st.composite
def cli_calls(draw, spec_path):
    command = draw(
        st.sampled_from(
            ["count", "hilbert", "chambers", "regions", "rees-ci", "verify", "reproduce"]
        )
    )
    argv = [command]
    if command == "reproduce":
        argv.append(draw(st.sampled_from(["4.7", "4.8", ""])))
    else:
        # a spec file only where the command takes one, and sometimes no input at all
        source = draw(st.sampled_from(["spec", "matrix", "degrees", "degrees", None]))
        if source in ("spec", "matrix") and command == "count":
            spec_path.write_text(json.dumps(draw(MATRIX_DOCS)))
            argv.append(f"--matrix={spec_path}")
        elif source == "spec" and command in ("hilbert", "regions", "verify"):
            spec_path.write_text(json.dumps(draw(st.one_of(PLAUSIBLE_DOCS, WILD_DOCS))))
            argv.append(f"--spec={spec_path}")
        elif source:  # "=" reads a leading minus as part of the value
            argv.append(f"--degrees={draw(INT_LISTS)}")
    index = draw(st.sampled_from([1, 2, 0, 3, -1, None]))
    if command in ("hilbert", "regions") and index is not None:
        argv.append(f"--index={index}")
    if command in ("regions", "verify", "reproduce") and draw(st.booleans()):
        argv.append(f"--tmax={draw(st.integers(-2, 12))}")
    if command in FORMATS and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(FORMATS[command]))]
    if command in ("count", "hilbert"):
        argv += ["--", draw(POINTS)]  # after "--" a negative point is not an option
    return argv


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_call_exits_0_1_or_2(spec_path, data):
    # the exit-code contract: any input ends in 0, 1 or 2, never a traceback
    argv = data.draw(cli_calls(spec_path))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
    assert rc in (0, 1, 2), argv


def test_import_loads_no_numpy():
    # every command pays the package's import; the counts need only Python ints
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import vpfbetti, vpfbetti.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
