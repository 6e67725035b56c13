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
from vpfbetti import hilbert, kernels
from vpfbetti.cli import build_parser, main
from vpfbetti.counting import DegreeMatrix, count_row
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
        # both sides of the wall read the one wave of the part 10**11 - 1: a
        # table of 2e11 values, about 7.2e12 bytes
        rc, out, err = run(capsys, "count", "--degrees", "1,100000000000", "200000000003,5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == "" and err.startswith("error:") and "budget" in err
    assert err.count("\n") == 1
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv, want",
    [
        (["count", "--degrees", "2,3,6", "100000000000,20000000000"], "1666666667\n"),
        (["count", "--degrees", "5,5", "10000000000,2000000000"], "2000000001\n"),
        (["hilbert", "--degrees", "2,3,6", "--index", "1", "100000000000,20000000000"],
         "3333333334\n"),
    ],
    ids=["count-2,3,6", "count-5,5", "hilbert-index-2,3,6"],
)
def test_point_queries_answer_far_past_the_count_table(capsys, fresh_tables, argv, want):
    # a count table to t = 2e10 would be far over the budget; the waves answer
    assert run(capsys, *argv) == (0, want, "")


@pytest.mark.parametrize("degrees,point", [("1,1000000", "10,10"), ("2,1000", "4000,2000")])
def test_count_widely_spread_degrees_near_the_band_edge(capsys, degrees, point):
    # the wave of the one part max(d) - min(d) is read at its first value
    rc, out, _ = run(capsys, "count", "--degrees", degrees, point)
    assert rc == 0 and out.strip() == "1"


def test_count_degree_spread_past_any_allocation(capsys):
    # a table of the part 10**20 - 1 cannot be allocated; the point needs its first two values
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


@pytest.mark.parametrize(
    "argv",
    [
        ["regions", "--degrees", "2,3,6", "--spec", "{file}", "--index", "1"],
        ["verify", "--spec", "{file}", "--degrees", "2,3,6"],
        ["hilbert", "--degrees", "2,3,6", "--spec", "{file}", "--index", "1", "28,10"],
    ],
    ids=["regions", "verify", "hilbert"],
)
def test_spec_and_degrees_together_are_a_usage_error(capsys, tmp_path, argv):
    # either option alone is a valid call; together neither is silently dropped
    path = tmp_path / "spec.json"
    path.write_text(serialize(ci_shifts((2, 3))))
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{file}", str(path)) for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_hilbert_ring(capsys):
    rc, out, _ = run(capsys, "hilbert", "--degrees", "2,3,6", "12,2")
    assert rc == 0
    assert out.startswith("1")
    assert "chamber=C2" in out


def test_hilbert_ring_with_one_distinct_degree(capsys):
    # no chambers, so no attribution: C(t + n - 1, n - 1) on the ray mu = 5t, 0 off it
    for point, want in (("10,2", "3"), ("11,2", "0"), ("10000000000,2000000000", "2000000001")):
        assert run(capsys, "hilbert", "--degrees", "5,5", point) == (0, want + "\n", "")
    rc, out, err = run(capsys, "hilbert", "--degrees", "5,5", "10,2", "--format", "structured")
    assert (rc, err) == (0, "") and json.loads(out) == {"point": [10, 2], "value": 3}
    assert run(capsys, "hilbert", "--degrees", "0,0,0", "0,4") == (0, "15\n", "")
    rc, out, err = run(capsys, "chambers", "--degrees", "5,5")
    assert rc == 2 and out == "" and "has no chambers" in err


def test_hilbert_far_point_fits_only_its_chamber(capsys):
    argv = ("hilbert", "--degrees", "2,3,6,7,11", "30,10")
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert out == "7  chamber=C1 residue=(30, 10)\n"
    rc, out, _ = run(capsys, *argv, "--format", "structured")
    assert rc == 0
    assert json.loads(out) == {"chamber": 0, "point": [30, 10], "residue": [30, 10], "value": 7}


def test_hilbert_answers_where_the_chamber_fit_is_over_budget(capsys, fresh_tables):
    # chamber (5,1)-(7,1) of this ring has own-lattice det 79200, so its fit
    # holds 79200 pieces; the ring query reads partition waves instead, tables
    # of at most 41 values
    degrees = (2, 3, 5, 7, 11, 13)
    rc, out, err = run(capsys, "hilbert", "--degrees", "2,3,5,7,11,13", "60,10")
    assert (rc, out, err) == (0, "65  chamber=C3 residue=(0, 2950)\n", "")
    assert count_row(DegreeMatrix.bigraded(degrees), 10, 60, 60) == [65]
    assert brute_count([(d, 1) for d in degrees], (60, 10)) == 65


def test_hilbert_reads_a_wave_no_further_than_its_argument(capsys, fresh_tables):
    # P(0) of the one part 10**11 - 1: a one-value table, where the chamber
    # fit would have 10**11 - 1 residue classes
    rc, out, err = run(capsys, "hilbert", "--degrees", "1,100000000000", "5,5")
    assert (rc, out, err) == (0, "1  chamber=C1 residue=(0, 0)\n", "")
    # the lowest degree's wave has the parts 30..34 (period 2,782,560, degree 4,
    # so a threshold-long table of 55,651,200 values); here it is read at 335
    degrees = (1, 31, 32, 33, 34, 35)
    rc, out, err = run(capsys, "hilbert", "--degrees", "1,31,32,33,34,35", "345,10")
    assert (rc, out, err) == (0, "6  chamber=C5 residue=(3, 2782228)\n", "")
    ring_waves = hilbert._ring(degrees).waves
    assert max(len(term[4]._table) for term in ring_waves._terms) == 336
    assert count_row(DegreeMatrix.bigraded(degrees), 10, 345, 345) == [6]
    assert brute_count([(d, 1) for d in degrees], (345, 10)) == 6


def test_hilbert_reads_the_cheaper_side_past_a_wave_over_budget(capsys, fresh_tables):
    # the lowest degree's wave, the parts 30..34, has period 2,782,560: far
    # into chambers C1 and C5 its table is over the budget, and the query
    # reads the waves above the point's lower wall instead, periods of at
    # most 204; chamber C1's own lattice has det 2,782,560
    degrees = (1, 31, 32, 33, 34, 35)
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "hilbert", "--degrees", "1,31,32,33,34,35", "16000000,1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out, err) == (0, "63173839928121540937  chamber=C1 residue=(4, 1695364)\n", "")
    assert peak < 2 * 2**20
    ring_waves = hilbert._ring(degrees).waves
    below = [term for term in ring_waves._terms if term[2] <= 1]
    with pytest.raises(kernels.BudgetExceededError):
        ring_waves._read(16000000, 1000000, below, 1)
    rc, out, err = run(capsys, "hilbert", "--degrees", "1,31,32,33,34,35", "34500000,1000000")
    assert (rc, out, err) == (0, "3191942431577228760  chamber=C5 residue=(0, 2673280)\n", "")


def test_hilbert_over_budget_on_both_sides_exits_2_without_allocating(capsys):
    # both sides of the wall read the one wave of the part 10**11 - 1; below
    # it the point needs 2e11 of its values
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "hilbert", "--degrees", "1,100000000000", "200000000003,5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == "" and "budget" in err
    assert err.startswith("error: partition table of the parts ((99999999999, 1),)")
    assert err.count("\n") == 1
    assert peak < 2**20


def test_regions_over_a_fit_over_budget_exits_2_without_allocating(capsys, tmp_path):
    # the decomposition reads the fit of chamber (1,1)-(100000000000,1), which
    # has 10**11 - 1 residue classes
    doc = {
        "generators": [[1, 1], [100000000000, 1]],
        "tor": [{"index": 1, "shifts": [{"a": [100000000001, 1], "c": 1}]}],
    }
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "regions", "--spec", str(path), "--index", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == "" and err.startswith("error: fit of chamber C1") and "budget" in err
    assert err.count("\n") == 1
    assert peak < 2**20


def test_hilbert_on_widely_spread_degrees_builds_no_count_table(capsys, monkeypatch, fresh_tables):
    # the waves read P(0) of the part 999,999, where the chamber fit has det 999,999
    def refuse(degrees, t_max, k_max):
        raise AssertionError("count table built")

    monkeypatch.setattr(kernels, "band_rows", refuse)
    rc, out, err = run(capsys, "hilbert", "--degrees", "1,1000000", "5,5")
    assert (rc, out, err) == (0, "1  chamber=C1 residue=(0, 0)\n", "")


def test_hilbert_chamber_fits_from_its_lowest_points(capsys):
    # chamber (6,1)-(7,1) has own-lattice det 1800; the value, chamber and
    # residue agree with the count table and brute force
    argv = ("hilbert", "--degrees", "2,3,6,7,11", "65,10")
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    assert out == "23  chamber=C3 residue=(5, 70)\n"
    rc, out, _ = run(capsys, *argv, "--format", "structured")
    assert rc == 0
    assert json.loads(out) == {"chamber": 2, "point": [65, 10], "residue": [5, 70], "value": 23}
    columns = [(d, 1) for d in (2, 3, 6, 7, 11)]
    assert count_row(DegreeMatrix.bigraded([2, 3, 6, 7, 11]), 10, 65, 65) == [23]
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


# the chambers command's three formats, byte for byte: a zero degree and
# repeated degrees, and five distinct degrees
CHAMBERS_OUTPUTS = {
    "0,0,3,3,7": {
        "table": (
            "degrees: [0, 0, 3, 3, 7]\n"
            "global lattice det: 84\n"
            "C1: cone{(0,1),(3,1)}  mu - 0t >= 0, 3t - mu >= 0  (lattice det 21)\n"
            "C2: cone{(3,1),(7,1)}  mu - 3t >= 0, 7t - mu >= 0  (lattice det 28)\n"
        ),
        "csv": (
            "chamber,lo,hi,ineq1,ineq2,det\n"
            "C1,0,3,1*mu+0*t>=0,-1*mu+3*t>=0,21\n"
            "C2,3,7,1*mu+-3*t>=0,-1*mu+7*t>=0,28\n"
        ),
        "structured": {
            "degrees": [0, 0, 3, 3, 7],
            "global_lattice": {"basis": [[21, 3], [0, 4]], "det": 84},
            "chambers": [
                {"generators": [[0, 1], [3, 1]], "inequalities": [[1, 0], [-1, 3]],
                 "index_set": [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]],
                 "lattice": {"basis": [[21, 0], [0, 1]], "det": 21}},
                {"generators": [[3, 1], [7, 1]], "inequalities": [[1, -3], [-1, 7]],
                 "index_set": [[0, 4], [1, 4], [2, 4], [3, 4]],
                 "lattice": {"basis": [[7, 1], [0, 4]], "det": 28}},
            ],
        },
    },
    "2,3,6,7,11": {
        "table": (
            "degrees: [2, 3, 6, 7, 11]\n"
            "global lattice det: 21600\n"
            "C1: cone{(2,1),(3,1)}  mu - 2t >= 0, 3t - mu >= 0  (lattice det 180)\n"
            "C2: cone{(3,1),(6,1)}  mu - 3t >= 0, 6t - mu >= 0  (lattice det 4320)\n"
            "C3: cone{(6,1),(7,1)}  mu - 6t >= 0, 7t - mu >= 0  (lattice det 1800)\n"
            "C4: cone{(7,1),(11,1)}  mu - 7t >= 0, 11t - mu >= 0  (lattice det 360)\n"
        ),
        "csv": (
            "chamber,lo,hi,ineq1,ineq2,det\n"
            "C1,2,3,1*mu+-2*t>=0,-1*mu+3*t>=0,180\n"
            "C2,3,6,1*mu+-3*t>=0,-1*mu+6*t>=0,4320\n"
            "C3,6,7,1*mu+-6*t>=0,-1*mu+7*t>=0,1800\n"
            "C4,7,11,1*mu+-7*t>=0,-1*mu+11*t>=0,360\n"
        ),
        "structured": {
            "degrees": [2, 3, 6, 7, 11],
            "global_lattice": {"basis": [[60, 300], [0, 360]], "det": 21600},
            "chambers": [
                {"generators": [[2, 1], [3, 1]], "inequalities": [[1, -2], [-1, 3]],
                 "index_set": [[0, 1], [0, 2], [0, 3], [0, 4]],
                 "lattice": {"basis": [[2, 1], [0, 90]], "det": 180}},
                {"generators": [[3, 1], [6, 1]], "inequalities": [[1, -3], [-1, 6]],
                 "index_set": [[0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4]],
                 "lattice": {"basis": [[12, 276], [0, 360]], "det": 4320}},
                {"generators": [[6, 1], [7, 1]], "inequalities": [[1, -6], [-1, 7]],
                 "index_set": [[0, 3], [0, 4], [1, 3], [1, 4], [2, 3], [2, 4]],
                 "lattice": {"basis": [[5, 295], [0, 360]], "det": 1800}},
                {"generators": [[7, 1], [11, 1]], "inequalities": [[1, -7], [-1, 11]],
                 "index_set": [[0, 4], [1, 4], [2, 4], [3, 4]],
                 "lattice": {"basis": [[1, 131], [0, 360]], "det": 360}},
            ],
        },
    },
}


@pytest.mark.parametrize("fmt", ["table", "csv", "structured"])
@pytest.mark.parametrize("degrees", list(CHAMBERS_OUTPUTS))
def test_chambers_outputs_byte_for_byte(capsys, degrees, fmt):
    want = CHAMBERS_OUTPUTS[degrees][fmt]
    if fmt == "structured":
        want = json.dumps(want, sort_keys=True, indent=2) + "\n"
    assert run(capsys, "chambers", "--degrees", degrees, "--format", fmt) == (0, want, "")


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


def test_one_parser_serves_back_to_back_calls(capsys):
    # the parser is built once per process, yet each call sees only its own arguments:
    # the same outputs, errors and exit codes as calls that each build a parser
    calls = [
        ["hilbert", "--degrees", "2,3,6", "--format", "structured", "12,2"],
        ["hilbert", "--degrees", "2,3,6", "12,2"],
        ["chambers", "--degrees", "2,3,6", "--format", "csv"],
        ["chambers", "--degrees", "2,3,6"],
        ["count", "9,2"],
        ["rees-ci", "--degrees", "1,1"],
        ["regions", "--degrees", "2,3"],
        ["rees-ci", "--help"],
        ["--help"],
    ]

    def call(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:  # --help, or arguments argparse rejected
            rc = exc.code
        return (rc, *capsys.readouterr())

    assert build_parser() is build_parser()
    together = [call(argv) for argv in calls]
    apart = []
    for argv in calls:
        build_parser.cache_clear()
        apart.append(call(argv))
    assert together == apart
    assert [rc for rc, _, _ in together] == [0, 0, 0, 0, 2, 0, 2, 0, 0]


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


def test_verify_over_budget_exits_2_without_allocating(capsys):
    # 10**12 value rows, checked before a row is counted or built
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "verify", "--degrees", "2,3,6", "--tmax", str(10**12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == "" and err.startswith("error: value rows") and "budget" in err
    assert err.count("\n") == 1
    assert peak < 2**20


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
    # every command pays the package's import; the counts need only Python ints,
    # and the package imports a submodule only when one of its names is read
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"""
import json, sys
sys.path.insert(0, {src!r})
def loaded():
    return sorted(m for m in sys.modules if m.startswith("vpfbetti."))
import vpfbetti
report = {{"bare": loaded()}}
import vpfbetti.counting
report["counting"] = loaded()
names = {{}}
exec("from vpfbetti import *", names)
report["foreign"] = [
    n for n in vpfbetti.__all__
    if not names[n].__module__.startswith("vpfbetti.")
    or vars(sys.modules[names[n].__module__]).get(n) is not names[n]
]
try:
    vpfbetti.no_such_name
except AttributeError:
    report["unknown"] = "AttributeError"
import vpfbetti.cli
report["numpy"] = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
print(json.dumps(report))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "bare": [],
        "counting": ["vpfbetti.counting", "vpfbetti.kernels"],
        "foreign": [],
        "unknown": "AttributeError",
        "numpy": [],
    }
