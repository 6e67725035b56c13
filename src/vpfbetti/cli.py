"""Command-line interface.

Commands: count, hilbert, chambers, regions, rees-ci, verify, reproduce.
All numeric output is exact; structured output is canonical JSON that can be
re-ingested.  Exit codes: 0 success, 1 verification failure, 2 usage or
parse error, including a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import textfmt
from .chambers import DegenerateGradingError, chamber_complex_2xn, global_lattice
from .counting import DegreeMatrix, count
from .hilbert import hf_bigraded_ring, hf_module
from .kernels import BudgetExceededError
from .lattices import hnf
from .quasipoly import FitError
from .rees import SpecFormatError, UnsupportedRankError, ci_shifts, ingest, serialize
from .regions import eval_betti, region_decomposition
from .svgfig import regions_svg
from .verify import verify_spec


class UsageError(ValueError):
    pass


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"could not parse {what} {text!r}: comma-separated integers expected") from exc


def _parse_ring(text: str) -> DegreeMatrix:
    """The bigraded ring of a --degrees value."""
    degrees = _parse_int_list(text, "--degrees")
    try:
        return DegreeMatrix.bigraded(degrees)
    except ValueError as exc:
        raise UsageError(f"invalid --degrees {text!r}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_text(path: str, what: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise UsageError(f"{what} {path!r} is not UTF-8 text: {exc}") from exc


def _load_spec(args) -> "ToriSpec":
    if getattr(args, "spec", None):
        return ingest(_read_text(args.spec, "spec file"))
    if getattr(args, "degrees", None):
        degrees = _parse_int_list(args.degrees, "--degrees")
        try:
            return ci_shifts(degrees)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError("provide --spec FILE or --degrees D1,D2,...")


def _cmd_count(args) -> int:
    point = _parse_int_list(args.point, "point")
    if args.matrix:
        try:
            doc = json.loads(_read_text(args.matrix, "matrix file"))
        except json.JSONDecodeError as exc:
            raise UsageError(f"matrix file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or "rows" not in doc:
            raise UsageError("matrix file must be JSON of the form {\"rows\": [[...], ...]}")
        rows = doc["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise UsageError("matrix rows must be JSON lists")
        for row in rows:
            for x in row:
                if type(x) is not int:  # not a float, a bool or a string either
                    raise UsageError(f"matrix entries must be JSON integers, got {x!r}")
        try:
            if len({len(row) for row in rows}) > 1:
                raise ValueError("rows of unequal length")
            A = DegreeMatrix.from_columns(list(zip(*rows)))
        except ValueError as exc:
            raise UsageError(f"invalid matrix rows: {exc}") from exc
    elif args.degrees:
        A = _parse_ring(args.degrees)
    else:
        raise UsageError("provide --degrees or --matrix")
    if len(point) != A.dim:
        raise UsageError(f"point has {len(point)} coordinates, the grading has rank {A.dim}")
    _emit(f"{count(A, point)}\n", args.out)
    return 0


def _cmd_hilbert(args) -> int:
    point = _parse_int_list(args.point, "point")
    if len(point) != 2:
        raise UsageError(f"point has {len(point)} coordinates, a bidegree has 2")
    if args.spec or args.index is not None:
        spec = _load_spec(args)
        if args.index is None:
            raise UsageError("--index is required with --spec")
        kappa = spec.tor(args.index)
        if kappa is None:
            _emit(f"no shift data at homological index {args.index}\n", args.out)
            return 0
        value = hf_module(kappa, point)
        if args.format == "structured":
            _emit(textfmt.dumps_canonical({"point": point, "value": value}), args.out)
        else:
            _emit(f"{value}\n", args.out)
        return 0
    if not args.degrees:
        raise UsageError("provide --degrees (ring query) or --spec with --index (module query)")
    degrees = _parse_ring(args.degrees).degrees
    res = hf_bigraded_ring(degrees, point)
    if args.format == "structured":
        doc = {"point": point, "value": res.value}
        if res.chamber is not None:
            doc["chamber"] = res.chamber
            doc["residue"] = list(res.residue)
        _emit(textfmt.dumps_canonical(doc), args.out)
    else:
        line = f"{res.value}"
        if res.chamber is not None:
            line += f"  chamber=C{res.chamber + 1} residue={tuple(res.residue)}"
        _emit(line + "\n", args.out)
    return 0


def _cmd_chambers(args) -> int:
    degrees = list(_parse_ring(args.degrees).degrees)
    chambers = chamber_complex_2xn(sorted(degrees))
    glattice = global_lattice(degrees)
    if args.format == "structured":
        doc = {
            "degrees": sorted(degrees),
            "global_lattice": textfmt.lattice_dict(glattice),
            "chambers": [
                {
                    "generators": [list(g) for g in c.generators],
                    "inequalities": [list(h) for h in c.inequalities],
                    "index_set": [list(p) for p in c.index_set],
                    "lattice": textfmt.lattice_dict(c.lattice),
                }
                for c in chambers
            ],
        }
        _emit(textfmt.dumps_canonical(doc), args.out)
        return 0
    if args.format == "csv":
        rows = ["chamber,lo,hi,ineq1,ineq2,det"]
        for i, c in enumerate(chambers):
            h1, h2 = c.inequalities
            rows.append(
                f"C{i+1},{c.generators[0][0]},{c.generators[1][0]},"
                f"{h1[0]}*mu+{h1[1]}*t>=0,{h2[0]}*mu+{h2[1]}*t>=0,{c.lattice.det}"
            )
        _emit("\n".join(rows) + "\n", args.out)
        return 0
    lines = [f"degrees: {sorted(degrees)}", f"global lattice det: {glattice.det}"]
    for i, c in enumerate(chambers):
        lo, hi = c.generators[0][0], c.generators[1][0]
        lines.append(
            f"C{i+1}: cone{{({lo},1),({hi},1)}}  "
            f"mu - {lo}t >= 0, {hi}t - mu >= 0  (lattice det {c.lattice.det})"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _region_rows(dec):
    """(region, lower line, upper line, [(residue, poly string)]) for each region.

    Each distinct piece is rendered once, for the table and csv formats alike.
    """
    for r, pieces in textfmt.rendered_pieces(dec, lambda p: textfmt.poly_str(p, ("mu", "t"))):
        lo, hi = dec.lines[r.lower], dec.lines[r.upper]
        yield (
            r, textfmt.line_str(lo.slope, lo.intercept), textfmt.line_str(hi.slope, hi.intercept),
            pieces,
        )


def _cmd_regions(args) -> int:
    spec = _load_spec(args)
    kappa = spec.tor(args.index)
    if kappa is None or kappa.is_zero():
        _emit(f"empty decomposition: no shift data at homological index {args.index}\n", args.out)
        return 0
    dec = region_decomposition(kappa)
    if args.format == "structured":
        _emit(textfmt.dumps_canonical(textfmt.decomposition_dict(dec)), args.out)
        return 0
    if args.format == "svg":
        _emit(regions_svg(dec, args.tmax), args.out)
        return 0
    if args.format == "csv" and dec.degenerate:
        rows = ["intercept,line,poly"]
        for b, poly in sorted(dec.ray_pieces.items()):
            line = textfmt.line_str(dec.degrees[0], b)
            rows.append(f"{b},{line},\"{textfmt.poly_str(poly, ('t',))}\"")
        _emit("\n".join(rows) + "\n", args.out)
        return 0
    if args.format == "csv":
        rows = ["region,lower,upper,residue,poly"]
        for r, lo, hi, pieces in _region_rows(dec):
            for res, poly in pieces:
                rows.append(f"{r.lower},{lo},{hi},\"{list(res)}\",\"{poly}\"")
        _emit("\n".join(rows) + "\n", args.out)
        return 0
    lines = [
        f"stability threshold t0 = {dec.t0}",
        f"modulus D = {dec.modulus}",
        "lines (sorted):",
    ]
    for line in dec.lines:
        lines.append(f"  {textfmt.line_str(line.slope, line.intercept)}   through {line.through}")
    if dec.degenerate:
        lines.append("single-degree support: one polynomial per ray")
        for b, poly in sorted(dec.ray_pieces.items()):
            lines.append(
                f"  on {textfmt.line_str(dec.degrees[0], b)}: {textfmt.poly_str(poly, ('t',))}"
            )
    else:
        lines.append("regions (half-open [lower, upper), last closed):")
        for _, lo, hi, pieces in _region_rows(dec):
            lines.append(f"  [{lo} .. {hi})")
            for res, poly in pieces:
                lines.append(f"    residue {tuple(res)}: {poly}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_rees_ci(args) -> int:
    _emit(serialize(_load_spec(args)), args.out)
    return 0


def _cmd_verify(args) -> int:
    spec = _load_spec(args)
    report = verify_spec(spec, args.tmax)
    if args.tmax <= 0:
        sys.stderr.write("warning: tmax <= 0 leaves every grid empty\n")
    if args.format == "structured":
        _emit(textfmt.dumps_canonical(report.to_dict()), args.out)
    else:
        _emit(report.render() + "\n", args.out)
    return 0 if report.passed else 1


def _cmd_reproduce(args) -> int:
    if args.example != "4.7":
        raise UsageError(f"unknown example id {args.example!r}; available: 4.7")
    out = []
    degrees = (2, 3, 6)
    spec = ci_shifts(degrees)
    out.append("worked example 4.7: complete intersection, generator degrees 2, 3, 6")
    out.append("")
    A = [[2, 3, 6], [1, 1, 1]]
    H, U = hnf(A)
    out.append(f"degree matrix rows: {A}")
    out.append(f"column Hermite normal form H = {[list(r) for r in H]}")
    out.append(f"unimodular U with H = A*U: {[list(r) for r in U]}")
    out.append("")
    chambers = chamber_complex_2xn(degrees)
    for i, c in enumerate(chambers):
        lo, hi = c.generators[0][0], c.generators[1][0]
        out.append(f"chamber C{i+1}: mu - {lo}t >= 0, {hi}t - mu >= 0")
    glat = global_lattice(degrees)
    out.append(f"global lattice det = {glat.det}")
    out.append("")
    out.append("Hilbert function of the bigraded ring (validated pointwise):")
    out.append("  floor((mu - 2t)/4) + 1                      on C1")
    out.append("  floor((mu - 2t)/4) - (mu - 3t)/3 + 1        on C2, 3 | mu - 3t")
    out.append("  floor((mu - 2t)/4) - floor((mu - 3t)/3)     on C2 otherwise")
    out.append("")
    decs = {index: region_decomposition(kappa) for index, kappa in spec.tors}
    for index, dec in decs.items():
        out.append(f"homological index {index}: t0 = {dec.t0}, lines "
                   + ", ".join(textfmt.line_str(l.slope, l.intercept) for l in dec.lines))
    sample = eval_betti(decs[1], 28, 10)
    out.append("")
    out.append(f"sample value at (mu, t) = (28, 10), index 1: {sample}")
    out.append("")
    out.append("consistency notes (both resolved in the counting oracle's favor):")
    out.append("  1. the piecewise form '(Q2 + Q2)' sometimes quoted for the strip")
    out.append("     6t - 1 <= mu < 6t + 2 fails oracle validation (e.g. value 0 vs 1")
    out.append("     at (36, 6)); the validated piece there is Q2 + Q3.")
    out.append("  2. a first-syzygy shift written (8, -1) instead of (8, 1) puts")
    out.append("     support at negative powers (e.g. nonzero at (10, 0)); shift")
    out.append("     documents reject negative T-degrees for this reason.")
    out.append("")
    report = verify_spec(spec, args.tmax)
    out.append(report.render())
    _emit("\n".join(out) + "\n", args.out)
    return 0 if report.passed else 1


@functools.cache  # one build per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpfbetti",
        description=(
            "Exact vector partition functions, Hilbert functions of "
            "non-standard bigraded rings, and eventual piecewise tables of "
            "graded Betti numbers of ideal powers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="evaluate the vector partition function at a point")
    p.add_argument("point", help="comma-separated coordinates, e.g. 9,2")
    p.add_argument("--degrees", help="bigraded generator degrees, e.g. 2,3,6,7")
    p.add_argument("--matrix", help="JSON file {\"rows\": [[...], ...]} for general gradings")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("hilbert", help="Hilbert function of a ring or a presented module")
    p.add_argument("point", help="comma-separated bidegree, e.g. 12,2")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--degrees", help="ring query: generator degrees")
    source.add_argument("--spec", help="module query: shift document file")
    p.add_argument("--index", type=int, help="homological index for --spec")
    p.add_argument("--format", choices=("table", "structured"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("chambers", help="chamber decomposition of the positive cone")
    p.add_argument("--degrees", required=True)
    p.add_argument("--format", choices=("table", "structured", "csv"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_chambers)

    p = sub.add_parser("regions", help="region decomposition for one homological index")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--spec", help="shift document file")
    source.add_argument("--degrees", help="complete-intersection shortcut")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--format", choices=("table", "structured", "csv", "svg"), default="table")
    p.add_argument("--tmax", type=int, default=None, help="height range for svg output")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_regions)

    p = sub.add_parser("rees-ci", help="emit shift data for a complete intersection")
    p.add_argument("--degrees", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_rees_ci)

    p = sub.add_parser("verify", help="run the oracle verification suites")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--spec")
    source.add_argument("--degrees")
    p.add_argument("--tmax", type=int, default=40)
    p.add_argument("--format", choices=("table", "structured"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reproduce", help="re-derive the bundled worked example end to end")
    p.add_argument("example", nargs="?", default="4.7")
    p.add_argument("--tmax", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reproduce)

    # a point such as -1,0 is a positional argument, not an unknown option
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-?\d+(,-?\d+)*$")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        UsageError, SpecFormatError, UnsupportedRankError, DegenerateGradingError,
        BudgetExceededError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:  # a missing or unreadable file, or a directory
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FitError as exc:
        sys.stderr.write(f"verification error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
