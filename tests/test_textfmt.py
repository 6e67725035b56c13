import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import poly_dict_reference, poly_str_reference, region_pieces_reference
from vpfbetti import textfmt
from vpfbetti.cli import main
from vpfbetti.counting import DegreeMatrix
from vpfbetti.hilbert import KappaNumerator
from vpfbetti.quasipoly import Polynomial
from vpfbetti.rees import ToriSpec, ci_shifts, serialize
from vpfbetti.regions import region_decomposition

TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=8),  # surrogates included
    st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "\ud800", "a\udfffb", "é ✓ 😀", "</x>"]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-1),
    st.floats(),
    st.sampled_from([-0.0, 1e-320, 1e300, float("nan"), float("inf"), float("-inf")]),
    TEXT,
)
JSON = st.recursive(
    SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.lists(st.integers(), max_size=5),
        st.dictionaries(TEXT, kids, max_size=5),
    ),
    max_leaves=20,
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(JSON)
@example([True, 1])
@example({"a": [], "b": {}, "c": (), "d": [[]], "e": [False, 0, None]})
@example([2**64, -(2**70), -0.0, 1e-320, 1e300, float("nan"), float("inf"), float("-inf")])
def test_dumps_canonical_matches_json_dumps(doc):
    assert textfmt.dumps_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("bad", [Fraction(1, 2), {1, 2}, [1, {"x": Fraction(3)}], {"k": {0}}])
def test_dumps_canonical_refuses_what_json_dumps_refuses(bad):
    with pytest.raises(TypeError):
        json.dumps(bad, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        textfmt.dumps_canonical(bad)


def test_dumps_canonical_writes_a_shared_dict_at_each_of_its_indents():
    shared = {"b": [1, 2], "a": {"c": "x"}}
    doc = {"one": shared, "two": shared, "deep": {"three": shared}, "list": [shared, [shared], shared]}
    assert textfmt.dumps_canonical(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


HAND_MADE = [((5, 1), 1), ((9, 1), 1), ((14, 2), -1)]  # a numerator over (2, 3, 6, 7)


def _kappa(degrees, index):
    if index is None:
        return KappaNumerator.from_terms(DegreeMatrix.bigraded(degrees), HAND_MADE)
    return ci_shifts(degrees).tor(index)


CASES = [(d, i) for d in ((4, 9, 13), (6, 10, 15), (2, 3, 6)) for i in (1, 2)] + [((2, 3, 6, 7), None)]


@pytest.mark.parametrize("degrees, index", CASES)
def test_region_pieces_equal_the_polynomial_sums(degrees, index):
    dec = region_decomposition(_kappa(degrees, index))
    assert list(textfmt.rendered_pieces(dec, lambda p: p)) == region_pieces_reference(dec)


def _line_reference(line):
    b = line.intercept
    return f"mu = {line.slope}t" + (f" {'+' if b > 0 else '-'} {abs(b)}" if b else "")


def _regions_reference(dec, fmt):
    """The regions document of a non-degenerate dec, built from the reference sums and renderers."""
    lines = dec.lines
    regions = [
        (r, _line_reference(lines[r.lower]), _line_reference(lines[r.upper]), pieces)
        for r, pieces in region_pieces_reference(dec)
    ]
    if fmt == "structured":
        doc = {
            "t0": dec.t0,
            "modulus": dec.modulus,
            "degrees": list(dec.degrees),
            "lines": [
                {"slope": l.slope, "intercept": l.intercept, "through": list(l.through)} for l in lines
            ],
            "lattice": {"basis": [list(b) for b in dec.lattice.basis], "det": dec.lattice.det},
            "regions": [
                {"lower": r.lower, "upper": r.upper, "pieces": [
                    {"residue": list(res), "poly": poly_dict_reference(p)} for res, p in pieces
                ]}
                for r, _, _, pieces in regions
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        rows = ["region,lower,upper,residue,poly"] + [
            f'{r.lower},{lo},{hi},"{list(res)}","{poly_str_reference(p, ("mu", "t"))}"'
            for r, lo, hi, pieces in regions
            for res, p in pieces
        ]
    else:
        rows = [f"stability threshold t0 = {dec.t0}", f"modulus D = {dec.modulus}", "lines (sorted):"]
        rows += [f"  {_line_reference(l)}   through {l.through}" for l in lines]
        rows.append("regions (half-open [lower, upper), last closed):")
        for _, lo, hi, pieces in regions:
            rows.append(f"  [{lo} .. {hi})")
            rows += [f"    residue {tuple(res)}: {poly_str_reference(p, ('mu', 't'))}" for res, p in pieces]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "structured"])
@pytest.mark.parametrize("degrees, index", [c for c in CASES if c[0] != (2, 3, 6) or c[1] == 1])
def test_regions_output_equals_the_reference_rendering(capsys, tmp_path, degrees, index, fmt):
    if index is None:  # read through --spec, as hand-made shift data is
        spec = tmp_path / "spec.json"
        spec.write_text(serialize(ToriSpec.build(degrees, {1: HAND_MADE})))
        source = ["--spec", str(spec), "--index", "1"]
    else:
        source = ["--degrees", ",".join(map(str, degrees)), "--index", str(index)]
    assert main(["regions", *source, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert out == _regions_reference(region_decomposition(_kappa(degrees, index)), fmt)


@pytest.mark.parametrize("fmt, render", [
    ("structured", "poly_dict"), ("csv", "poly_str"), ("table", "poly_str"),
])
def test_regions_sums_and_renders_each_distinct_piece_once(capsys, monkeypatch, fmt, render):
    # (4,9,13) index 1 has 11 regions x 180 residues = 1,980 pieces, 828 distinct within their region
    calls = {"_sum": 0, render: 0}
    sum_, render_ = Polynomial._sum, getattr(textfmt, render)

    def counted_sum(cls, nvars, parts):
        calls["_sum"] += 1
        return sum_(nvars, parts)

    def counted_render(*args):
        calls[render] += 1
        return render_(*args)

    monkeypatch.setattr(Polynomial, "_sum", classmethod(counted_sum))
    monkeypatch.setattr(textfmt, render, counted_render)
    assert main(["regions", "--degrees", "4,9,13", "--index", "1", "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert 0 < calls["_sum"] <= 828 and 0 < calls[render] <= 828, calls


POLYS = [
    Polynomial(2, {(2, 0): 3, (1, 1): -7, (0, 0): 5}),  # den == 1
    Polynomial(2, {(1, 0): 1, (0, 1): -1, (0, 0): Fraction(1, 2)}),  # +-1 over den 2
    Polynomial(2, {(1, 0): Fraction(-3, 4), (0, 1): Fraction(-1, 6), (0, 0): Fraction(-5, 12)}),
    Polynomial(2, {(2, 0): Fraction(1, 4), (0, 2): -1, (1, 0): Fraction(2, 4)}),
    Polynomial(2, {(0, 0): Fraction(-7, 3)}),  # constant only
    Polynomial(2, {(0, 0): 1}),
    Polynomial.zero(2),
    Polynomial(1, {(3,): Fraction(-1, 6), (1,): -1, (0,): 1}),
]


@pytest.mark.parametrize("p", POLYS)
def test_poly_rendering_matches_the_fraction_rendering(p):
    names = ("mu", "t") if p.nvars == 2 else ("t",)
    assert textfmt.poly_str(p, names) == poly_str_reference(p, names)
    assert textfmt.poly_dict(p) == poly_dict_reference(p)
