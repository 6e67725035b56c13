import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import poly_dict_reference, poly_str_reference, region_pieces_reference
from vpfbetti import textfmt
from vpfbetti.counting import DegreeMatrix
from vpfbetti.hilbert import KappaNumerator
from vpfbetti.quasipoly import Polynomial
from vpfbetti.rees import ci_shifts
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


def _kappa(degrees, index):
    if index is None:  # shifts (5, 1), (9, 1) and -(14, 2)
        ring = DegreeMatrix.bigraded(degrees)
        return KappaNumerator.from_terms(ring, [((5, 1), 1), ((9, 1), 1), ((14, 2), -1)])
    return ci_shifts(degrees).tor(index)


@pytest.mark.parametrize(
    "degrees, index",
    [(d, i) for d in ((4, 9, 13), (6, 10, 15), (2, 3, 6)) for i in (1, 2)] + [((2, 3, 6, 7), None)],
)
def test_region_pieces_equal_the_polynomial_sums(degrees, index):
    dec = region_decomposition(_kappa(degrees, index))
    assert list(textfmt.region_pieces(dec)) == region_pieces_reference(dec)


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
