import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import koszul_betti_reference
from vpfbetti.counting import DegreeMatrix
from vpfbetti.hilbert import (
    DataIntegrityWarning,
    KappaNumerator,
    hf_module,
    series_identity_check,
)
from vpfbetti.rees import (
    SpecFormatError,
    ToriSpec,
    UnsupportedRankError,
    ci_shifts,
    ingest,
    serialize,
    to_document,
)


def test_ci_236_shifts():
    spec = ci_shifts((2, 3, 6))
    assert spec.tor(0).terms == (((0, 0), 1),)
    assert spec.tor(1).terms == (
        ((5, 1), 1),
        ((8, 1), 1),
        ((9, 1), 1),
        ((11, 2), -1),
    )
    assert spec.tor(2).terms == (((11, 1), 1),)


def test_ci_pair_koszul():
    spec = ci_shifts((1, 1))
    assert spec.tor(1).terms == (((2, 1), 1),)
    for index, kappa in spec.tors:
        assert series_identity_check(kappa, (12, 6))


def test_ci_sorts_degrees():
    assert ci_shifts((6, 2, 3)).degrees == (2, 3, 6)


def test_ci_unsupported_rank():
    with pytest.raises(UnsupportedRankError):
        ci_shifts((2, 3, 4, 5))
    with pytest.raises(UnsupportedRankError):
        ci_shifts((2,))


def test_euler_characteristic_identity():
    # alternating sum of the three numerators equals the resolution numerator
    spec = ci_shifts((2, 3, 6))
    ring = spec.ring
    resolution = KappaNumerator.from_terms(
        ring,
        [((0, 0), 1), ((5, 1), -1), ((8, 1), -1), ((9, 1), -1), ((11, 1), 1), ((11, 2), 1)],
    )
    for mu in range(0, 79):
        for t in range(0, 13):
            val = (
                hf_module(spec.tor(0), (mu, t))
                - hf_module(spec.tor(1), (mu, t))
                + hf_module(spec.tor(2), (mu, t))
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DataIntegrityWarning)
                assert val == hf_module(resolution, (mu, t))


def test_hf_nonnegative_all_indices():
    for degrees in [(2, 3, 6), (1, 1), (2, 3), (4, 7), (2, 2, 5)]:
        spec = ci_shifts(degrees)
        hi = max(degrees)
        for _, kappa in spec.tors:
            for t in range(0, 13):
                for mu in range(0, hi * t + hi * 3 + 1):
                    assert hf_module(kappa, (mu, t)) >= 0


def test_round_trip():
    spec = ci_shifts((2, 3, 6))
    assert ingest(serialize(spec)) == spec


def test_round_trip_via_dict():
    spec = ci_shifts((4, 7))
    assert ingest(to_document(spec)) == spec


def test_ingest_merges_duplicate_shifts():
    doc = {
        "generators": [[2, 1], [3, 1], [6, 1]],
        "tor": [
            {"index": 1, "shifts": [{"a": [5, 1], "c": 1}, {"a": [5, 1], "c": 1}]}
        ],
    }
    spec = ingest(doc)
    assert spec.tor(1).terms == (((5, 1), 2),)


def test_ingest_malformed_coefficient():
    doc = {
        "generators": [[2, 1]],
        "tor": [{"index": 1, "shifts": [{"a": [5, 1], "c": "one"}]}],
    }
    with pytest.raises(SpecFormatError, match=r"tor\[0\].shifts\[0\].c"):
        ingest(doc)


def test_ingest_unknown_field_rejected():
    doc = {
        "generators": [[2, 1]],
        "tor": [{"index": 1, "shifts": [{"a": [5, 1], "c": 1, "extra": 0}]}],
    }
    with pytest.raises(SpecFormatError, match="extra"):
        ingest(doc)


def test_ingest_negative_t_shift_rejected():
    doc = {
        "generators": [[2, 1], [3, 1], [6, 1]],
        "tor": [{"index": 1, "shifts": [{"a": [8, -1], "c": 1}]}],
    }
    with pytest.raises(SpecFormatError, match="negative T-degree"):
        ingest(doc)


def test_ingest_unsorted_degrees_rejected():
    doc = {"generators": [[3, 1], [2, 1]], "tor": []}
    with pytest.raises(SpecFormatError, match="sorted"):
        ingest(doc)


def test_ingest_second_component_must_be_one():
    doc = {"generators": [[2, 2]], "tor": []}
    with pytest.raises(SpecFormatError):
        ingest(doc)


def test_ingest_duplicate_index_rejected():
    doc = {
        "generators": [[2, 1], [3, 1]],
        "tor": [
            {"index": 1, "shifts": [{"a": [5, 1], "c": 1}]},
            {"index": 1, "shifts": [{"a": [5, 1], "c": 1}]},
        ],
    }
    with pytest.raises(SpecFormatError, match="duplicate"):
        ingest(doc)


def test_ingest_index0_must_be_unit():
    doc = {
        "generators": [[2, 1], [3, 1]],
        "tor": [{"index": 0, "shifts": [{"a": [1, 0], "c": 1}]}],
    }
    with pytest.raises(SpecFormatError, match="unit"):
        ingest(doc)


def test_ingest_invalid_json_text():
    with pytest.raises(SpecFormatError, match="invalid JSON"):
        ingest("{not json")


def test_serialize_canonical_and_stable():
    spec = ci_shifts((2, 3, 6))
    assert serialize(spec) == serialize(ingest(serialize(spec)))
    assert serialize(spec).endswith("\n")
    json.loads(serialize(spec))  # well-formed


def test_shift_second_coordinate_bounds():
    # for the built-in families the T-degree of every shift is within
    # homological index + 1
    for degrees in [(2, 3, 6), (1, 4), (3, 3, 7)]:
        spec = ci_shifts(degrees)
        for index, kappa in spec.tors:
            for shift, _ in kappa.terms:
                assert 0 <= shift[1] <= index + 1


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=2, max_size=3))
def test_ci_shifts_give_the_betti_numbers_of_the_powers_of_the_ideal(degrees):
    # the Koszul homology of I^t, I = (x_1^{d_1}, ..., x_r^{d_r}), against every
    # index of the shift table; no index >= r carries a Betti number
    spec = ci_shifts(degrees)
    r = len(degrees)
    for t in range(1, 7):
        betti = koszul_betti_reference(degrees, t)
        assert max(betti, default=0) <= max(degrees) * (t + 2)
        for mu in range(max(degrees) * (t + 2) + 1):
            want = betti.get(mu, [0] * (r + 1))
            got = [hf_module(spec.tor(i), (mu, t)) if spec.tor(i) else 0 for i in range(r + 1)]
            assert got == want, (mu, t)
            assert want[r] == 0


def test_the_koszul_oracle_catches_a_missing_shift():
    # (2, 3, 6) index 1 without its -(11, 2) term counts one more at every point of its cone
    tor1 = ci_shifts((2, 3, 6)).tor(1)
    mutant = KappaNumerator.from_terms(tor1.ring, [a for a in tor1.terms if a[0] != (11, 2)])
    betti = {t: koszul_betti_reference((2, 3, 6), t) for t in range(1, 5)}
    differ = [
        (mu, t)
        for t in range(1, 5)
        for mu in range(6 * (t + 2) + 1)
        if hf_module(mutant, (mu, t)) != betti[t].get(mu, [0, 0])[1]
    ]
    assert differ == [
        (11, 2), (13, 3), (14, 3), (17, 3), (15, 4), (16, 4), (17, 4), (19, 4), (20, 4), (23, 4)
    ]
