import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import eval_betti_reference, total_betti_reference
from vpfbetti import hilbert, textfmt
from vpfbetti.counting import DegreeMatrix
from vpfbetti.hilbert import DataIntegrityWarning, KappaNumerator, hf_module
from vpfbetti.quasipoly import FitError, Polynomial, QuasiPolynomial
from vpfbetti.regions import (
    TOTAL_BETTI_CHECKS,
    BelowThresholdError,
    HalfLine,
    eval_betti,
    eval_row,
    intersection_height,
    region_decomposition,
    row_support,
    sort_lines,
    stability_threshold,
    total_betti_polynomial,
)
from vpfbetti.rees import ci_shifts, ingest

SPEC236 = ci_shifts((2, 3, 6))
SHIFTS_TOR1 = ((5, 1), (8, 1), (9, 1), (11, 2))


def decomposition(index):
    return region_decomposition(SPEC236.tor(index))


def test_stability_threshold_worked_example():
    assert stability_threshold(SHIFTS_TOR1, (2, 3, 6)) == 5


def test_stability_threshold_single_shift_origin():
    assert stability_threshold([(0, 0)], (2, 3, 6)) == 1


def test_stability_threshold_binding_pair():
    l1 = HalfLine(3, 2, (5, 1))
    l2 = HalfLine(2, 7, (11, 2))
    assert intersection_height(l1, l2) == Fraction(5)
    assert intersection_height(l1, HalfLine(3, 9, (9, 0))) is None


def test_stability_threshold_common_point_above_one():
    # lines through a single shift point cross exactly there
    assert stability_threshold([(0, 7)], (2, 5)) == 7


def test_sort_lines_worked_example():
    lines = sort_lines(SHIFTS_TOR1, (2, 3, 6), 5)
    assert [(l.slope, l.intercept) for l in lines] == [
        (2, 3), (2, 6), (2, 7), (2, 7),
        (3, 2), (3, 5), (3, 5), (3, 6),
        (6, -1), (6, -1), (6, 2), (6, 3),
    ]


def test_sort_lines_single_shift():
    lines = sort_lines([(0, 0)], (2, 3, 6), 1)
    assert [(l.slope, l.intercept) for l in lines] == [(2, 0), (3, 0), (6, 0)]


def test_sort_lines_coincident_retained():
    # two shifts giving the same slope-3 line: both records retained
    lines = sort_lines([(5, 1), (8, 2)], (3,), 1)
    assert [(l.slope, l.intercept) for l in lines] == [(3, 2), (3, 2)]
    assert {l.through for l in lines} == {(5, 1), (8, 2)}


def test_halfline_invariant():
    for line in sort_lines(SHIFTS_TOR1, (2, 3, 6), 5):
        b1, b2 = line.through
        assert line.intercept == b1 - line.slope * b2


def test_tor0_regions_match_chambers():
    dec = decomposition(0)
    assert dec.t0 == 1
    assert [(l.slope, l.intercept) for l in dec.lines] == [(2, 0), (3, 0), (6, 0)]
    assert dec.modulus == 12
    assert len(dec.regions) == 2


def test_tor2_regions():
    dec = decomposition(2)
    assert [(l.slope, l.intercept) for l in dec.lines] == [(2, 9), (3, 8), (6, 5)]
    assert len(dec.regions) == 2


def test_tor1_region_structure():
    dec = decomposition(1)
    assert dec.t0 == 5
    assert len(dec.lines) == 12
    assert len(dec.regions) == 11


def test_eval_betti_examples():
    assert eval_betti(decomposition(1), 28, 10) == 3
    assert eval_betti(decomposition(2), 16, 3) == 1
    assert eval_betti(decomposition(1), 22, 10) == 0  # mu = 2t + 2 < L0


def test_eval_betti_below_threshold():
    with pytest.raises(BelowThresholdError):
        eval_betti(decomposition(1), 20, 4)


def test_oracle_equivalence_master_property():
    for index in (0, 1, 2):
        dec = decomposition(index)
        kappa = SPEC236.tor(index)
        for t in range(dec.t0, 26):
            lo = dec.lines[0].value(t) - 5
            hi = dec.lines[-1].value(t) + 5
            for mu in range(lo, hi + 1):
                assert eval_betti(dec, mu, t) == hf_module(kappa, (mu, t))


def test_support_bounds_both_directions():
    dec = decomposition(1)
    kappa = SPEC236.tor(1)
    for t in range(dec.t0, 20):
        lo = dec.lines[0].value(t)
        hi = dec.lines[-1].value(t)
        assert eval_betti(dec, lo, t) > 0
        assert eval_betti(dec, hi, t) > 0
        assert eval_betti(dec, lo - 1, t) == 0
        assert eval_betti(dec, hi + 1, t) == 0
        assert hf_module(kappa, (lo - 1, t)) == 0
        assert hf_module(kappa, (hi + 1, t)) == 0


def test_line_ordering_random_instances():
    rng = random.Random(99)
    for _ in range(60):
        n_shifts = rng.randint(1, 4)
        shifts = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(n_shifts)]
        degrees = sorted(rng.sample(range(1, 21), rng.randint(2, 5)))
        t0 = stability_threshold(shifts, degrees)
        lines = sort_lines(shifts, degrees, t0)
        for t in range(t0, t0 + 21):
            vals = [l.value(t) for l in lines]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            slopes = [l.slope for l in lines]
            assert slopes == sorted(slopes)


def test_region_piece_key_depends_on_residue_only():
    # the rendered piece of u's global residue is the strip's terms summed at
    # u, and the same key selects it at u + 2 * (a basis vector)
    dec = decomposition(1)
    rng = random.Random(4)
    lat = dec.lattice
    for region, pieces in textfmt.region_pieces(dec):
        pieces = dict(pieces)
        assert len(pieces) == lat.det
        for _ in range(20):
            u = (rng.randint(-20, 80), rng.randint(-10, 20))
            lam = rng.choice(lat.basis)
            v = tuple(a + 2 * b for a, b in zip(u, lam))
            assert lat.reduce(u) == lat.reduce(v)
            terms = sum(
                c * dec.fits[i].eval((u[0] - a[0], u[1] - a[1])) for i, a, c in region.terms
            )
            assert pieces[lat.reduce(u)].eval(u) == terms


def test_total_betti_tor0():
    poly = total_betti_polynomial(decomposition(0))
    # all monomials of T-degree t: C(t+2, 2)
    assert poly == Polynomial(
        1, {(2,): Fraction(1, 2), (1,): Fraction(3, 2), (0,): 1}
    )


def test_total_betti_tor2():
    poly = total_betti_polynomial(decomposition(2))
    assert poly.eval((3,)) == 6  # compositions of 2 into 3 parts
    for t in range(2, 12):
        assert poly.eval((t,)) == t * (t + 1) // 2


def test_total_betti_zero_numerator():
    ring = DegreeMatrix.bigraded([2, 3, 6])
    dec = region_decomposition(KappaNumerator.from_terms(ring, []))
    assert total_betti_polynomial(dec).is_zero()
    assert eval_betti(dec, 5, 3) == 0


def test_total_betti_degree_bound():
    for index in (0, 1, 2):
        poly = total_betti_polynomial(decomposition(index))
        assert poly.total_degree() <= SPEC236.ring.size - 1


SINGLE_DEGREE = ingest({
    "generators": [[2, 1]] * 3,
    "tor": [{"index": 1, "shifts": [
        {"a": [0, 0], "c": 1}, {"a": [4, 1], "c": -1}, {"a": [6, 2], "c": 2}, {"a": [2, 0], "c": 1},
    ]}],
})
CI_5_8 = ingest((Path(__file__).parents[1] / "perfbench" / "data" / "ci_5_8.json").read_text())


@pytest.mark.parametrize(
    "spec",
    [
        *(ci_shifts(d) for d in [(2, 3, 6), (4, 9, 13), (6, 10, 15), (4, 7, 9), (5, 8), (1, 1), (2, 2, 5)]),
        CI_5_8,
        SINGLE_DEGREE,
    ],
    ids=lambda spec: "-".join(map(str, spec.degrees)),
)
def test_total_betti_equals_the_vandermonde_reference(spec):
    for index, kappa in spec.tors:
        dec = region_decomposition(kappa)
        assert total_betti_polynomial(dec) == total_betti_reference(dec), index


# R + R(-1, 0) over (1, 2) and R + R(0, -2) over (2, 3, 6): both decompositions
# use a chamber piece outside its cone, and verify rejects them.  A fit through
# their row sums gave 2t + 3 and t^2 + t - 2; the numerator gives 2t + 2 and t^2 + t + 1
@pytest.mark.parametrize(
    "degrees, terms",
    [((1, 2), [((0, 0), 1), ((1, 0), 1)]), ((2, 3, 6), [((0, 0), 1), ((0, 2), 1)])],
    ids=["1-2", "2-3-6"],
)
def test_total_betti_raises_when_the_decomposition_disagrees(degrees, terms):
    dec = region_decomposition(KappaNumerator.from_terms(DegreeMatrix.bigraded(degrees), terms))
    with pytest.raises(FitError, match="sums to"):
        total_betti_polynomial(dec)


@pytest.mark.filterwarnings("ignore::vpfbetti.hilbert.DataIntegrityWarning")
@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    degrees=st.lists(st.integers(1, 7), min_size=2, max_size=3).map(sorted),
    terms=st.lists(
        st.tuples(st.tuples(st.integers(0, 14), st.integers(0, 3)), st.sampled_from([-2, -1, 1, 2])),
        min_size=1,
        max_size=3,
    ),
)
def test_total_betti_is_the_oracle_total_or_raises(degrees, terms):
    # the total must hold whenever it is returned, and be returned whenever
    # the decomposition's rows equal hf_module on the rows it checks
    kappa = KappaNumerator.from_terms(DegreeMatrix.bigraded(degrees), terms)
    dec = region_decomposition(kappa)
    ts = range(dec.t0, dec.t0 + len(degrees) + TOTAL_BETTI_CHECKS + 1)
    totals, agrees = [], True
    for t in ts:
        # term a's ring row t - a_t spans a_mu + degrees[0] * (t - a_t) .. a_mu + degrees[-1] * (t - a_t)
        lo = min((degrees[0] * (t - a[1]) + a[0] for a, _ in kappa.terms), default=0)
        hi = max((degrees[-1] * (t - a[1]) + a[0] for a, _ in kappa.terms), default=-1)
        row = [hf_module(kappa, (mu, t)) for mu in range(lo, hi + 1)]
        totals.append(sum(row))
        agrees = agrees and eval_row(dec, t, lo, hi) == row
    try:
        poly = total_betti_polynomial(dec)
    except FitError:
        assert not agrees
    else:
        assert [poly.eval((t,)) for t in ts] == totals


def test_degenerate_single_degree():
    spec = ci_shifts((1, 1))
    dec = region_decomposition(spec.tor(1))
    assert dec.degenerate
    kappa = spec.tor(1)
    for t in range(dec.t0, 15):
        for mu in range(0, 2 * t + 4):
            assert eval_betti(dec, mu, t) == hf_module(kappa, (mu, t))
    # total first-syzygy count of a two-generator complete intersection is t
    poly = total_betti_polynomial(dec)
    for t in range(dec.t0, 12):
        assert poly.eval((t,)) == t


def test_region_decomposition_requires_bigraded():
    A = DegreeMatrix.from_columns([(1, 0), (0, 1)])
    kappa = KappaNumerator.from_terms(A, [((0, 0), 1)])
    with pytest.raises(ValueError):
        region_decomposition(kappa)


def test_eval_betti_negative_data_warns():
    ring = DegreeMatrix.bigraded([2, 3, 6])
    bad = KappaNumerator.from_terms(ring, [((0, 0), 1), ((2, 1), -2)])
    dec = region_decomposition(bad)
    t = dec.t0 + 9
    with pytest.warns(DataIntegrityWarning):
        v = eval_betti(dec, 2 * t, t)
    assert v < 0


def test_ci_12_single_region():
    spec = ci_shifts((1, 2))
    dec = region_decomposition(spec.tor(1))
    assert [(l.slope, l.intercept) for l in dec.lines] == [(1, 2), (2, 1)]
    kappa = spec.tor(1)
    for t in range(dec.t0, 20):
        for mu in range(0, 2 * t + 4):
            assert eval_betti(dec, mu, t) == hf_module(kappa, (mu, t))


def test_first_region_mod_selector():
    # on a region inside the first chamber the piece is selected by
    # (a * t - mu) mod D for the region's lower-line slope a; grouping the
    # stored pieces by that selector must collapse them to equal polynomials
    dec = decomposition(0)
    region, pieces = next(textfmt.region_pieces(dec))  # [2t, 3t)
    a = dec.lines[region.lower].slope
    groups = {}
    for res, piece in pieces:
        key = (a * res[1] - res[0]) % dec.modulus
        groups.setdefault(key, set()).add(frozenset(piece.terms.items()))
    assert all(len(v) == 1 for v in groups.values())


# (2,3,6) and (2,3,6,7) repeat along a row with periods 12 and 60, not the
# first basis entries 6 and 12; (2,2) has a single degree
@pytest.mark.parametrize("degrees", [(2, 3, 6), (2, 3, 6, 7), (2, 2)])
@settings(max_examples=25, deadline=None)
@given(
    terms=st.lists(
        st.tuples(st.tuples(st.integers(0, 14), st.integers(0, 3)), st.integers(-2, 2)),
        max_size=3,
    ),
    dt=st.integers(0, 5),
    from_top=st.booleans(),
    offset=st.integers(-8, 8),
    width=st.integers(0, 70),
)
@example(terms=[], dt=0, from_top=False, offset=-2, width=5)
@example(terms=[((3, 1), 1), ((0, 0), -1)], dt=1, from_top=False, offset=0, width=1)
@example(terms=[((3, 1), 1), ((0, 0), -1)], dt=1, from_top=True, offset=1, width=1)
def test_eval_row_matches_the_per_point_reference(degrees, terms, dt, from_top, offset, width):
    # rows start at either end of the support and run inside, across or
    # beyond it; width 1 is a single point, width 0 an empty row
    dec = region_decomposition(
        KappaNumerator.from_terms(DegreeMatrix.bigraded(degrees), terms)
    )
    t = dec.t0 + dt
    lo = row_support(dec, t)[from_top] + offset
    got = eval_row(dec, t, lo, lo + width - 1)
    assert got == [eval_betti_reference(dec, mu, t) for mu in range(lo, lo + width)]


def test_eval_row_returns_negative_values_without_warning():
    ring = DegreeMatrix.bigraded([2, 3, 6])
    dec = region_decomposition(KappaNumerator.from_terms(ring, [((0, 0), 1), ((2, 1), -2)]))
    t = dec.t0 + 9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = eval_row(dec, t, *row_support(dec, t))
    assert min(row) < 0


def test_eval_row_rejects_a_non_integer_piece(monkeypatch, fresh_tables):
    # one residue class of the first chamber's cached fit is worth 1/2
    fits = hilbert._ring_data((2, 3, 6))[2]
    real = fits[0]
    res = real.lattice.residues()[0]
    half = Polynomial(2, {(0, 0): Fraction(1, 2)})
    broken = QuasiPolynomial(real.lattice, {**real.pieces, res: half})
    monkeypatch.setattr(fits, "_fits", [broken, *fits._fits[1:]])
    dec = decomposition(1)
    with pytest.raises(FitError, match="non-integer piece value 1/2"):
        for t in range(dec.t0, dec.t0 + 12):
            eval_row(dec, t, *row_support(dec, t))


def test_decomposition_and_rows_shift_no_term(monkeypatch, fresh_tables):
    # (2,3,6,7) has global det 240; strips read the fits over their own lattices
    calls = []
    real = QuasiPolynomial.shift

    def shift(self, a, c=1):
        calls.append((a, c))
        return real(self, a, c)

    monkeypatch.setattr(QuasiPolynomial, "shift", shift)
    ring = DegreeMatrix.bigraded([2, 3, 6, 7])
    kappa = KappaNumerator.from_terms(ring, [((5, 1), 1), ((9, 1), 1), ((14, 2), -1)])
    dec = region_decomposition(kappa)
    assert dec.modulus == 240
    for t in range(dec.t0, dec.t0 + 12):
        lo, hi = row_support(dec, t)
        want = [hf_module(kappa, (mu, t)) for mu in range(lo, hi + 1)]
        assert eval_row(dec, t, lo, hi) == want
    assert calls == []
