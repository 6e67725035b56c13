import random
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_count,
    ring_fits_reference,
    ring_hilbert_closed_form,
    series_identity_reference,
    value_rows_reference,
)
from vpfbetti import hilbert, kernels, regions
from vpfbetti.chambers import (
    Chamber,
    chamber_complex_2xn,
    global_lattice,
    locate,
    pair_lattice,
)
from vpfbetti.counting import DegreeMatrix, count, count_row
from vpfbetti.hilbert import (
    DataIntegrityWarning,
    KappaNumerator,
    RingHilbertValue,
    hf_bigraded_ring,
    hf_grid,
    _padded,
    _series_identity,
    _value_rows,
    hf_module,
    series_identity_check,
)
from vpfbetti.lattices import hnf
from vpfbetti.quasipoly import Polynomial, QuasiPolynomial
from vpfbetti.rees import ToriSpec, ci_shifts

RING = DegreeMatrix.bigraded([2, 3, 6])
TOR1 = KappaNumerator.from_terms(
    RING, [((5, 1), 1), ((8, 1), 1), ((9, 1), 1), ((11, 2), -1)]
)


def test_unit_numerator_is_count():
    unit = KappaNumerator.from_terms(RING, [((0, 0), 1)])
    assert hf_module(unit, (23, 9)) == count(RING, (23, 9)) == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: count(RING, (5.9, 2)),
        lambda: hf_module(TOR1, (Fraction(57, 2), 10)),
        lambda: hf_bigraded_ring((2, 3, 6), (12.9, 2.5)),
        lambda: hf_bigraded_ring((2.5, 3), (12, 2)),
        lambda: DegreeMatrix.bigraded([2.5, 3]),
        lambda: DegreeMatrix.from_columns([(2, Fraction(1))]),
        lambda: KappaNumerator.from_terms(RING, [((5, 1.0), 1)]),
        lambda: KappaNumerator.from_terms(RING, [((5, 1), 1.5)]),
    ],
)
def test_non_integer_inputs_raise_instead_of_truncating(call):
    with pytest.raises(TypeError):
        call()


def _tor1_decomposition():
    return regions.region_decomposition(TOR1)


def _tor1_fit():
    return next(iter(_tor1_decomposition().fits.values()))


@pytest.mark.parametrize(
    "call",
    [
        lambda: regions.eval_betti(_tor1_decomposition(), 28.7, 10),
        lambda: regions.eval_row(_tor1_decomposition(), 10.5, 20, 22),
        lambda: regions.all_half_lines([(5, 1.5)], [2, 3]),
        lambda: regions.stability_threshold([(5, 1)], [2, 3.5, 6]),
        lambda: regions.sort_lines([(5, 1)], [2, 3.5], 3),
        lambda: _tor1_fit().eval_row(10.5, 20.2, 22),
        lambda: _tor1_fit().shift((5.5, 1)),
        lambda: global_lattice([2, 3, 6]).reduce((5.9, 2)),
        lambda: pair_lattice(2, 3.5),
        lambda: hnf([[1, 2.5]]),
        lambda: Polynomial(1.0, {(1,): 1}),
        lambda: Polynomial(1, {(Fraction(1),): 1}),
        lambda: chamber_complex_2xn([2, 3.5, 6]),
        lambda: Chamber(((2, 1), (3.5, 1)), (), global_lattice([2, 3])),
        lambda: global_lattice([2, 3.5, 6]),
        lambda: ci_shifts((2.5, 3, 6)),
        lambda: ToriSpec.build((2.5, 3), {0: [((0, 0), 1)]}),
        lambda: kernels.band_rows([2, 3.5]),
        lambda: kernels.BandRows([2, 3.5]),
        lambda: count_row(RING, 10.5, 20, 22),
        lambda: count_row(RING, 10, 20, 22.5),
        lambda: locate(chamber_complex_2xn([2, 3, 6]), (7.5, 3)),
    ],
)
def test_non_integer_arguments_raise_beyond_the_counting_entry_points(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: hf_module(ci_shifts((2, 3, 6)).tor(1), (28, 10, 5)),
        lambda: hf_module(TOR1, (28,)),
        lambda: hf_bigraded_ring((2, 3, 6), (12, 2, 99)),
        lambda: hf_bigraded_ring((2, 3, 6), (12,)),
        lambda: locate(chamber_complex_2xn([2, 3, 6]), (12, 2, 99)),
    ],
)
def test_points_of_the_wrong_length_raise_instead_of_truncating(call):
    with pytest.raises(ValueError):
        call()


def test_kappa_constructor_merges_and_drops_zero_terms():
    kappa = KappaNumerator(RING, (((5, 1), 0),))
    assert kappa.is_zero()
    assert kappa == KappaNumerator.from_terms(RING, [])
    kappa = KappaNumerator(RING, (((5, 1), 1), ((2, 0), -1), ((5, 1), 1)))
    assert kappa.terms == (((2, 0), -1), ((5, 1), 2))
    assert kappa == KappaNumerator.from_terms(RING, {(5, 1): 2, (2, 0): -1})
    with pytest.raises(ValueError):
        KappaNumerator(RING, (((5, 1, 0), 1),))


def test_tor1_value():
    assert hf_module(TOR1, (28, 10)) == 3


def test_merged_to_zero():
    kappa = KappaNumerator.from_terms(RING, [((4, 1), 1), ((4, 1), -1)])
    assert kappa.is_zero()
    for u in [(0, 0), (9, 3), (17, 4)]:
        assert hf_module(kappa, u) == 0


def test_terms_merge_and_sort():
    kappa = KappaNumerator.from_terms(RING, [((5, 1), 1), ((5, 1), 1), ((2, 0), -1)])
    assert kappa.terms == (((2, 0), -1), ((5, 1), 2))


def test_linearity():
    k1 = KappaNumerator.from_terms(RING, [((0, 0), 1)])
    k2 = KappaNumerator.from_terms(RING, [((5, 1), 1), ((11, 2), -1)])
    both = KappaNumerator.from_terms(RING, k1.terms + k2.terms)
    for u in [(12, 3), (20, 6), (7, 2)]:
        assert hf_module(both, u) == hf_module(k1, u) + hf_module(k2, u)


def test_negative_value_warns():
    bad = KappaNumerator.from_terms(RING, [((0, 0), 1), ((2, 1), -2)])
    with pytest.warns(DataIntegrityWarning):
        v = hf_module(bad, (4, 2))
    assert v < 0


def test_support_containment():
    # zero whenever u - a falls outside the cone for every shift
    for t in range(0, 8):
        assert hf_module(TOR1, (2 * t + 2, t)) == 0


def test_series_identity_examples():
    unit = KappaNumerator.from_terms(RING, [((0, 0), 1)])
    tor2 = KappaNumerator.from_terms(RING, [((11, 1), 1)])
    for kappa in (unit, TOR1, tor2):
        assert series_identity_check(kappa, (40, 12))


def test_series_identity_empty():
    kappa = KappaNumerator.from_terms(RING, [])
    assert series_identity_check(kappa, (10, 4))


def test_series_identity_single_shift_table():
    # single shift: the module table is the ring table shifted by (11, 1)
    tor2 = KappaNumerator.from_terms(RING, [((11, 1), 1)])
    for mu in range(0, 30):
        for t in range(0, 6):
            assert hf_module(tor2, (mu, t)) == count(RING, (mu - 11, t - 1))


def test_hf_bigraded_ring_divisible_branch():
    res = hf_bigraded_ring([2, 3, 6], (12, 2))
    assert res.value == 1
    assert res.chamber == 1
    assert res.residue == (0, 0)


def test_hf_bigraded_ring_nondivisible_branch():
    res = hf_bigraded_ring([2, 3, 6], (10, 2))
    assert res.value == 0
    assert res.chamber == 1


def test_hf_bigraded_ring_first_chamber():
    res = hf_bigraded_ring([2, 3, 6], (2, 1))
    assert res.value == 1
    assert res.chamber == 0


def test_hf_bigraded_ring_outside():
    res = hf_bigraded_ring([2, 3, 6], (1, 1))
    assert res.value == 0
    assert res.chamber is None and res.residue is None


def test_hf_bigraded_ring_matches_count_and_closed_form():
    for t in range(0, 41):
        for mu in range(2 * t - 2, 6 * t + 3):
            res = hf_bigraded_ring([2, 3, 6], (mu, t))
            assert res.value == count(RING, (mu, t))
            if 2 * t <= mu <= 6 * t:
                assert res.value == ring_hilbert_closed_form(mu, t)


def test_hf_bigraded_ring_degenerate():
    # one distinct degree: no chambers, so the value comes with no attribution;
    # on the ray mu = e t it is C(t + n - 1, n - 1), and 0 off it
    for degrees in ((5, 5), (2, 2, 2), (0, 0, 0)):
        A, e = DegreeMatrix.bigraded(degrees), degrees[0]
        for t in range(-1, 8):
            for mu in range(e * t - 2, e * t + 3):
                res = hf_bigraded_ring(degrees, (mu, t))
                assert res == RingHilbertValue(count(A, (mu, t)), None, None)
        assert hf_bigraded_ring(degrees, (4 * e, 4)).value == count(A, (4 * e, 4)) > 1
        with pytest.raises(ValueError):
            hf_bigraded_ring(degrees, (e, 1, 1))


def test_hf_module_any_dimension():
    A = DegreeMatrix.from_columns([(1, 0, 1), (0, 1, 1), (1, 1, 2)])
    kappa = KappaNumerator.from_terms(A, [((0, 0, 0), 1), ((1, 1, 2), -1)])
    for u in [(0, 0, 0), (2, 1, 3), (3, 3, 6)]:
        want = brute_count(A.columns, u) - brute_count(
            A.columns, tuple(a - b for a, b in zip(u, (1, 1, 2)))
        )
        assert hf_module(kappa, u) == want


def test_series_identity_requires_bigraded_ring():
    A = DegreeMatrix.from_columns([(1, 0, 1), (0, 1, 1), (1, 1, 2)])
    kappa = KappaNumerator.from_terms(A, [((0, 0, 0), 1)])
    with pytest.raises(ValueError):
        series_identity_check(kappa, (3, 3, 3))


def test_series_identity_catches_corrupted_table(monkeypatch, fresh_tables):
    # both sides of a table-against-itself comparison would read the bad cell
    fill = kernels.bigraded_table

    def corrupted(degrees, t_max, mu_max):
        table = fill(degrees, t_max, mu_max)
        table[3][3] += 1  # (9, 3): offset 9 - 2 * 3 of band row 3
        return table

    monkeypatch.setattr(kernels, "bigraded_table", corrupted)
    for kappa in (KappaNumerator.from_terms(RING, [((0, 0), 1)]), TOR1):
        assert not series_identity_check(kappa, (40, 12))


def test_series_identity_catches_a_corrupted_served_row(fresh_tables):
    # the check must certify the rows count serves, not a private copy
    unit = KappaNumerator.from_terms(RING, [((0, 0), 1)])
    assert series_identity_check(unit, (40, 12)) and count(RING, (9, 3)) == 1
    rows = kernels.band_rows(RING.degrees).rows
    row, k = rows[3], 9 - 2 * 3
    rows[3] = kernels._Row(row.packed + (1 << 8 * row.itemsize * k), row.itemsize, len(row))
    assert count(RING, (9, 3)) == 2
    for kappa in (unit, TOR1):
        assert not series_identity_check(kappa, (40, 12))


def test_hf_grid_layout():
    g = hf_grid(TOR1, (20, 6), (30, 10))
    assert [len(row) for row in g] == [11] * 5
    assert g[10 - 6][28 - 20] == hf_module(TOR1, (28, 10)) == 3
    assert type(g[4][8]) is int


def test_hf_grid_over_budget_raises_before_allocating():
    with pytest.raises(kernels.BudgetExceededError):
        hf_grid(TOR1, (0, 0), (10**6, 10**5))


def test_value_rows_over_budget_raise_before_allocating(monkeypatch):
    # a billion rows, empty past mu = 10, or one value that reads a billion table rows
    unit = KappaNumerator.from_terms(RING, [((0, 0), 1)])
    tracemalloc.start()
    try:
        with pytest.raises(kernels.BudgetExceededError, match="value rows, one cell or more"):
            series_identity_check(unit, (10, 10**9))
        with pytest.raises(kernels.BudgetExceededError, match="count table rows"):
            hf_grid(unit, (2 * 10**9, 10**9), (2 * 10**9, 10**9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # fewer rows than the budget, but more cells: row t holds 4t + 1, counted to the first
    # t past the budget
    monkeypatch.setattr(kernels, "MAX_TABLE_CELLS", 4000)
    with pytest.raises(kernels.BudgetExceededError, match="value rows to t=44 needs 4005 cells"):
        series_identity_check(unit, (10**6, 1000))


def test_value_rows_equal_the_reference_builder_and_its_budget_errors(monkeypatch):
    # terms over many heights, negative a_mu, coefficients +-1 and +-2; then a budget of a few
    # hundred cells, which both builders must exceed at the same row with the same text
    rng = random.Random(33)

    def built(build, kappa, lo, hi):
        try:
            return build(kappa, lo, hi)
        except kernels.BudgetExceededError as exc:
            return str(exc)

    over = 0
    for case in range(160):
        ring = DegreeMatrix.bigraded(rng.choices(range(5), k=rng.randint(2, 4)))
        terms = [
            ((rng.randint(-15, 30), rng.randint(-2, 25)), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, 8))
        ]
        kappa = KappaNumerator.from_terms(ring, terms)
        lo = (rng.randint(-20, 10), rng.randint(-4, 10))
        hi = (lo[0] + rng.randint(-1, 60), lo[1] + rng.randint(-1, 30))
        if case % 2:
            monkeypatch.setattr(kernels, "MAX_TABLE_CELLS", rng.randint(20, 400))
        rows = built(_value_rows, kappa, lo, hi)
        assert rows == built(value_rows_reference, kappa, lo, hi), (kappa.terms, lo, hi)
        over += isinstance(rows, str) and "value rows" in rows
        monkeypatch.undo()
    assert over >= 20


def test_series_identity_needs_only_the_bands_inside_the_budget(monkeypatch, fresh_tables):
    # rows t <= 30 of the unit hold the bands 2t <= mu <= 6t, 1,891 cells of the 5,611-cell box
    monkeypatch.setattr(kernels, "MAX_TABLE_CELLS", 4000)
    unit = KappaNumerator.from_terms(RING, [((0, 0), 1)])
    assert sum(len(values) for _, values in _value_rows(unit, (0, 0), (180, 30))) == 1891
    assert series_identity_check(unit, (180, 30))
    with pytest.raises(kernels.BudgetExceededError, match="value grid needs 5611 cells"):
        hf_grid(unit, (0, 0), (180, 30))


@st.composite
def bigraded_numerators(draw):
    degrees = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    ring = DegreeMatrix.bigraded(degrees)
    shift = st.tuples(st.integers(-6, 8), st.integers(-3, 4))
    terms = draw(st.lists(st.tuples(shift, st.integers(-3, 3)), max_size=5))
    kappa = KappaNumerator.from_terms(ring, terms)
    lo = (draw(st.integers(-10, 4)), draw(st.integers(-5, 2)))
    hi = (lo[0] + draw(st.integers(0, 14)), lo[1] + draw(st.integers(0, 6)))
    return kappa, lo, hi


@settings(max_examples=150, deadline=None)
@given(bigraded_numerators())
def test_hf_grid_matches_hf_module_and_series_identity(case):
    # hf_grid, the value rows and hf_module read the same rows, so all answer to brute force
    kappa, lo, hi = case
    g = hf_grid(kappa, lo, hi)
    rows = _value_rows(kappa, lo, hi)
    assert len(rows) == len(g)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DataIntegrityWarning)
        for t, (start, values) in enumerate(rows, lo[1]):
            for mu in range(lo[0], hi[0] + 1):
                want = sum(
                    c * brute_count(kappa.ring.columns, (mu - a_mu, t - a_t))
                    for (a_mu, a_t), c in kappa.terms
                )
                assert g[t - lo[1]][mu - lo[0]] == want == hf_module(kappa, (mu, t))
                on_span = 0 <= mu - start < len(values)
                assert (values[mu - start] if on_span else 0) == want
    assert series_identity_check(kappa, hi)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(bigraded_numerators(), st.data())
def test_series_identity_matches_the_full_box_reference(case, data):
    # 0-2 cells bumped inside the rows, compared on the rows padded to the box
    kappa, _, hi = case
    lo = tuple(min((a[i] for a in kappa.shifts), default=0) for i in (0, 1))
    hi = (max(hi[0], lo[0]), max(hi[1], lo[1]))
    rows = _value_rows(kappa, lo, hi)
    cells = [(i, k) for i, (_, values) in enumerate(rows) for k in range(len(values))]
    if cells:
        bumps = st.tuples(st.sampled_from(cells), st.sampled_from([-1, 1]))
        for (i, k), bump in data.draw(st.lists(bumps, max_size=2)):
            rows[i][1][k] += bump
    g = [_padded(start, values, lo[0], hi[0]) for start, values in rows]
    assert _series_identity(kappa, rows, lo[1]) == series_identity_reference(kappa, g, lo)


def test_series_identity_fails_on_a_row_that_starts_inside_its_band():
    # the top row t = 3 of TOR1 starts at the band edge mu = 5 + 2 * 2, where the value
    # is 1; a row that starts one cell later must fail, not drop what row 2 moves there
    lo = (5, 1)
    rows = _value_rows(TOR1, lo, (40, 3))
    start, values = rows[3 - lo[1]]
    assert (start, values[0]) == (9, 1) and _series_identity(TOR1, [(a, v[:]) for a, v in rows], 1)
    rows[3 - lo[1]] = (start + 1, values[1:])
    g = [_padded(a, v, lo[0], 40) for a, v in rows]
    assert not _series_identity(TOR1, rows, 1)
    assert not series_identity_reference(TOR1, g, lo)
    # a row that starts past its own numerator coefficient fails the same way
    unit = KappaNumerator.from_terms(RING, [((0, 0), 1)])
    for kappa, lo in [(TOR1, (5, 1)), (unit, (0, 0))]:
        rows = _value_rows(kappa, lo, (40, 3))
        start, values = rows[0]
        rows[0] = (start + 1, values[1:])
        g = [_padded(a, v, lo[0], 40) for a, v in rows]
        assert not _series_identity(kappa, rows, lo[1])
        assert not series_identity_reference(kappa, g, lo)


def test_hf_grid_and_count_share_one_ring_from_eight_threads(fresh_tables):
    # grids and point reads grow the same rows while the other kind reads them
    ring = DegreeMatrix.bigraded([2, 3, 6, 7])
    kappa = KappaNumerator.from_terms(ring, [((0, 0), 1), ((9, 2), -1)])
    rng = random.Random(23)
    jobs = []
    for k in range(8):
        ts = range(k, 240, 4 if k % 2 else 16)
        if k % 2:
            jobs.append([("count", (rng.randint(2 * t, 7 * t), t)) for t in ts])
        else:
            jobs.append([("grid", ((2 * t, t - 3), (2 * t + 60, t))) for t in ts])

    def run(job):
        return [count(ring, a) if kind == "count" else hf_grid(kappa, *a) for kind, a in job]

    want = [run(job) for job in jobs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # a race shows in some rounds only
            fresh_tables()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, job) for job in jobs]
                assert [f.result(timeout=120) for f in futures] == want
    finally:
        sys.setswitchinterval(switch)


def test_fit_cache_is_keyed_by_sorted_degrees(fresh_tables):
    a = hf_bigraded_ring((6, 3, 2), (40, 10))
    b = hf_bigraded_ring((2, 3, 6), (40, 10))
    assert a == b
    assert isinstance(a, RingHilbertValue) and a.value == count(RING, (40, 10))
    assert hilbert._cached_ring.cache_info().currsize == 1
    assert hilbert._ring((6, 3, 2)) is hilbert._ring((3, 2, 6))


@pytest.mark.parametrize(
    "degrees",
    [(2, 3, 6), (2, 3, 6, 7), (2, 3, 4, 5, 6), (4, 9, 13), (6, 10, 15), (4, 7, 9), (5, 8)],
)
def test_lazy_fits_equal_the_eager_global_fits(degrees, fresh_tables):
    # each fit is cached over its chamber's own lattice, and every global
    # residue reads the eager global fit's piece from the class it falls in
    ring = hilbert._ring(degrees)
    want = ring_fits_reference(degrees)
    assert len(ring.chambers) == len(want)
    for i, ref in enumerate(want):
        fit = ring.fit(i)
        assert fit.lattice == ring.chambers[i].lattice
        for k in ring.lattice.residues():
            assert fit.pieces[fit.lattice.reduce(k)] == ref.pieces[k]


def recording_builds(monkeypatch):
    """Record the lattice of every QuasiPolynomial built."""
    built = []
    real = QuasiPolynomial._build.__func__

    def build(cls, **fields):
        built.append(fields["lattice"])
        return real(cls, **fields)

    monkeypatch.setattr(QuasiPolynomial, "_build", classmethod(build))
    return built


def test_a_ring_query_makes_no_global_copy(monkeypatch, fresh_tables):
    # a ring query builds no quasi-polynomial; the one a chamber fit builds
    # is over its chamber's own lattice, not the global one
    built = recording_builds(monkeypatch)
    res = hf_bigraded_ring((2, 3, 6, 7, 11), (30, 10))
    assert res == RingHilbertValue(7, 0, (30, 10))
    assert built == []
    ring = hilbert._ring((2, 3, 6, 7, 11))
    assert ring.fit(0).eval_row(10, 30, 30) == [7]
    assert built == [ring.chambers[0].lattice] and ring.lattice.det == 21600


def counting_fits(monkeypatch):
    """Record the chamber of every fit the ring records make."""
    fitted = []
    real = hilbert.fit_chamber_qp

    def fit(ring, chamber, lattice):
        fitted.append(chamber.generators)  # list.append is atomic across threads
        return real(ring, chamber, lattice)

    monkeypatch.setattr(hilbert, "fit_chamber_qp", fit)
    return fitted


@pytest.mark.parametrize(
    "degrees,u",
    [
        ((2, 3, 6, 7), (650, 100)),
        ((2, 3, 4, 5, 6), (45, 10)),
        ((2, 2, 5), (10**9 + 2, 3 * 10**8)),
        ((2, 3, 5, 7, 11, 13), (60, 10)),
        ((1, 31, 32, 33, 34, 35), (16000000, 1000000)),
    ],
)
def test_a_ring_query_fits_nothing(monkeypatch, fresh_tables, degrees, u):
    # the value comes from the ring's partition waves, not from a chamber fit
    fitted = counting_fits(monkeypatch)
    built = recording_builds(monkeypatch)
    hf_bigraded_ring(degrees, u)
    assert fitted == [] and built == []


def fit_value(degrees, u):
    """The value at u of the fit of the lowest chamber holding u, read through the ring record."""
    ring = hilbert._ring(degrees)
    (i, *_) = locate(ring.chambers, u)
    return ring.fit(i).eval_row(u[1], u[0], u[0])[0]


def test_one_point_fits_only_its_chamber(monkeypatch, fresh_tables):
    fitted = counting_fits(monkeypatch)
    degrees = (2, 3, 4, 5, 6)
    value = fit_value(degrees, (45, 10))  # strictly between slopes 4 and 5
    assert value == count(DegreeMatrix.bigraded(degrees), (45, 10))
    assert fitted == [((4, 1), (5, 1))]
    fit_value(degrees, (46, 10))
    assert len(fitted) == 1


def test_a_fit_that_raises_is_not_kept(monkeypatch, fresh_tables):
    real = hilbert.fit_chamber_qp

    def over_budget(ring, chamber, lattice):
        raise kernels.BudgetExceededError("no room")

    monkeypatch.setattr(hilbert, "fit_chamber_qp", over_budget)
    with pytest.raises(kernels.BudgetExceededError):
        fit_value((2, 3, 6), (40, 10))
    monkeypatch.setattr(hilbert, "fit_chamber_qp", real)
    assert fit_value((2, 3, 6), (40, 10)) == count(RING, (40, 10))


def test_each_chamber_fitted_once_from_eight_threads(monkeypatch, fresh_tables):
    degrees = (2, 3, 4, 5, 6)
    points = [(mu, t) for t in (10, 11, 12, 13) for mu in range(2 * t + 1, 6 * t, 3)]
    jobs = [points[k::8] + points[: k + 1] for k in range(8)]  # every job reads the first chamber
    want = [[hf_bigraded_ring(degrees, u).value for u in job] for job in jobs]
    fitted = counting_fits(monkeypatch)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):  # a race shows in some rounds only
            fresh_tables()
            fitted.clear()
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(lambda job: [fit_value(degrees, u) for u in job], job)
                    for job in jobs
                ]
                assert [f.result(timeout=120) for f in futures] == want
            assert sorted(fitted) == [((lo, 1), (lo + 1, 1)) for lo in (2, 3, 4, 5)]
    finally:
        sys.setswitchinterval(switch)
