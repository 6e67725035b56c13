import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Q_formula,
    brute_count,
    lattice_from_columns,
    poly_eval_reference,
    qp_eval_row_reference,
)
from vpfbetti import quasipoly
from vpfbetti.chambers import Chamber, chamber_complex_2xn, global_lattice
from vpfbetti.counting import DegreeMatrix, count, count_row
from vpfbetti.lattices import Lattice
from vpfbetti.quasipoly import (
    FitError,
    Polynomial,
    QuasiPolynomial,
    _sweep_rows,
    fit_chamber_qp,
)

RING = DegreeMatrix.bigraded([2, 3, 6])
CHAMBERS = chamber_complex_2xn([2, 3, 6])
GLOBAL = global_lattice([2, 3, 6])


def fitted(idx):
    return fit_chamber_qp(RING, CHAMBERS[idx], GLOBAL)


def closed_form_c1_qp():
    """The first-chamber quasi-polynomial assembled from the closed form."""
    pieces = {}
    for res in GLOBAL.residues():
        i = (res[0] - 2 * res[1]) % 4
        pieces[res] = Polynomial(
            2,
            {
                (1, 0): Fraction(1, 4),
                (0, 1): Fraction(-1, 2),
                (0, 0): 1 - Fraction(i, 4),
            },
        )
    return QuasiPolynomial(GLOBAL, pieces)


def test_polynomial_basics():
    p = Polynomial(2, {(1, 0): 1, (0, 1): 2, (0, 0): -3})
    assert p.eval((5, 1)) == 4
    assert (p + p).eval((5, 1)) == 8
    assert Polynomial.zero(2).total_degree() == 0


@pytest.mark.parametrize(
    "nvars, terms",
    [
        (2, {(1,): 1}),  # too few exponents
        (1, {(1, 1): 2}),  # too many
        (2, {(-1, 0): 1}),  # a negative exponent
    ],
)
def test_polynomial_rejects_malformed_exponents(nvars, terms):
    with pytest.raises(ValueError):
        Polynomial(nvars, terms)


def test_quasipolynomial_rejects_a_piece_not_in_two_variables():
    with pytest.raises(ValueError):
        QuasiPolynomial(GLOBAL, {(0, 0): Polynomial(1, {(1,): 1})})


fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30))


@st.composite
def poly_cases(draw):
    """Two coefficient tables in 1 or 2 variables, a point, a shift and a scalar."""
    n = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    coeffs = st.dictionaries(exps, fractions, max_size=8)
    ints = st.tuples(*[st.integers(-20, 20)] * n)
    return n, draw(coeffs), draw(coeffs), draw(ints), draw(ints), draw(fractions)


@settings(max_examples=200, deadline=None)
@given(poly_cases())
def test_polynomial_matches_fraction_reference(case):
    n, c1, c2, u, a, c = case
    p, q = Polynomial(n, c1), Polynomial(n, c2)
    ref = poly_eval_reference
    assert p.eval(u) == ref(c1, u)
    assert p.shifted(a).eval(u) == ref(c1, tuple(x - y for x, y in zip(u, a)))
    assert p.scale(c).eval(u) == c * ref(c1, u)
    assert (p + q).eval(u) == ref(c1, u) + ref(c2, u)
    # reduced storage: equal polynomials compare and hash equal
    summed = {e: c1.get(e, 0) + c2.get(e, 0) for e in set(c1) | set(c2)}
    assert p + q == Polynomial(n, summed)
    assert hash(p + q) == hash(Polynomial(n, summed))
    assert p.scale(c) == Polynomial(n, {e: c * v for e, v in c1.items()})
    assert dict(p.terms) == {e: v for e, v in c1.items() if v}


def test_polynomial_and_quasipolynomial_are_immutable():
    p = Polynomial(2, {(1, 0): Fraction(1, 2)})
    q = fitted(0)
    for obj, attr in ((p, "nvars"), (p, "den"), (p, "terms"), (q, "lattice"), (q, "pieces")):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    with pytest.raises(AttributeError):
        del p.den
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = 1
    with pytest.raises(TypeError):
        q.pieces[GLOBAL.residues()[0]] = p
    assert p == Polynomial(2, {(1, 0): Fraction(1, 2)})
    assert pickle.loads(pickle.dumps(p)) == p
    assert pickle.loads(pickle.dumps(q)) == q


def test_polynomial_shift():
    p = Polynomial(2, {(1, 1): 1})
    s = p.shifted((2, 3))
    assert s.eval((5, 7)) == (5 - 2) * (7 - 3)
    # a point or shift of the wrong length raises, as the constructor does
    line = Polynomial(1, {(1,): 2})
    for call, arg in [(line.eval, (3, 5)), (line.shifted, (1, 0)), (line.shifted, (1, 7)), (p.eval, (5,))]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            call(arg)


def constant(value):
    """The quasi-polynomial over GLOBAL with the same constant piece on every class."""
    return QuasiPolynomial(GLOBAL, {k: Polynomial(2, {(0, 0): value}) for k in GLOBAL.residues()})


def test_constant_quasipolynomial():
    q = constant(7)
    for u in [(0, 0), (5, 3), (-2, 11)]:
        assert q.eval(u) == 7


def test_eval_worked_example_values():
    q1 = fitted(0)
    assert q1.eval((23, 9)) == 2
    assert q1.eval((20, 9)) == brute_count(RING.columns, (20, 9)) == 1
    assert q1.eval((19, 9)) == brute_count(RING.columns, (19, 9)) == 1


def _row_case(case):
    """A quasi-polynomial for eval_row: a chamber fit, or integer pieces over
    the lattice with basis (2, 4), (0, 6), whose row period 6 is neither p nor det."""
    if case == "generators":
        lattice = lattice_from_columns([(4, 2), (2, 4)])
        return QuasiPolynomial(lattice, {
            res: Polynomial(2, {(2, 0): i % 3, (1, 1): -1, (0, 1): i, (0, 0): 5 - i})
            for i, res in enumerate(lattice.residues())
        })
    degrees, idx = case
    chamber = chamber_complex_2xn(degrees)[idx]
    return fit_chamber_qp(DegreeMatrix.bigraded(degrees), chamber, chamber.lattice)


@pytest.mark.parametrize(
    "case",
    [((2, 3, 6), i) for i in range(2)] + [((2, 3, 6, 7), i) for i in range(3)]
    + [((4, 9, 13), i) for i in range(2)] + ["generators"],
    ids=lambda c: c if isinstance(c, str) else f"{','.join(map(str, c[0]))}-C{c[1] + 1}",
)
def test_eval_row_matches_pointwise_eval(case):
    q = _row_case(case)
    m = q.lattice.row_period
    assert q.lattice.contains((m, 0))
    assert not any(q.lattice.contains((k, 0)) for k in range(1, m))
    for t in (-3, 0, 5, 11):
        # from negative mu across more than three periods
        lo, hi = -2 * m - 1, m + 4
        row = q.eval_row(t, lo, hi)
        assert row == [q.eval((mu, t)) for mu in range(lo, hi + 1)]
        assert all(type(v) is int for v in row)
        assert q.eval_row(t, 7, 7) == [q.eval((7, t))]
        assert q.eval_row(t, 7, 6) == [] and q.eval_row(t, 7, 2) == []


def test_eval_row_rejects_a_non_integer_piece():
    half = constant(Fraction(1, 2))
    with pytest.raises(FitError, match=re.escape("non-integer piece value 1/2 at (-1, 3)")):
        half.eval_row(3, -1, 4)


# integer-valued in mu (1, mu, C(mu, 2), C(mu, 3)) and not (mu / 2, 1 / 3)
_MU_BASIS = (
    {0: 1}, {1: 1}, {2: Fraction(1, 2), 1: Fraction(-1, 2)},
    {3: Fraction(1, 6), 2: Fraction(-1, 2), 1: Fraction(1, 3)},
)
_NON_INTEGER = ({1: Fraction(1, 2)}, {0: Fraction(1, 3)})


def _random_piece(rng):
    """A piece of mu-degree 0-3 and t-degree 0-2, not integer-valued about one time in ten."""
    terms = {}
    for k in range(rng.randint(0, 3) + 1):
        basis = rng.choice(_NON_INTEGER) if rng.random() < 0.05 else _MU_BASIS[k]
        c, j = rng.randint(-3, 3), rng.randint(0, 2)
        for i, b in basis.items():
            terms[(i, j)] = terms.get((i, j), 0) + c * b
    return Polynomial(2, terms)


def test_eval_row_matches_the_per_point_horner_reference():
    # rows whose classes are shorter and longer than 4 * (D + 2) points, from negative mu
    rng = random.Random(31)
    for _ in range(150):
        p, r = rng.randint(1, 4), rng.randint(1, 4)
        lattice = Lattice(((p, rng.randrange(r)), (0, r)))
        q = QuasiPolynomial(lattice, {res: _random_piece(rng) for res in lattice.residues()})
        t, lo = rng.randint(-3, 6), rng.randint(-40, 10)
        hi = lo + rng.randint(-1, lattice.row_period * rng.choice((3, 12, 25)))
        try:
            want = qp_eval_row_reference(q, t, lo, hi)
        except FitError as exc:
            with pytest.raises(FitError, match=re.escape(str(exc))):
                q.eval_row(t, lo, hi)
        else:
            assert q.eval_row(t, lo, hi) == want


def test_fit_c1_reproduces_closed_form():
    q1 = fitted(0)
    closed = closed_form_c1_qp()
    for t in range(0, 25):
        for mu in range(2 * t, 3 * t + 1):
            assert q1.eval((mu, t)) == closed.eval((mu, t))
    # pieces with equal (mu - 2t) mod 4 coincide as polynomials
    groups = {}
    for res, piece in q1.pieces.items():
        groups.setdefault((res[0] - 2 * res[1]) % 4, set()).add(
            frozenset(piece.terms.items())
        )
    assert all(len(v) == 1 for v in groups.values())
    assert len(groups) == 4


def test_fit_c2_matches_closed_form_pointwise():
    q2 = fitted(1)
    for t in range(0, 25):
        for mu in range(3 * t, 6 * t + 1):
            assert q2.eval((mu, t)) == Q_formula(mu, t)


def test_fit_matches_count_on_closure_bound_50():
    for idx, (lo, hi) in enumerate([(2, 3), (3, 6)]):
        q = fitted(idx)
        for t in range(0, 51):
            for mu in range(lo * t, min(hi * t, 50) + 1):
                if mu <= 50:
                    assert q.eval((mu, t)) == count(RING, (mu, t))


def test_fit_degree_bound():
    for idx in (0, 1):
        for piece in fitted(idx).pieces.values():
            assert piece.total_degree() <= RING.size - 2


def test_fit_chamber_lattice_variant():
    # fitting over the chamber's own lattice (det 4) instead of the global one
    q = fit_chamber_qp(RING, CHAMBERS[0], CHAMBERS[0].lattice)
    assert len(q.pieces) == 4
    for t in range(0, 30):
        for mu in range(2 * t, 3 * t + 1):
            assert q.eval((mu, t)) == count(RING, (mu, t))


def test_fit_rejects_a_grading_that_is_not_bigraded():
    # columns (2,1), (1,2), (1,1): a planar grading with no bigraded chambers;
    # a single distinct degree has no chamber either
    square = lattice_from_columns([(1, 0), (0, 1)])
    chamber = Chamber(generators=((1, 1), (2, 1)), index_set=(), lattice=square)
    for A in (DegreeMatrix.from_columns([(2, 1), (1, 2), (1, 1)]), DegreeMatrix.bigraded([5, 5])):
        with pytest.raises(ValueError, match="bigraded"):
            fit_chamber_qp(A, chamber, square)


@pytest.mark.parametrize(
    "degrees", [(2, 3, 6), (1, 10), (1, 1000), (4, 9, 13), (0, 3, 5)],
    ids=["2,3,6", "1,10", "1,1000", "4,9,13", "0,3,5"],
)
def test_window_points_are_the_low_points_of_the_closed_chamber(degrees):
    for chamber in chamber_complex_2xn(degrees):
        rows = list(_sweep_rows(chamber))
        top = rows[-1][0]
        # top is the least 4 * 2^k with (hi - lo) * top^2 >= 2048
        width = chamber.generators[1][0] - chamber.generators[0][0]
        assert top in [4 << k for k in range(10)]
        assert width * top * top >= 2048 and (top == 4 or width * top * top < 4 * 2048)
        box = range(-3, chamber.generators[1][0] * top + 4)
        expected = [
            (y, x) for y in range(-3, top + 1) for x in box
            if all(h[0] * x + h[1] * y >= 0 for h in chamber.inequalities)
        ]
        assert [(y, x) for y, lo, hi in rows for x in range(lo, hi + 1)] == expected


@pytest.mark.parametrize("degrees", [(2, 3, 6), (1, 1000)], ids=["2,3,6", "1,1000"])
def test_apex_sweep_rejects_a_count_off_the_pattern(monkeypatch, degrees):
    # the sweep compares the fit with count_row on the first 4096 points of
    # the apex window, row by row.  The (1, 1000) window has 9995 points.
    A = DegreeMatrix.bigraded(degrees)
    chamber = chamber_complex_2xn(degrees)[-1]
    window = [(x, y) for y, lo, hi in _sweep_rows(chamber) for x in range(lo, hi + 1)]
    swept, rows = window[:4096], []

    def recording_count_row(A, t, lo, hi):
        rows.extend((x, t) for x in range(lo, hi + 1))
        return count_row(A, t, lo, hi)

    monkeypatch.setattr(quasipoly, "count_row", recording_count_row)
    fit_chamber_qp(A, chamber, chamber.lattice)
    assert rows == swept

    def fit_with_one_count_off(target):
        def perturbed_count_row(A, t, lo, hi):
            row = count_row(A, t, lo, hi)
            if t == target[1] and lo <= target[0] <= hi:
                row[target[0] - lo] += 1
            return row

        monkeypatch.setattr(quasipoly, "count_row", perturbed_count_row)
        return fit_chamber_qp(A, chamber, chamber.lattice)

    for target in (swept[0], swept[-1]):
        with pytest.raises(FitError, match=re.escape(f"boundary sweep failed at {target}")):
            fit_with_one_count_off(target)
    # a point past the first 4096 is never compared
    beyond = window[4096:]
    assert len(window) == 9995 if degrees == (1, 1000) else len(window) < 4096
    if beyond:
        fit_with_one_count_off(beyond[0])


def test_fit_wrong_lattice_rejected():
    # too coarse a lattice cannot carry the second-chamber pieces
    coarse = lattice_from_columns([(1, 0), (0, 1)])
    with pytest.raises(FitError):
        fit_chamber_qp(RING, CHAMBERS[1], coarse)


def test_piece_selection_depends_only_on_residue():
    q1 = fitted(0)
    rng = random.Random(5)
    for _ in range(200):
        u = (rng.randint(-30, 60), rng.randint(-10, 20))
        lam = rng.choice(GLOBAL.basis)
        k = rng.randint(-3, 3)
        shifted = tuple(a + k * b for a, b in zip(u, lam))
        assert q1.piece_at(u)[0] == q1.piece_at(shifted)[0]


def test_shift_identity():
    q1 = fitted(0)
    s = q1.shift((0, 0), 1)
    assert s == q1
    with pytest.raises(ValueError, match="dimension mismatch"):
        q1.shift((1, 2, 0))


def test_shift_contract_pointwise():
    q1 = fitted(0)
    s = q1.shift((5, 1), 1)
    assert s.eval((28, 10)) == q1.eval((23, 9)) == 2
    rng = random.Random(9)
    for _ in range(1000):
        a = (rng.randint(-6, 6), rng.randint(-3, 3))
        c = rng.choice([1, -1, 2, Fraction(1, 2)])
        moved = q1.shift(a, c)
        u = (rng.randint(-20, 40), rng.randint(-8, 15))
        assert moved.eval(u) == c * q1.eval((u[0] - a[0], u[1] - a[1]))


def test_shift_negation():
    q1 = fitted(0)
    neg = q1.shift((0, 0), -1)
    for u in [(0, 0), (7, 3), (23, 9)]:
        assert neg.eval(u) == -q1.eval(u)


def test_add_zero_and_cancel():
    q1 = fitted(0)
    zero = QuasiPolynomial(GLOBAL, {})
    assert q1.add(zero) == q1
    cancel = q1.add(q1.shift((0, 0), -1))
    assert all(p.is_zero() for p in cancel.pieces.values())


def test_add_signed_sum_worked_example():
    # P1 + P2 + P3 - P4: the first-chamber fit at the point minus each syzygy shift
    q1 = fitted(0)
    terms = [((5, 1), 1), ((8, 1), 1), ((9, 1), 1), ((11, 2), -1)]
    total = sum(c * q1.eval((28 - a[0], 10 - a[1])) for a, c in terms)
    # 2 + 1 + 1 - 1 from four oracle counts
    assert total == 3


def test_add_lattice_mismatch():
    q1 = fitted(0)
    other = fit_chamber_qp(RING, CHAMBERS[0], CHAMBERS[0].lattice)
    with pytest.raises(ValueError, match="different lattices"):
        q1.add(other)
