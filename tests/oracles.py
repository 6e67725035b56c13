"""Independent oracles used by the test suite.

brute_count enumerates solutions directly and shares no code with the
library's dynamic programs, poly_eval_reference evaluates a polynomial
term by term in Fractions, independently of the integer-numerator
representation the library stores, and eval_betti_reference evaluates a
region decomposition one point at a time by searching its strips and
summing its terms through the Fraction path QuasiPolynomial.eval, apart
from the library's integer row evaluator.  ring_fits_reference fits every
chamber of a ring up front over the global lattice, the eager path the
library's lazy own-lattice fits must agree with on every global residue.
region_pieces_reference sums a region's shifted terms coefficient by
coefficient in Fractions, apart from the integer-numerator sums textfmt
renders, and poly_dict_reference and poly_str_reference render a polynomial
from its Fraction coefficients.  total_betti_reference interpolates a
decomposition's row sums through a Vandermonde solve, apart from the
numerator's binomial sum the library returns.  The
closed-form fixtures reproduce the traditionally quoted piecewise tables for
the worked example with generator degrees (2, 3, 6); the first-syzygy table
is kept verbatim, including its two known defects, so tests can pin down
exactly where the oracle disagrees.
"""

from fractions import Fraction

from vpfbetti.chambers import chamber_complex_2xn, global_lattice
from vpfbetti.counting import DegreeMatrix
from vpfbetti.lattices import solve_exact
from vpfbetti.quasipoly import FitError, Polynomial, fit_chamber_qp
from vpfbetti.regions import TOTAL_BETTI_CHECKS, eval_row, row_support


def brute_count(columns, u):
    """Number of nonnegative integer combinations of the columns equal to u."""
    u = list(u)
    if any(x < 0 for x in u):
        return 0

    def rec(idx, rem):
        if idx == len(columns):
            return 1 if all(r == 0 for r in rem) else 0
        col = columns[idx]
        caps = [rem[i] // col[i] for i in range(len(rem)) if col[i] > 0]
        cap = min(caps) if caps else 0
        total = 0
        for k in range(cap + 1):
            total += rec(idx + 1, [r - k * c for r, c in zip(rem, col)])
        return total

    return rec(0, u)


def poly_eval_reference(coeffs, point):
    """Term-by-term Fraction evaluation of {exponent tuple: coefficient} at point."""
    total = Fraction(0)
    for exp, coeff in coeffs.items():
        v = Fraction(coeff)
        for x, e in zip(point, exp):
            if e:
                v *= Fraction(x) ** e
        total += v
    return total


def eval_betti_reference(dec, mu, t):
    """A decomposition's value at (mu, t), t >= t0, by a search over its strips.

    Half-open strips [L_i(t), L_{i+1}(t)), the last closed above; a
    single-degree decomposition carries one polynomial in t per ray
    mu = d*t + b.  A strip's term (i, a, c) adds c * fits[i].eval(u - a),
    each reducing its own residue class.
    """
    if dec.degenerate:
        poly = dec.ray_pieces.get(mu - dec.degrees[0] * t)
        value = Fraction(0) if poly is None else poly.eval((t,))
    else:
        vals = [line.value(t) for line in dec.lines]
        if not vals or mu < vals[0] or mu > vals[-1]:
            return 0
        idx = next(
            (i for i in range(len(vals) - 1) if vals[i] <= mu < vals[i + 1]),
            len(vals) - 2,  # mu == vals[-1]: the last strip is closed above
        )
        terms = dec.regions[idx].terms
        value = sum((c * dec.fits[i].eval((mu - a[0], t - a[1])) for i, a, c in terms), Fraction(0))
    assert value.denominator == 1, (value, mu, t)
    return int(value)


def ring_fits_reference(degrees):
    """Every chamber of the bigraded ring fitted over the global lattice, in chamber order."""
    degrees = sorted(degrees)
    ring = DegreeMatrix.bigraded(degrees)
    lattice = global_lattice(degrees)
    return [fit_chamber_qp(ring, c, lattice) for c in chamber_complex_2xn(degrees)]


def _fraction_sum(polys):
    coeffs = {}
    for p in polys:
        for e, c in p.terms.items():
            coeffs[e] = coeffs.get(e, 0) + c
    return Polynomial(2, coeffs)


def region_pieces_reference(dec):
    """(region, [(residue, Polynomial)]) for every region, each piece summed in Fractions."""
    residues = sorted(dec.lattice.residues()) if dec.regions else ()
    out = []
    for region in dec.regions:
        parts = [dec.fits[i].shift(a, c) for i, a, c in region.terms]
        out.append((region, [
            (res, _fraction_sum(q.pieces[q.lattice.reduce(res)] for q in parts))
            for res in residues
        ]))
    return out


def total_betti_reference(dec):
    """The polynomial of degree <= n through the row sums of dec at t0 .. t0 + n.

    n is the number of ring generators.  The fit is validated on the next
    TOTAL_BETTI_CHECKS rows and raises FitError on a mismatch.
    """
    n = dec.kappa.ring.size

    def row_sum(t):
        return sum(eval_row(dec, t, *row_support(dec, t)))

    ts = list(range(dec.t0, dec.t0 + n + 1))
    sol = solve_exact([[Fraction(t) ** k for k in range(n + 1)] for t in ts], [row_sum(t) for t in ts])
    poly = Polynomial(1, {(k,): c for k, c in enumerate(sol)})
    for t in range(dec.t0 + n + 1, dec.t0 + n + 1 + TOTAL_BETTI_CHECKS):
        if poly.eval((t,)) != row_sum(t):
            raise FitError(f"row sums are not one polynomial of degree <= {n} at t = {t}")
    return poly


def _fraction_str(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def poly_dict_reference(p):
    terms = p.terms
    return {"terms": [{"exp": list(e), "coeff": _fraction_str(terms[e])} for e in sorted(terms)]}


def poly_str_reference(p, names):
    """'1/4*mu - 1/2*t + 1' from the Fraction coefficients, highest degree first."""
    terms = p.terms
    if not terms:
        return "0"
    bits = []
    for exp in sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        coeff = terms[exp]
        mono = "*".join(names[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e)
        if not mono:
            bits.append(_fraction_str(coeff))
        elif coeff in (1, -1):
            bits.append(mono if coeff == 1 else f"-{mono}")
        else:
            bits.append(f"{_fraction_str(coeff)}*{mono}")
    out = bits[0]
    for b in bits[1:]:
        out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
    return out


def P_formula(x, y):
    """floor((x - 2y)/4) + 1; the first-chamber closed form."""
    return (x - 2 * y) // 4 + 1


def Q_formula(x, y):
    """The second-chamber closed form, split on divisibility of x - 3y by 3."""
    i = (x - 2 * y) % 4
    j = (x - 3 * y) % 3
    v = Fraction(6 * y - x + 4 * j - 3 * i, 12)
    if (x - 3 * y) % 3 == 0:
        v += 1
    return v


def ring_hilbert_closed_form(mu, t):
    """Three-branch closed form for the (2, 3, 6) bigraded ring, 2t <= mu <= 6t."""
    if mu <= 3 * t:
        return (mu - 2 * t) // 4 + 1
    if (mu - 3 * t) % 3 == 0:
        return (mu - 2 * t) // 4 - (mu - 3 * t) // 3 + 1
    return (mu - 2 * t) // 4 - (mu - 3 * t) // 3


def beta0_printed(mu, t):
    if 2 * t <= mu <= 3 * t:
        return P_formula(mu, t)
    if 3 * t < mu <= 6 * t:
        return Q_formula(mu, t)
    return 0


def beta1_printed(mu, t):
    """The traditionally quoted nine-case first-syzygy table, defects included.

    Known defects (both resolved against the counting oracle elsewhere):
    the '(Q2 + Q2)' row, and the gap at mu = 6t + 2 left by the strict
    inequalities of the last two rows.
    """
    P1 = lambda: P_formula(mu - 5, t - 1)
    P2 = lambda: P_formula(mu - 8, t - 1)
    P3 = lambda: P_formula(mu - 9, t - 1)
    P4 = lambda: P_formula(mu - 11, t - 2)
    Q1 = lambda: Q_formula(mu - 5, t - 1)
    Q2 = lambda: Q_formula(mu - 8, t - 1)
    Q3 = lambda: Q_formula(mu - 9, t - 1)
    Q4 = lambda: Q_formula(mu - 11, t - 2)
    if 2 * t + 3 <= mu < 2 * t + 6:
        return P1()
    if 2 * t + 6 <= mu < 2 * t + 7:
        return P1() + P2()
    if 2 * t + 7 <= mu < 3 * t + 2:
        return P1() + P2() + P3() - P4()
    if 3 * t + 2 <= mu < 3 * t + 5:
        return Q1() + P2() + P3() - P4()
    if 3 * t + 5 <= mu < 3 * t + 6:
        return Q1() + Q2() + P3() - P4()
    if 3 * t + 6 <= mu < 6 * t - 1:
        return Q1() + Q2() + Q3() - Q4()
    if 6 * t - 1 <= mu < 6 * t + 2:
        return Q2() + Q2()
    if 6 * t + 2 < mu <= 6 * t + 3:
        return Q3()
    return 0


def beta2_printed(mu, t):
    if 2 * t + 9 <= mu < 3 * t + 8:
        return P_formula(mu - 11, t - 1)
    if 3 * t + 8 <= mu <= 6 * t + 5:
        return Q_formula(mu - 11, t - 1)
    return 0
