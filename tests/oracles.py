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
numerator's binomial sum the library returns, with solve_exact, a
Gauss-Jordan elimination in Fractions that criterion 6 also uses and the
library has no counterpart of.  matmul_reference and det_reference (a
Laplace expansion) check Hermite normal forms with no library code, and
full_row_rank_reference decides through det_reference which matrices a
Hermite normal form must reject.  stability_threshold_reference meets every
pair of half-lines in Fractions, apart from the library's closed form over
degree pairs.  koszul_betti_reference computes the Betti numbers of the
powers of a monomial complete intersection from reduced homology ranks of
simplicial complexes over Q, with no count table, wave or shift table.
qp_eval_row_reference, decomposition_row_reference and
series_identity_reference are the row evaluators and the series identity as
they were before the row path was batched: Horner at every point of a class,
one fit-row read per strip and term, and the product over the whole box.
value_rows_reference builds value rows as they were before each row's span
was a running extremum, by a pass over the terms for every row.
lattice_from_columns spans planar vectors through the library's column
Hermite normal form, lattice_intersect_reference intersects two lattices
through the relations between their generators, and
chamber_lattices_reference and global_lattice_reference fold pair lattices
by them, the construction the closed forms replaced.  The
closed-form fixtures reproduce the traditionally quoted piecewise tables for
the worked example with generator degrees (2, 3, 6); the first-syzygy table
is kept verbatim, including its two known defects, so tests can pin down
exactly where the oracle disagrees.
"""

import functools
import itertools
import math
from fractions import Fraction
from operator import add, index, mul, sub

from vpfbetti import kernels
from vpfbetti.chambers import chamber_complex_2xn, global_lattice
from vpfbetti.counting import DegreeMatrix
from vpfbetti.hilbert import _padded
from vpfbetti.lattices import Lattice, RankError, hnf
from vpfbetti.quasipoly import FitError, Polynomial, fit_chamber_qp
from vpfbetti.regions import TOTAL_BETTI_CHECKS, BelowThresholdError, eval_row, row_support


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


def solve_exact(matrix_rows, rhs):
    """Solve M x = b exactly over Q by Gauss-Jordan elimination in Fractions.

    Returns a tuple of Fractions, or None when the system is inconsistent.
    For underdetermined consistent systems the free variables of the reduced
    system are set to zero.
    """
    m = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix_rows, rhs)]
    n = len(m[0]) - 1 if m else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    if any(row[n] != 0 for row in m[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(m, pivots):
        x[c] = row[n]
    return tuple(x)


def matmul_reference(a, b):
    """Product of two integer matrices given as tuples of rows."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def det_reference(rows):
    """Determinant by Laplace expansion along the rows, with no division.

    The minor on rows i.. and a set of columns is memoised, so this is the
    Leibniz sum over permutations regrouped, in n * 2^n steps.
    """
    n = len(rows)

    @functools.cache
    def minor(i, cols):
        if i == n:
            return 1
        return sum(
            (-1) ** k * rows[i][c] * minor(i + 1, cols[:k] + cols[k + 1:])
            for k, c in enumerate(cols)
            if rows[i][c]
        )

    return minor(0, tuple(range(n)))


def full_row_rank_reference(rows):
    """Whether a d x n integer matrix has rank d: some d x d column minor is nonzero."""
    d, n = len(rows), len(rows[0])
    return any(
        det_reference([[row[c] for c in cols] for row in rows])
        for cols in itertools.combinations(range(n), d)
    )


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


def qp_eval_row_reference(q, t, lo, hi):
    """QuasiPolynomial.eval_row by an integer Horner loop at every point of every class."""
    residue, m = q.lattice._residue, q.lattice.row_period
    out = [0] * max(hi - lo + 1, 0)
    for first in range(lo, min(lo + m, hi + 1)):
        poly = q.pieces[residue(first, t)]
        top = max(poly._nums, default=(0,))[0]
        coeffs = [0] * (top + 1)
        for (i, j), n in poly._nums.items():
            coeffs[top - i] += n * t**j
        for mu in range(first, hi + 1, m):
            acc = 0
            for c in coeffs:
                acc = acc * mu + c
            value, rest = divmod(acc, poly.den)
            if rest:
                value = Fraction(acc, poly.den)
                raise FitError(f"non-integer piece value {value} at {(mu, t)}")
            out[mu - lo] = value
    return out


def decomposition_row_reference(dec, t, lo, hi):
    """regions.eval_row by one qp_eval_row_reference read per strip and term of the row."""
    if t < dec.t0:
        raise BelowThresholdError(
            f"t = {t} is below the stability threshold {dec.t0}; use hf_module"
        )
    if dec.degenerate:
        return [eval_betti_reference(dec, mu, t) for mu in range(lo, hi + 1)]
    out = [0] * max(hi - lo + 1, 0)
    vals = [line.value(t) for line in dec.lines]
    last = len(dec.regions) - 1
    for i, region in enumerate(dec.regions):
        start = max(vals[i], lo)
        stop = min(vals[i + 1] + (i == last), hi + 1)
        if start >= stop:
            continue
        for idx, (a_mu, a_t), c in region.terms:
            row = qp_eval_row_reference(dec.fits[idx], t - a_t, start - a_mu, stop - 1 - a_mu)
            part = out[start - lo:stop - lo]
            out[start - lo:stop - lo] = [v + c * w for v, w in zip(part, row)]
    return out


def series_identity_reference(kappa, g, lo):
    """The series identity, each factor multiplied over the whole box; g is consumed."""
    h, w = len(g), len(g[0]) if g else 0
    for d in kappa.ring.degrees:
        if d < w:
            for i in range(h - 1, 0, -1):
                g[i][d:] = list(map(sub, g[i][d:], g[i - 1]))
    want = [[0] * w for _ in g]
    for (a_mu, a_t), c in kappa.terms:
        if a_mu - lo[0] < w and a_t - lo[1] < h:
            want[a_t - lo[1]][a_mu - lo[0]] = c
    return g == want


def value_rows_reference(kappa, lo, hi):
    """hilbert._value_rows with each row's span a pass over the live terms, twice a row."""
    if not kappa.ring.is_bigraded():
        raise ValueError("value grids require a bigraded ring")
    (mu0, t0), (mu1, t1) = lo, hi
    e_min, e_max = min(kappa.ring.degrees), max(kappa.ring.degrees)

    def span(t):
        live = [(a_mu, t - a_t) for (a_mu, a_t), _ in kappa.terms if a_t <= t]
        start = max(mu0, min((a + e_min * s for a, s in live), default=mu0))
        stop = min(mu1, max((a + e_max * s for a, s in live), default=mu0 - 1))
        return start, max(stop - start + 1, 0)

    kernels.check_cells(max(t1 - t0 + 1, 0), "value rows, one cell or more per height,")
    for t, cells in enumerate(itertools.accumulate(max(span(t)[1], 1) for t in range(t0, t1 + 1)), t0):
        kernels.check_cells(cells, f"value rows to t={t}")
    rows = [(start, [0] * n) for start, n in map(span, range(t0, t1 + 1))]
    if not any(values for _, values in rows):
        return rows
    reach_mu = mu1 - min(a[0] for a in kappa.shifts)
    reach_t = t1 - min(a[1] for a in kappa.shifts)
    table = kernels.bigraded_table(kappa.ring.degrees, max(reach_t, 0), max(reach_mu, 0))
    for (a_mu, a_t), c in kappa.terms:
        op = add if c > 0 else sub
        for t in range(max(t0, a_t), t1 + 1):
            s = t - a_t
            start, values = rows[t - t0]
            part = _padded(a_mu + e_min * s, table[s], start, start + len(values) - 1)
            values[:] = map(op, values, part if abs(c) == 1 else map(mul, itertools.repeat(abs(c)), part))
    return rows


def lattice_from_columns(vectors):
    """Integer span of the given planar vectors, by the column Hermite normal form.

    They must span Q^2: RankError otherwise.
    """
    vecs = [tuple(index(x) for x in v) for v in vectors]
    if not vecs:
        raise RankError("no generators")
    if any(len(v) != 2 for v in vecs):
        raise ValueError("lattice generators must have two coordinates")
    H, _ = hnf(zip(*vecs))  # RankError when the span is a line
    return Lattice(basis=((H[0][0], H[1][0]), (0, H[1][1])))


def lattice_intersect_reference(L1, L2):
    """Intersection of two planar lattices by the HNF of their four generators.

    The columns of U under zero columns of H span the relations between the
    generators; their L1 halves give the common vectors.
    """
    (p, q), (_, r) = L1.basis
    gen = list(L1.basis) + [(-x, -y) for x, y in L2.basis]
    H, U = hnf(zip(*gen))
    vectors = [
        (a * p, a * q + b * r)
        for (a, b, _, _), h in zip(zip(*U), zip(*H))
        if h == (0, 0)
    ]
    return lattice_from_columns(vectors)


def _pair_fold_reference(pairs):
    lattice = None
    for a, b in pairs:
        piece = lattice_from_columns([(a, 1), (b, 1)])
        lattice = piece if lattice is None else lattice_intersect_reference(lattice, piece)
    return lattice


def chamber_lattices_reference(degrees):
    """Each chamber's lattice, in chamber order: the pair lattices around it, folded by HNF."""
    distinct = sorted(set(degrees))
    return [
        _pair_fold_reference((a, b) for a in distinct if a <= lo for b in distinct if b >= hi)
        for lo, hi in zip(distinct, distinct[1:])
    ]


def global_lattice_reference(degrees):
    """The pair lattices of all pairs of distinct degrees, folded by HNF."""
    return _pair_fold_reference(itertools.combinations(sorted(set(degrees)), 2))


def _rank(rows):
    """Rank over Q of an integer matrix, by Gaussian elimination in Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@functools.cache
def _reduced_homology_ranks(faces, r):
    """dim H~_{k-1} over Q for k = 0..r of the simplicial complex of these faces.

    Faces are sorted tuples of vertices, the empty face among them unless the
    complex is void; a face of k vertices is a (k - 1)-chain.
    """
    by_size = [[f for f in faces if len(f) == k] for k in range(r + 2)]
    ranks = [0]  # of the boundary from k-vertex chains to (k - 1)-vertex chains
    for k in range(1, r + 2):
        lower = {f: n for n, f in enumerate(by_size[k - 1])}
        matrix = [[0] * len(lower) for _ in by_size[k]]
        for row, f in zip(matrix, by_size[k]):
            for m in range(k):
                row[lower[f[:m] + f[m + 1:]]] = (-1) ** m
        ranks.append(_rank(matrix))
    return [len(by_size[k]) - ranks[k] - ranks[k + 1] for k in range(r + 1)]


def koszul_betti_reference(degrees, t):
    """{mu: [beta_0, ..., beta_r]} of I^t for I = (x_1^{d_1}, ..., x_r^{d_r}), t >= 0.

    beta_{i,b}(I^t) = dim H~_{i-1}(K^b(I^t); Q), where the upper Koszul
    complex K^b(I^t) holds the squarefree F with x^{b - F} in I^t
    (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34), and x^c
    lies in I^t iff sum_j floor(c_j / d_j) >= t.  Only the lcm-lattice
    degrees b = (alpha_1 d_1, ..., alpha_r d_r) carry Betti numbers, and
    beta_{i,mu} sums them over alpha . d = mu.  K^b is void when |alpha| < t
    (x^b is not in I^t) and is the full simplex on supp alpha, which is
    acyclic, when |alpha| >= t + r; so only t <= |alpha| < t + r is read.
    Degrees with no Betti number are left out.
    """
    r = len(degrees)
    out = {}
    for n in range(t, t + r):
        for cut in itertools.combinations(range(n + r - 1), r - 1):  # stars and bars
            alpha = [b - a - 1 for a, b in zip((-1, *cut), (*cut, n + r - 1))]
            b = [a * d for a, d in zip(alpha, degrees)]
            faces = tuple(
                face
                for k in range(r + 1)
                for face in itertools.combinations(range(r), k)
                if all(b[j] for j in face)
                and sum((b[j] - (j in face)) // d for j, d in enumerate(degrees)) >= t
            )
            ranks = _reduced_homology_ranks(faces, r)
            if any(ranks):
                total = out.setdefault(sum(b), [0] * (r + 1))
                out[sum(b)] = [x + y for x, y in zip(total, ranks)]
    return out


def stability_threshold_reference(shifts, degrees):
    """The largest height at which two half-lines mu = d*t + b meet, at least 1.

    Every line through a shift point (mu, t) with a slope among the degrees
    meets every other line of another slope; no pair is skipped.
    """
    lines = [(d, mu - d * t) for mu, t in shifts for d in sorted(set(degrees))]
    best = Fraction(0)
    for (d1, b1), (d2, b2) in itertools.combinations(lines, 2):
        if d1 != d2:
            best = max(best, Fraction(b2 - b1, d1 - d2))
    return max(1, math.ceil(best))


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
