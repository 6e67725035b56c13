"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
import warnings
from fractions import Fraction

from oracles import (
    beta0_printed,
    beta1_printed,
    beta2_printed,
    ring_hilbert_closed_form,
    solve_exact,
)
from vpfbetti.chambers import chamber_complex_2xn, global_lattice
from vpfbetti.counting import DegreeMatrix, count
from vpfbetti.hilbert import DataIntegrityWarning, KappaNumerator, hf_module, series_identity_check
from vpfbetti.quasipoly import fit_chamber_qp
from vpfbetti.rees import SpecFormatError, ci_shifts, ingest
from vpfbetti.regions import (
    eval_betti,
    region_decomposition,
    sort_lines,
    stability_threshold,
    total_betti_polynomial,
)

RING = DegreeMatrix.bigraded([2, 3, 6])
SPEC = ci_shifts((2, 3, 6))


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


def test_criterion_1_ring_hilbert_function():
    start = time.perf_counter()
    chambers = chamber_complex_2xn([2, 3, 6])
    lattice = global_lattice([2, 3, 6])
    fits = [fit_chamber_qp(RING, c, lattice) for c in chambers]
    points = 0
    for t in range(1, 41):
        for mu in range(2 * t, 6 * t + 1):
            expected = count(RING, (mu, t))
            located = [i for i, c in enumerate(chambers) if c.contains((mu, t))]
            for i in located:
                assert fits[i].eval((mu, t)) == expected, (mu, t)
            assert ring_hilbert_closed_form(mu, t) == expected, (mu, t)
            points += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"fitted pieces = oracle = closed form on {points} points ({elapsed:.2f}s)")


def test_criterion_2_betti_tables():
    start = time.perf_counter()
    decs = {i: region_decomposition(SPEC.tor(i)) for i in (0, 1, 2)}
    checked = 0
    for i, dec in decs.items():
        kappa = SPEC.tor(i)
        for t in range(dec.t0, 41):
            lo = dec.lines[0].value(t) - 5
            hi = dec.lines[-1].value(t) + 5
            for mu in range(lo, hi + 1):
                assert eval_betti(dec, mu, t) == hf_module(kappa, (mu, t)), (i, mu, t)
                checked += 1

    # printed-table comparison for the first syzygies, t >= 5
    dec1 = decs[1]
    divergences = set()
    for t in range(5, 41):
        lo = dec1.lines[0].value(t) - 5
        hi = dec1.lines[-1].value(t) + 5
        for mu in range(lo, hi + 1):
            truth = hf_module(SPEC.tor(1), (mu, t))
            printed = beta1_printed(mu, t)
            if printed != truth:
                divergences.add((mu - 6 * t, ))
                # our evaluation must still match the oracle there
                assert eval_betti(dec1, mu, t) == truth
    # divergence 1: the '(Q2 + Q2)' strip, visible at mu = 6t and at the
    # mu = 6t + 2 gap its strict inequalities leave uncovered
    assert divergences == {(0,), (2,)}

    # divergence 2: the (8, -1) shift-sign variant puts support at power 0
    variant = KappaNumerator.from_terms(
        RING, [((5, 1), 1), ((8, -1), 1), ((9, 1), 1), ((11, 2), -1)]
    )
    assert hf_module(variant, (10, 0)) == 1  # impossible for a first syzygy of I^0
    assert hf_module(SPEC.tor(1), (10, 0)) == 0
    try:
        ingest(
            {
                "generators": [[2, 1], [3, 1], [6, 1]],
                "tor": [{"index": 1, "shifts": [{"a": [8, -1], "c": 1}]}],
            }
        )
        raise AssertionError("negative T-degree shift must be rejected")
    except SpecFormatError:
        pass

    # sanity: the other two printed tables agree with the oracle everywhere
    for table, index in ((beta0_printed, 0), (beta2_printed, 2)):
        dec = decs[index]
        for t in range(dec.t0, 41):
            lo = dec.lines[0].value(t) - 5
            hi = dec.lines[-1].value(t) + 5
            for mu in range(lo, hi + 1):
                assert table(mu, t) == hf_module(SPEC.tor(index), (mu, t))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        2,
        f"oracle equivalence on {checked} points; printed first-syzygy table "
        f"diverges exactly on mu - 6t in {{0, 2}} (the '(Q2+Q2)' strip) and the "
        f"(8,-1) shift sign is refuted by support at power 0 ({elapsed:.2f}s)",
    )


def test_criterion_3_support_bounds():
    for i in (0, 1, 2):
        dec = region_decomposition(SPEC.tor(i))
        kappa = SPEC.tor(i)
        for t in range(dec.t0, 41):
            lo = dec.lines[0].value(t)
            hi = dec.lines[-1].value(t)
            assert eval_betti(dec, lo, t) > 0, (i, t)
            assert eval_betti(dec, hi, t) > 0, (i, t)
            for mu in (lo - 5, lo - 2, lo - 1, hi + 1, hi + 2, hi + 5):
                assert eval_betti(dec, mu, t) == 0
                assert hf_module(kappa, (mu, t)) == 0
    report(3, "support is exactly [L0(t), Lm(t)] with nonzero endpoints, t0..40")


def test_criterion_4_degree_bound_random_matrices():
    start = time.perf_counter()
    # Uniform draws filtered by chamber lattice det: a fit holds one piece per
    # residue class, and the heaviest chamber lattices (index up to ~10^6 for
    # n = 7, d <= 15) hold too many for a test, so those draws are skipped and
    # counted.
    DET_CAP = 2000
    rng = random.Random(20250810)
    done = skipped = 0
    sizes = []
    while done < 50:
        n = rng.randint(2, 7)
        degrees = sorted(rng.randint(1, 15) for _ in range(n))
        if len(set(degrees)) < 2:
            continue
        chambers = chamber_complex_2xn(degrees)
        if any(c.lattice.det > DET_CAP for c in chambers):
            skipped += 1
            continue
        done += 1
        sizes.append(n)
        A = DegreeMatrix.bigraded(degrees)
        for chamber in chambers:
            qp = fit_chamber_qp(A, chamber, chamber.lattice)
            assert all(
                piece.total_degree() <= n - 2 for piece in qp.pieces.values()
            ), degrees
            lo, hi = chamber.generators[0][0], chamber.generators[1][0]
            validated, t = 0, 1
            while validated < 200:
                for mu in range(lo * t, hi * t + 1):
                    if validated >= 200:
                        break
                    assert qp.eval((mu, t)) == count(A, (mu, t)), (degrees, mu, t)
                    validated += 1
                t += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        4,
        f"50 matrices (n counts {sorted(sizes)}), every piece within degree "
        f"n-2, 200 validation points per chamber; {skipped} draws with a chamber "
        f"det over {DET_CAP} skipped ({elapsed:.1f}s)",
    )


def test_criterion_5_eventual_polynomiality():
    n = RING.size
    for i in (0, 1, 2):
        dec = region_decomposition(SPEC.tor(i))
        poly = total_betti_polynomial(dec)  # checked on rows t0 .. t0 + n + 4 internally
        for t in range(dec.t0 + n + 1, 41):
            lo = dec.lines[0].value(t)
            hi = dec.lines[-1].value(t)
            total = sum(eval_betti(dec, mu, t) for mu in range(lo, hi + 1))
            assert poly.eval((t,)) == total, (i, t)
        if i == 0:
            for t in range(dec.t0 + n + 1, 41):
                assert poly.eval((t,)) == (t + 2) * (t + 1) // 2
    report(5, "eventual totals (the numerator's binomial sums) equal the row "
              "sums exactly to t = 40; index 0 equals C(t+2, 2)")


def test_criterion_6_line_ordering_randomized():
    rng = random.Random(1729)
    for _ in range(200):
        n_shifts = rng.randint(1, 4)
        shifts = [(rng.randint(0, 20), rng.randint(0, 20)) for _ in range(n_shifts)]
        degrees = sorted(rng.sample(range(1, 21), rng.randint(2, 5)))
        t0 = stability_threshold(shifts, degrees)

        # independent recomputation: intersection heights by direct solve
        lines = [(a, s[0] - a * s[1]) for s in shifts for a in degrees]
        best = Fraction(0)
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                (a1, b1), (a2, b2) = lines[i], lines[j]
                if a1 == a2:
                    continue
                sol = solve_exact([[a1, -1], [a2, -1]], [-b1, -b2])
                best = max(best, sol[0])
        assert t0 == max(1, -((-best.numerator) // best.denominator))

        sorted_lines = sort_lines(shifts, degrees, t0)
        for t in range(t0, t0 + 21):
            vals = [line.value(t) for line in sorted_lines]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            slopes = [line.slope for line in sorted_lines]
            assert slopes == sorted(slopes)  # slope blocks do not interleave
    report(6, "200 random instances: monotone sorted lines, contiguous slope "
              "blocks, determinant formula matches direct intersection heights")


def test_criterion_7_series_identity():
    cases = []
    for index, kappa in SPEC.tors:
        cases.append(((2, 3, 6), index, kappa))
    for degrees in ((1, 1), (2, 3), (4, 7)):
        for index, kappa in ci_shifts(degrees).tors:
            cases.append((degrees, index, kappa))
    for degrees, index, kappa in cases:
        assert series_identity_check(kappa, (60, 15)), (degrees, index)
    report(7, f"truncated numerator*series equals the value table up to "
              f"(60, 15) for {len(cases)} numerators")
