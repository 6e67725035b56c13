"""Canonical structured rendering shared by the CLI, file formats, and reports.

Rationals are rendered reduced as "p/q" (or "p"), keys are sorted, and all
emitters are deterministic: identical inputs give byte-identical documents.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .lattices import Lattice
from .quasipoly import Polynomial
from .regions import RegionDecomposition


def frac_str(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def poly_dict(p: Polynomial) -> dict:
    terms = p.terms
    return {
        "terms": [
            {"exp": list(exp), "coeff": frac_str(terms[exp])} for exp in sorted(terms)
        ]
    }


def poly_str(p: Polynomial, names) -> str:
    """Human-readable rendering like '1/4*mu - 1/2*t + 1'."""
    terms = p.terms
    if not terms:
        return "0"
    bits = []
    for exp in sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        coeff = terms[exp]
        mono = "*".join(
            f"{names[i]}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exp)
            if e
        )
        if mono:
            if coeff == 1:
                bits.append(mono)
            elif coeff == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{frac_str(coeff)}*{mono}")
        else:
            bits.append(frac_str(coeff))
    out = bits[0]
    for b in bits[1:]:
        out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
    return out


def lattice_dict(L: Lattice) -> dict:
    return {"basis": [list(b) for b in L.basis], "det": L.det}


def region_pieces(dec: RegionDecomposition):
    """Each region of dec with its sorted (residue, Polynomial) pieces over dec.lattice.

    A region's value is the signed sum of its terms' shifted chamber fits.
    The global lattice refines every chamber lattice, so each of its
    residues sums one piece of every term.  Each distinct term is shifted
    once, with QuasiPolynomial.shift; regions are yielded one at a time.
    """
    shifted = {}
    residues = sorted(dec.lattice.residues()) if dec.regions else ()
    for region in dec.regions:
        for idx, a, c in region.terms:
            if (idx, a, c) not in shifted:
                shifted[idx, a, c] = dec.fits[idx].shift(a, c)
        parts = [shifted[term] for term in region.terms]
        yield region, [
            (res, sum((q.pieces[q.lattice.reduce(res)] for q in parts), Polynomial.zero(2)))
            for res in residues
        ]


def line_dict(line) -> dict:
    return {
        "slope": line.slope,
        "intercept": line.intercept,
        "through": list(line.through),
    }


def decomposition_dict(dec: RegionDecomposition) -> dict:
    out = {
        "t0": dec.t0,
        "modulus": dec.modulus,
        "degrees": list(dec.degrees),
        "lines": [line_dict(line) for line in dec.lines],
    }
    if dec.lattice is not None:
        out["lattice"] = lattice_dict(dec.lattice)
    if dec.degenerate:
        out["rays"] = [
            {"intercept": b, "poly": poly_dict(p)}
            for b, p in sorted(dec.ray_pieces.items())
        ]
    else:
        out["regions"] = [
            {"lower": r.lower, "upper": r.upper, "pieces": [
                {"residue": list(res), "poly": poly_dict(p)} for res, p in pieces
            ]}
            for r, pieces in region_pieces(dec)
        ]
    return out


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def line_str(slope: int, intercept: int) -> str:
    if intercept == 0:
        return f"mu = {slope}t"
    sign = "+" if intercept > 0 else "-"
    return f"mu = {slope}t {sign} {abs(intercept)}"
