"""Canonical structured rendering shared by the CLI, file formats, and reports.

Rationals are rendered reduced as "p/q" (or "p"), keys are sorted, and all
emitters are deterministic: identical inputs give byte-identical documents.
Polynomials are read as integer numerators over their `den`; no Fraction is
built while rendering.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm

from .lattices import Lattice
from .quasipoly import Polynomial
from .regions import RegionDecomposition


def _ratio(n: int, den: int) -> str:
    """n / den reduced, as "p/q" or "p"; den > 0."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def poly_dict(p: Polynomial) -> dict:
    nums, den = p._nums, p.den
    return {
        "terms": [
            {"exp": list(exp), "coeff": _ratio(nums[exp], den)} for exp in sorted(nums)
        ]
    }


def poly_str(p: Polynomial, names) -> str:
    """Human-readable rendering like '1/4*mu - 1/2*t + 1'."""
    nums, den = p._nums, p.den
    if not nums:
        return "0"
    bits = []
    for exp in sorted(nums, key=lambda e: (-sum(e), tuple(-x for x in e))):
        n = nums[exp]
        mono = "*".join(
            f"{names[i]}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exp)
            if e
        )
        if mono:
            if n == den:
                bits.append(mono)
            elif n == -den:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{_ratio(n, den)}*{mono}")
        else:
            bits.append(_ratio(n, den))
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
    once, with QuasiPolynomial.shift, and its column (its piece at every
    global residue) is built once; regions are yielded one at a time.
    """
    columns = {}
    residues = sorted(dec.lattice.residues()) if dec.regions else ()
    for region in dec.regions:
        for term in region.terms:
            if term not in columns:
                idx, a, c = term
                q = dec.fits[idx].shift(a, c)
                pieces, reduce = q.pieces, q.lattice.reduce
                columns[term] = [pieces[reduce(res)] for res in residues]
        cols = [columns[term] for term in region.terms]
        yield region, [(res, _sum_pieces(parts)) for res, *parts in zip(residues, *cols)]


def _sum_pieces(parts) -> Polynomial:
    """The sum of planar polynomials, as integer numerators over the lcm of their dens."""
    den = lcm(*(p.den for p in parts))
    nums = {}
    for p in parts:
        f = den // p.den
        for e, n in p._nums.items():
            nums[e] = nums.get(e, 0) + n * f
    return Polynomial._from_ints(2, den, nums)


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
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", written directly.

    Dicts need str keys.  A value that is not a dict, list, tuple, str, int,
    float, bool or None raises TypeError, as json.dumps does.
    """
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, nl: str, out: list) -> None:
    """Append obj's canonical JSON to out; nl is the newline and indent before obj's items."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        if all(type(x) is int for x in obj):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]")
            return
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def line_str(slope: int, intercept: int) -> str:
    if intercept == 0:
        return f"mu = {slope}t"
    sign = "+" if intercept > 0 else "-"
    return f"mu = {slope}t {sign} {abs(intercept)}"
