"""Canonical structured rendering shared by the CLI, file formats, and reports.

Rationals are rendered reduced as "p/q" (or "p"), keys are sorted, and all
emitters are deterministic: identical inputs give byte-identical documents.
Polynomials are read as integer numerators over their `den`; no Fraction is
built while rendering.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

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


def rendered_pieces(dec: RegionDecomposition, render):
    """Each region of dec with its sorted (residue, render(piece)) pairs over dec.lattice.

    A region's value is the signed sum of its terms' shifted chamber fits.
    The global lattice refines every chamber lattice, so each of its
    residues sums one piece of every term.  Each distinct term is shifted
    once, with QuasiPolynomial.shift, and its column (its piece at every
    global residue) is built once; regions are yielded one at a time.
    Each distinct combination of term pieces, in any region, is summed and
    rendered once and yields the same rendered object.  Combinations are
    keyed by the pieces' ids, which stay unique because `columns` holds
    every piece.
    """
    columns = {}
    done = {}
    residues = sorted(dec.lattice.residues()) if dec.regions else ()
    for region in dec.regions:
        for term in region.terms:
            if term not in columns:
                idx, a, c = term
                q = dec.fits[idx].shift(a, c)
                pieces, reduce = q.pieces, q.lattice.reduce
                columns[term] = [pieces[reduce(res)] for res in residues]
        out = []
        for res, *parts in zip(residues, *(columns[term] for term in region.terms)):
            key = tuple(map(id, parts))
            hit = done.get(key)
            if hit is None:
                hit = done[key] = render(Polynomial._sum(2, parts))
            out.append((res, hit))
        yield region, out


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
                {"residue": list(res), "poly": poly} for res, poly in pieces
            ]}
            for r, pieces in rendered_pieces(dec, poly_dict)
        ]
    return out


def dumps_canonical(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", written directly.

    Dicts need str keys.  A value that is not a dict, list, tuple, str, int,
    float, bool or None raises TypeError, as json.dumps does.  A dict object
    that occurs again at the same indent is written once; its text is copied.
    """
    out = []
    _write(obj, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _write(obj, nl: str, out: list, seen: dict) -> None:
    """Append obj's canonical JSON to out; nl is the newline and indent before obj's items.

    seen maps (id, nl) of each dict written so far to the dict and the slice
    of out that holds its text; holding the dict keeps its id unique.
    """
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        here = (id(obj), nl)
        hit = seen.get(here)
        if hit is not None:
            out.append("".join(out[hit[1]:hit[2]]))
            seen[here] = (obj, len(out) - 1, len(out))
            return
        start = len(out)
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            _write(obj[key], inner, out, seen)
            sep = "," + inner
        out.append(nl + "}")
        seen[here] = (obj, start, len(out))
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
            _write(item, inner, out, seen)
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
