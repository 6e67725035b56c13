"""Resolution shift data: built-in complete-intersection families and file ingestion.

The package never computes resolutions from ideal generators.  For a
complete intersection on two or three generators the shifts of the Betti
numbers of its powers follow in closed form from their upper Koszul complexes
(`ci_shifts`); anything else is ingested from a strict JSON document (schema
below) so externally computed resolutions are analyzed by the same machinery.

Document schema (all fields required, unknown fields rejected):

    {
      "generators": [[d1, 1], [d2, 1], ...],
      "tor": [
        {"index": 0, "shifts": [{"a": [0, 0], "c": 1}]},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import combinations

from .counting import DegreeMatrix
from .hilbert import KappaNumerator
from .textfmt import dumps_canonical


class SpecFormatError(ValueError):
    """A shift document violates the schema; the message names the field."""


class UnsupportedRankError(ValueError):
    """Built-in shift generation covers 2 or 3 generators only."""


_UNIT_SHIFT = ((0, 0), 1)


@dataclass(frozen=True)
class ToriSpec:
    """Generator degrees plus one kappa numerator per homological index."""

    degrees: tuple[int, ...]
    tors: tuple[tuple[int, KappaNumerator], ...]

    @classmethod
    def build(cls, degrees, tor_terms: dict[int, list]) -> "ToriSpec":
        degrees = tuple(operator.index(d) for d in degrees)
        if any(d <= 0 for d in degrees):
            raise SpecFormatError("generators: degrees must be positive")
        if any(b < a for a, b in zip(degrees, degrees[1:])):
            raise SpecFormatError("generators: degrees must be sorted nondecreasing")
        ring = DegreeMatrix.bigraded(degrees)
        entries = []
        for index in sorted(tor_terms):
            if index < 0:
                raise SpecFormatError(f"tor[index={index}]: index must be nonnegative")
            kappa = KappaNumerator.from_terms(ring, tor_terms[index])
            for shift, _ in kappa.terms:
                if shift[1] < 0:
                    raise SpecFormatError(
                        f"tor[index={index}]: negative T-degree shift {list(shift)}"
                    )
            if index == 0 and kappa.terms != (_UNIT_SHIFT,):
                raise SpecFormatError(
                    "tor[index=0]: homological index 0 must be the unit shift (0,0) -> +1"
                )
            entries.append((index, kappa))
        return cls(degrees, tuple(entries))

    @property
    def ring(self) -> DegreeMatrix:
        return DegreeMatrix.bigraded(self.degrees)

    def tor(self, index: int) -> KappaNumerator | None:
        for i, kappa in self.tors:
            if i == index:
                return kappa
        return None


def ci_shifts(degrees) -> ToriSpec:
    """Shifts of the Betti numbers of the powers of a complete intersection, r = 2, 3.

    Index i holds beta_{i,(mu,t)}(I^t), I = (x_1^{d_1}, ..., x_r^{d_r}).  At
    b = alpha * d, K^b(I^t) (Miller-Sturmfels, Thm 1.34) is the simplex on
    S = supp alpha cut to faces of at most |alpha| - t vertices, so for t >= 1
    the alpha of support S, |S| > i, add C(|S| - 1, i) y^{-i} prod_{j in S} x^{d_j} y
    prod_{j not in S} (1 - x^{d_j} y) to kappa_i over the ring's prod_j (1 - x^{d_j} y).
    Each T, |T| > i, collects a |T|-th difference of s -> C(s - 1, i): the shift
    (sum_{j in T} d_j, |T| - i) with sign (-1)^{|T| - i - 1}.  Index 0 is the unit.
    """
    degrees = tuple(sorted(operator.index(d) for d in degrees))
    if any(d <= 0 for d in degrees):
        raise ValueError("generator degrees must be positive")
    if len(degrees) not in (2, 3):
        raise UnsupportedRankError(
            f"built-in shifts cover 2 or 3 generators, not {len(degrees)}; "
            "ingest externally computed shift data instead"
        )
    return ToriSpec.build(degrees, _koszul_terms(degrees))


def _koszul_terms(degrees) -> dict[int, list]:
    """The shifts of `ci_shifts` at every index, for any number of degrees."""
    terms = {0: [_UNIT_SHIFT]} | {i: [] for i in range(1, len(degrees))}
    for n in range(2, len(degrees) + 1):
        for subset in combinations(degrees, n):
            for i in range(1, n):
                terms[i].append(((sum(subset), n - i), (-1) ** (n - i - 1)))
    return terms


def to_document(spec: ToriSpec) -> dict:
    return {
        "generators": [[d, 1] for d in spec.degrees],
        "tor": [
            {
                "index": index,
                "shifts": [{"a": list(s), "c": c} for s, c in kappa.terms],
            }
            for index, kappa in spec.tors
        ],
    }


def serialize(spec: ToriSpec) -> str:
    """Canonical JSON text: sorted keys, reduced entries, newline-terminated."""
    return dumps_canonical(to_document(spec))


def _expect_keys(obj, keys, where):
    if not isinstance(obj, dict):
        raise SpecFormatError(f"{where}: expected an object")
    unknown = set(obj) - set(keys)
    if unknown:
        raise SpecFormatError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    missing = set(keys) - set(obj)
    if missing:
        raise SpecFormatError(f"{where}: missing field {sorted(missing)[0]!r}")


def _expect_int(value, where) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def ingest(document) -> ToriSpec:
    """Parse and validate a shift document (JSON text or a parsed mapping).

    Strict: unknown fields are rejected to catch typos in hand-written data;
    duplicate shift entries merge their coefficients.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SpecFormatError(f"invalid JSON: {exc}") from exc
    _expect_keys(document, ("generators", "tor"), "document")
    gens = document["generators"]
    if not isinstance(gens, list) or not gens:
        raise SpecFormatError("generators: expected a nonempty list")
    degrees = []
    for i, g in enumerate(gens):
        if not isinstance(g, list) or len(g) != 2:
            raise SpecFormatError(f"generators[{i}]: expected [degree, 1]")
        d = _expect_int(g[0], f"generators[{i}][0]")
        one = _expect_int(g[1], f"generators[{i}][1]")
        if one != 1:
            raise SpecFormatError(f"generators[{i}]: second component must be 1")
        degrees.append(d)
    tor = document["tor"]
    if not isinstance(tor, list):
        raise SpecFormatError("tor: expected a list")
    tor_terms: dict[int, list] = {}
    for i, entry in enumerate(tor):
        _expect_keys(entry, ("index", "shifts"), f"tor[{i}]")
        index = _expect_int(entry["index"], f"tor[{i}].index")
        if index in tor_terms:
            raise SpecFormatError(f"tor[{i}].index: duplicate homological index {index}")
        shifts = entry["shifts"]
        if not isinstance(shifts, list):
            raise SpecFormatError(f"tor[{i}].shifts: expected a list")
        terms = []
        for j, sh in enumerate(shifts):
            _expect_keys(sh, ("a", "c"), f"tor[{i}].shifts[{j}]")
            a = sh["a"]
            if not isinstance(a, list) or len(a) != 2:
                raise SpecFormatError(f"tor[{i}].shifts[{j}].a: expected [mu, t]")
            shift = (
                _expect_int(a[0], f"tor[{i}].shifts[{j}].a[0]"),
                _expect_int(a[1], f"tor[{i}].shifts[{j}].a[1]"),
            )
            coeff = _expect_int(sh["c"], f"tor[{i}].shifts[{j}].c")
            terms.append((shift, coeff))
        tor_terms[index] = terms
    return ToriSpec.build(degrees, tor_terms)
