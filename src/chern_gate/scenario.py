"""Scenario files: the JSON inputs that drive a lemma replay.

A scenario either describes a full pipeline run (Hodge diamond, sign
of c1, lattice grid, filters, literature facts) or a direct run over
explicit obstruction polynomials. The divisibility rule follows from
the lattice model, so a pipeline scenario may leave it out; one that
names a rule the model does not have is refused. Parsing is strict
and typed: every object rejects a key it does not define, every value
is read by a check of its field's type, so a float fails at its own
field (rationals travel as "p/q" strings, big integers as decimal
strings), and every error names the JSON path it was found at. The
vocabulary is declared where its types live: the lattice models'
parameters in ring.LATTICE_PARAMS, their bounds and rules in
search.LATTICE_BOUNDS and search.LATTICE_MODELS, the fact kinds and
their data keys in verify.FACT_KINDS.
"""

from __future__ import annotations

import json
import reprlib
import sys
from fractions import Fraction
from importlib import import_module
from math import isqrt

# CPython's builtin SHA-256 module imports without OpenSSL, which hashlib
# loads for the same digest. It is _sha2 from 3.12 on; naming it by version
# spares a failed import, which would search every entry of sys.path.
try:
    sha256 = import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:  # an interpreter built without the builtin modules
    from hashlib import sha256

from .report import _DECIMAL, parse_frac, parse_int_str
from .riemann_roch import HodgeDiamond, complete_invariants, invariants_from_diamond
from .ring import record
from .search import LATTICE_BOUNDS, LATTICE_MODELS, LatticeSpec
from .verify import FACT_KINDS, ExternalFact, IntPoly

__all__ = [
    "LEMMA_IDS",
    "FILTER_NAMES",
    "ScenarioError",
    "LemmaSpec",
    "parse_scenario",
]

LEMMA_IDS = ("2.1", "2.2", "3.1", "4.2", "A.1", "A.2", "A.3")
FILTER_NAMES = ("mod12", "ahat", "embedding-poly", "external-facts")
# Most grid points times values of r one scenario may ask the search for,
# and the most steps its Pell search may take: isqrt(3 * target), for the
# Riemann-Roch target of the scenario's Hodge diamond.
GRID_BUDGET = 100_000
# Highest degree of a polynomial given as input; the modulus scan of
# eliminate costs time in proportion to it.
MAX_DEGREE = 64


class ScenarioError(ValueError):
    """A scenario file problem, tagged with the JSON path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


@record
class LemmaSpec:
    lemma_id: str
    mode: str
    diamond: HodgeDiamond | None = None
    lattice: LatticeSpec | None = None
    r_bounds: tuple[int, int] | None = None
    k_lower: Fraction | None = None
    c14_max: int | None = None
    filters: tuple[str, ...] = ()
    facts: tuple[ExternalFact, ...] = ()
    polynomials: tuple[tuple[str, IntPoly], ...] = ()
    baseline_id: str | None = None
    input_sha256: str = ""


# JSON type -> its name in "expected ..." messages.
_JSON_TYPES = {dict: "object", list: "list", str: "string", int: "integer"}


def _expect(value, kind: type, path: str, nonempty: bool = False):
    """value, if it is a JSON value of type kind (and not "" or [] if nonempty)."""
    if isinstance(value, kind) and not isinstance(value, bool):
        # Strings reach the reports verbatim, so each must be printable ASCII.
        if kind is str and not (value.isascii() and value.isprintable()):
            raise ScenarioError(path, f"expected printable ASCII, got {ascii(value)}")
        if not (nonempty and value in ("", [])):
            return value
    name = ("nonempty " if nonempty else "") + _JSON_TYPES[kind]
    raise ScenarioError(path, f"expected {name}, got {reprlib.repr(value)}")


def _require(mapping: dict, key: str, path: str, kind=None, nonempty=False):
    """mapping[key], checked by _expect when kind is given."""
    if key not in mapping:
        raise ScenarioError(path, f"missing required key {key!r}")
    return mapping[key] if kind is None else _expect(mapping[key], kind, path, nonempty)


def _known_keys(mapping: dict, allowed, path: str, reason: str) -> None:
    """Reject, at its own path, the first key of mapping not in allowed."""
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"{path}.{key}" if path else key, reason)


def _parse_hodge(raw, path: str) -> HodgeDiamond:
    if not isinstance(raw, list) or len(raw) != 5:
        raise ScenarioError(path, "expected a 5x5 matrix")
    # One pass accepts rows of 5 ints (no bool) equal to their transpose
    # and to their Serre mirror; only a bad grid runs the checks below,
    # which name its first bad cell.
    if not (
        all(type(row) is list and len(row) == 5 for row in raw)
        and all(type(x) is int for row in raw for x in row)
        and raw == list(map(list, zip(*raw)))
        and raw == [row[::-1] for row in raw[::-1]]
    ):
        grid = []
        for p, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != 5:
                raise ScenarioError(f"{path}[{p}]", "expected a row of 5 integers")
            grid.append(
                [_expect(x, int, f"{path}[{p}][{q}]") for q, x in enumerate(row)]
            )
        for p in range(5):
            for q in range(p + 1, 5):
                if grid[p][q] != grid[q][p]:
                    raise ScenarioError(
                        f"{path}[{p}][{q}]",
                        f"h[{p}][{q}]={grid[p][q]} is not matched by "
                        f"h[{q}][{p}]={grid[q][p]}",
                    )
        # Serre duality: h^{p,q} = h^{4-p,4-q}. The cells before the centre
        # in row order meet every pair once.
        for cell in range(12):
            p, q = divmod(cell, 5)
            if grid[p][q] != grid[4 - p][4 - q]:
                raise ScenarioError(
                    f"{path}[{p}][{q}]",
                    f"h[{p}][{q}]={grid[p][q]} is not matched by "
                    f"h[{4 - p}][{4 - q}]={grid[4 - p][4 - q]} (Serre duality)",
                )
    # Every cell is an int by now, so the rows need no conversion.
    try:
        return HodgeDiamond(tuple(map(tuple, raw)))
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc


def _parse_lattice(raw, path: str) -> LatticeSpec:
    raw = _expect(raw, dict, path)
    model = _require(raw, "model", f"{path}.model")
    if not isinstance(model, str) or model not in LATTICE_MODELS:
        raise ScenarioError(f"{path}.model", f"unknown lattice model {model!r}")
    names = LATTICE_BOUNDS[model]
    _known_keys(raw, ("model", *names), path, f"not a bound of model {model!r}")
    bounds = {}
    for key in names:
        bounds[key] = _require(raw, key, f"{path}.{key}", int)
        if bounds[key] < 0:
            raise ScenarioError(f"{path}.{key}", "bound must be non-negative")
    lattice = LatticeSpec(model=model, **bounds)
    # An empty grid would void the budget on grid points times values of r.
    if lattice.points == 0:
        raise ScenarioError(path, f"the {model!r} grid {bounds} has no points")
    return lattice


_FACT_KEYS = ("index", "r", "citation", "constraint")
_POLYNOMIAL_KEYS = ("label", "coefficients")


def _parse_fact(raw, path: str) -> ExternalFact:
    raw = _expect(raw, dict, path)
    _known_keys(raw, _FACT_KEYS, path, "unknown key for a fact")
    index = _require(raw, "index", f"{path}.index", int)
    r = _require(raw, "r", f"{path}.r", int)
    citation = _require(raw, "citation", f"{path}.citation", str, nonempty=True)
    here = f"{path}.constraint"
    constraint = _require(raw, "constraint", here, dict)
    kind = _require(constraint, "kind", f"{here}.kind")
    if not isinstance(kind, str) or kind not in FACT_KINDS:
        raise ScenarioError(f"{here}.kind", f"unknown fact kind {kind!r}")
    name, kind_type = FACT_KINDS[kind]
    _known_keys(constraint, ("kind", name), here, f"unknown key for fact kind {kind!r}")
    here = f"{here}.{name}"
    if kind_type is tuple:  # a nonempty JSON list of integers
        value = _require(constraint, name, here, list, nonempty=True)
        value = tuple(_expect(x, int, f"{here}[{i}]") for i, x in enumerate(value))
    else:
        value = _require(constraint, name, here, kind_type, nonempty=True)
    return ExternalFact(index=index, r=r, kind=kind, citation=citation, value=value)


def _parse_polynomials(raw, path: str) -> tuple[tuple[str, IntPoly], ...]:
    out = []
    seen = set()
    for i, entry in enumerate(_expect(raw, list, path, nonempty=True)):
        here = f"{path}[{i}]"
        entry = _expect(entry, dict, here)
        _known_keys(entry, _POLYNOMIAL_KEYS, here, "unknown key for a polynomial")
        label = _require(entry, "label", f"{here}.label", str, nonempty=True)
        if label in seen:
            raise ScenarioError(f"{here}.label", f"duplicate label {label!r}")
        seen.add(label)
        coeffs = _require(
            entry, "coefficients", f"{here}.coefficients", list, nonempty=True
        )
        degree = len(coeffs) - 1  # leading zeros are rejected below
        if degree > MAX_DEGREE:
            raise ScenarioError(
                f"{here}.coefficients",
                f"degree {degree} exceeds the budget of {MAX_DEGREE}",
            )
        try:  # all decimal strings: one pass to check them and one to convert
            decimal = all(map(_DECIMAL.fullmatch, coeffs))
            values = list(map(int, coeffs)) if decimal else None
        except (TypeError, ValueError):  # a JSON integer, or too many digits
            values = None
        if values is None:  # the loop that takes integers and names a bad entry
            values = []
            for j, c in enumerate(coeffs):
                try:
                    values.append(parse_int_str(c))
                except ValueError as exc:
                    raise ScenarioError(f"{here}.coefficients[{j}]", str(exc)) from exc
        if values[0] == 0:
            raise ScenarioError(
                f"{here}.coefficients[0]", "leading coefficient must be nonzero"
            )
        out.append((label, IntPoly.from_desc(values)))
    return tuple(out)


_PIPELINE_KEYS = {
    "lemma",
    "mode",
    "hodge",
    "c1_sign",
    "lattice",
    "r_bounds",
    "divisibility",
    "k_lower",
    "c14_max",
    "filters",
    "facts",
    "baseline_id",
}
_DIRECT_KEYS = {"lemma", "mode", "polynomials", "baseline_id"}


def parse_scenario(raw: bytes) -> LemmaSpec:
    try:
        doc = json.loads(raw.decode("utf-8"))
    except RecursionError as exc:
        raise ScenarioError("$", "nested too deeply") from exc
    except ValueError as exc:  # also undecodable bytes and oversized integers
        raise ScenarioError("$", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("$", "top level must be an object")

    lemma = _require(doc, "lemma", "lemma")
    if lemma not in LEMMA_IDS:
        raise ScenarioError("lemma", f"unknown lemma id {lemma!r}")
    mode = doc.get("mode", "pipeline")
    if mode not in ("pipeline", "direct"):
        raise ScenarioError("mode", f"unknown mode {mode!r}")

    allowed = _PIPELINE_KEYS if mode == "pipeline" else _DIRECT_KEYS
    _known_keys(doc, allowed, "", f"unknown key for mode {mode!r}")

    baseline_id = doc.get("baseline_id")
    if baseline_id is not None and baseline_id != lemma:
        raise ScenarioError(
            "baseline_id", f"{baseline_id!r} is not the scenario's lemma {lemma!r}"
        )
    sha = sha256(raw).hexdigest()

    if mode == "direct":
        return LemmaSpec(
            lemma_id=lemma,
            mode=mode,
            polynomials=_parse_polynomials(
                _require(doc, "polynomials", "polynomials"), "polynomials"
            ),
            baseline_id=baseline_id,
            input_sha256=sha,
        )

    diamond = _parse_hodge(_require(doc, "hodge", "hodge"), "hodge")
    target = complete_invariants(invariants_from_diamond(diamond)).target
    if target <= 0:
        raise ScenarioError(
            "hodge", f"the Riemann-Roch target {target} is not positive"
        )
    if isqrt(3 * target) > GRID_BUDGET:
        raise ScenarioError(
            "hodge",
            f"the Riemann-Roch target {target} needs isqrt(3 * target) = "
            f"{isqrt(3 * target)} search steps, over the budget of {GRID_BUDGET}",
        )
    c1_sign = _require(doc, "c1_sign", "c1_sign", int)
    if c1_sign not in (-1, 1):
        raise ScenarioError("c1_sign", f"must be -1 or 1, got {c1_sign}")
    lattice = _parse_lattice(_require(doc, "lattice", "lattice"), "lattice")
    r_raw = _require(doc, "r_bounds", "r_bounds")
    if not isinstance(r_raw, list) or len(r_raw) != 2:
        raise ScenarioError("r_bounds", "expected [min, max]")
    r_min = _expect(r_raw[0], int, "r_bounds[0]")
    r_max = _expect(r_raw[1], int, "r_bounds[1]")
    if r_min > r_max:
        raise ScenarioError("r_bounds", f"empty range [{r_min}, {r_max}]")
    if c1_sign < 0 and r_max >= 0:
        raise ScenarioError("r_bounds", "c1_sign -1 needs a negative r range")
    if c1_sign > 0 and r_min <= 0:
        raise ScenarioError("r_bounds", "c1_sign +1 needs a positive r range")
    r_values = r_max - r_min + 1  # the range excludes r = 0
    if lattice.points * r_values > GRID_BUDGET:
        raise ScenarioError(
            "lattice",
            f"{lattice.points} grid points times {r_values} values of r "
            f"exceed the budget of {GRID_BUDGET}",
        )
    divisibility = doc.get("divisibility", lattice.rule)
    if divisibility != lattice.rule:
        raise ScenarioError(
            "divisibility",
            f"rule {divisibility!r} does not fit model {lattice.model!r}",
        )
    k_lower = None
    if doc.get("k_lower") is not None:
        try:
            k_lower = parse_frac(doc["k_lower"])
        except ValueError as exc:
            raise ScenarioError("k_lower", str(exc)) from exc
    c14_max = None
    if doc.get("c14_max") is not None:
        c14_max = _expect(doc["c14_max"], int, "c14_max")
        if c14_max < 1:
            raise ScenarioError("c14_max", "cap must be positive")
    filters = []
    for i, name in enumerate(_expect(doc.get("filters", []), list, "filters")):
        if name not in FILTER_NAMES:
            raise ScenarioError(f"filters[{i}]", f"unknown filter {name!r}")
        if name in filters:
            raise ScenarioError(f"filters[{i}]", f"duplicate filter {name!r}")
        filters.append(name)
    facts_raw = _expect(doc.get("facts", []), list, "facts")
    facts = tuple(
        _parse_fact(entry, f"facts[{i}]") for i, entry in enumerate(facts_raw)
    )
    seen_r = set()
    for i, fact in enumerate(facts):
        if fact.r in seen_r:
            raise ScenarioError(f"facts[{i}].r", f"second fact for r={fact.r}")
        seen_r.add(fact.r)

    return LemmaSpec(
        lemma_id=lemma,
        mode=mode,
        diamond=diamond,
        lattice=lattice,
        r_bounds=(r_min, r_max),
        k_lower=k_lower,
        c14_max=c14_max,
        filters=tuple(filters),
        facts=facts,
        baseline_id=baseline_id,
        input_sha256=sha,
    )
