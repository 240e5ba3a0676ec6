"""Scenario files: the JSON inputs that drive a lemma replay.

A scenario either describes a full pipeline run (Hodge diamond, sign
of c1, lattice grid, filters, literature facts) or a direct run over
explicit obstruction polynomials. The divisibility rule follows from
the lattice model, so a pipeline scenario may leave it out; one that
names a rule the model does not have is refused. A scenario, a
baseline (the replay's expected result) and a certificate are read by
one schema walker, _reader, strictly and typed: every object rejects a
key it does not define, every value is read by a check of its field's
type, so a float fails at its own field (rationals travel as "p/q"
strings, big integers as decimal strings), and every error names the
JSON path it was found at. An object whose tag says which keys it has
(a scenario's mode, a lattice's model, a fact's kind, a certificate's
type, a printed obstruction's kind) is read by the walker's tagged
form, _tagged. The rules that tie one field of a scenario to another
are checked after the walk. The vocabulary is declared where its types
live: the lattice models' parameters in ring.LATTICE_PARAMS, their
bounds in search.LATTICE_BOUNDS, the fact kinds and their data keys in
verify.FACT_KINDS, the certificate types and their fields' schemas in
report._CODECS.
"""

from __future__ import annotations

import json
import re
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

from .report import _CODECS, _COLUMNS, _same, parse_frac, parse_int_str
from .riemann_roch import DerivedInvariants, HodgeDiamond, complete_invariants
from .riemann_roch import _diamond_fault, invariants_from_diamond
from .ring import record
from .search import LATTICE_BOUNDS, LatticeSpec
from .verify import FACT_KINDS, ExternalFact, IntPoly

__all__ = [
    "LEMMA_IDS",
    "FILTER_NAMES",
    "ScenarioError",
    "LemmaSpec",
    "parse_scenario",
    "Baseline",
    "parse_baseline",
    "certificate_from_json",
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


def _expect(value, kind: type, nonempty: bool = False):
    """value, if it is a JSON value of type kind (and not "" or [] if nonempty).
    Another raises ScenarioError at the path "", which the walker completes."""
    if isinstance(value, kind) and not isinstance(value, bool):
        # Strings reach the reports verbatim, so each must be printable ASCII.
        if kind is str and not (value.isascii() and value.isprintable()):
            raise ScenarioError("", f"expected printable ASCII, got {ascii(value)}")
        if not (nonempty and value in ("", [])):
            return value
    name = ("nonempty " if nonempty else "") + _JSON_TYPES[kind]
    raise ScenarioError("", f"expected {name}, got {reprlib.repr(value)}")


def _reader(schema, unknown: str = "unknown key"):
    """The function that reads a JSON value by schema: str or int, a value
    of that JSON type, as _expect reads it; [item], a list, into a tuple;
    (key, item), an object of items, into its (key, item) pairs sorted by
    key; an object's keys mapped to their schemas, a key ending in "?"
    optional, into the tuple of their values, None for one left out, and
    any other key refused for the reason unknown; or a function that
    decodes the value or raises ValueError, as _tagged's readers do. A
    fault raises ScenarioError, whose path is put together only as the
    fault unwinds."""
    kind = type(schema)
    if schema is str or schema is int:  # _expect raises, saying why, if not one
        return lambda x: x if type(x) is schema and (
            schema is int or x.isascii() and x.isprintable()
        ) else _expect(x, schema)
    if kind is dict:
        fields = [(k.rstrip("?"), k[-1] == "?", _reader(v)) for k, v in schema.items()]
        names = {name for name, _, _ in fields}
    elif kind is list or kind is tuple:
        reads = list(map(_reader, schema))
    else:
        return schema
    json_type = list if kind is list else dict

    def read(value):
        items = value if type(value) is json_type else _expect(value, json_type)
        if kind is dict and not items.keys() <= names:
            raise ScenarioError(next(k for k in items if k not in names), unknown)
        out = []
        try:
            if kind is dict:
                for step, optional, read_field in fields:
                    if step in items:
                        out.append(read_field(items[step]))
                    elif not optional:
                        raise ValueError(f"missing required key {step!r}")
                    else:
                        out.append(None)
            elif kind is list:
                for step, x in enumerate(items):
                    out.append(reads[0](x))
            else:
                for step, x in items.items():
                    out.append((reads[0](step), reads[1](x)))
        except ValueError as exc:
            path = f"[{step}]" if kind is list else str(step)
            if isinstance(exc, ScenarioError):  # a fault further in
                sep = "" if exc.path[:1] in ("", "[") else "."
                path, exc = f"{path}{sep}{exc.path}", exc.reason
            raise ScenarioError(path, str(exc)) from None
        return tuple(sorted(out) if kind is tuple else out)

    return read


def _tagged(key: str, what: str, variants: dict):
    """The function that reads an object whose key `key` holds a tag of
    variants, and whose other keys are those of the tag's schema, into the
    tuple of the tag and their values. Another tag is an unknown {what},
    refused at the key; another key is refused at its own path."""
    reads = {
        tag: _reader({key: _same, **schema}, f"unknown key for {what} {tag!r}")
        for tag, schema in variants.items()
    }

    def read(value):
        items = value if type(value) is dict else _expect(value, dict)
        if key not in items:
            raise ScenarioError(key, f"missing required key {key!r}")
        tag = items[key]
        if type(tag) is not str or tag not in reads:
            raise ScenarioError(key, f"unknown {what} {tag!r}")
        return reads[tag](items)

    return read


def _nonempty(schema):
    """The reader of schema, a JSON type or [item], that refuses "" and []."""
    kind, read = list if type(schema) is list else schema, _reader(schema)
    # _expect raises, saying why, for anything but a nonempty value of kind.
    return lambda x: read(x) if x and type(x) is kind else _expect(x, kind, True)


def _nullable(decode):
    """decode, but null reads as None, as a key left out does."""
    return lambda x: None if x is None else decode(x)


def _sized(n: int, item, reason: str):
    """The reader of a list of n items, which refuses another for reason."""
    read = _reader([item])

    def decode(x):
        if type(x) is not list or len(x) != n:
            raise ValueError(reason)
        return read(x)

    return decode


def _where(kind, holds, reason: str):
    """The decoder of a value of JSON type kind, or of any JSON value if
    kind is None, that refuses one for which holds is false, for reason,
    formatted with the value."""

    def decode(x):
        if kind is not None and type(x) is not kind:
            _expect(x, kind)  # raises, saying why
        if not holds(x):
            raise ValueError(reason.format(x))
        return x

    return decode


_ROW = _sized(5, int, "expected a row of 5 integers")
_GRID = _sized(5, _ROW, "expected a 5x5 matrix")


def _parse_hodge(raw) -> HodgeDiamond:
    """The diamond of a 5x5 JSON matrix. A bad row or cell raises
    ScenarioError at its path in the matrix, a bad matrix ValueError."""
    if type(raw) is list and all(type(row) is list for row in raw):
        try:  # HodgeDiamond accepts a good grid in one pass
            return HodgeDiamond(tuple(map(tuple, raw)))
        except ValueError:
            pass
    # Only a bad grid gets here. _GRID refuses a bad row or cell at its
    # path, and HodgeDiamond's explainer names the fault of any other grid.
    raise ScenarioError(*_diamond_fault(_GRID(raw)))


_COEFFICIENTS = _reader([parse_int_str])
# Decimal strings joined by commas. int() refuses a comma, so a list whose
# join matches holds only decimal strings if each of them converts.
_DECIMALS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _coefficients(raw) -> IntPoly:
    coeffs = _expect(raw, list, nonempty=True)
    degree = len(coeffs) - 1  # leading zeros are refused below
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the budget of {MAX_DEGREE}")
    try:  # all decimal strings: one match to check them and one pass to convert
        decimal = _DECIMALS.fullmatch(",".join(coeffs))
        values = list(map(int, coeffs)) if decimal else None
    except (TypeError, ValueError):  # a JSON integer, a comma, or too many digits
        values = None
    if values is None:  # the reader that takes integers and names a bad entry
        values = _COEFFICIENTS(coeffs)
    if values[0] == 0:
        raise ScenarioError("[0]", "leading coefficient must be nonzero")
    return IntPoly.from_desc(values)


_LEMMA = _where(None, LEMMA_IDS.__contains__, "unknown lemma id {!r}")
_FILTER = _where(None, FILTER_NAMES.__contains__, "unknown filter {!r}")
_BOUND = _where(int, lambda n: n >= 0, "bound must be non-negative")
_CAP = _where(int, lambda n: n > 0, "cap must be positive")
_LATTICE = _tagged(
    "model",
    "lattice model",
    {model: dict.fromkeys(names, _BOUND) for model, names in LATTICE_BOUNDS.items()},
)
_CONSTRAINT = _tagged(
    "kind",
    "fact kind",
    {
        kind: {name: _nonempty([int] if of is tuple else of)}
        for kind, (name, of) in FACT_KINDS.items()
    },
)
_FACT = {"index": int, "r": int, "citation": _nonempty(str), "constraint": _CONSTRAINT}
_POLYNOMIAL = {"label": _nonempty(str), "coefficients": _coefficients}
_POLYNOMIALS = _nonempty([_reader(_POLYNOMIAL, "unknown key for a polynomial")])
_SCENARIO = _tagged(
    "mode",
    "mode",
    {
        "pipeline": {
            "lemma": _LEMMA,
            "hodge": _parse_hodge,
            "c1_sign": _where(int, (-1, 1).__contains__, "must be -1 or 1, got {}"),
            "lattice": _LATTICE,
            "r_bounds": _sized(2, int, "expected [min, max]"),
            # read as a 1-tuple, so that a null rule is told from one left out
            "divisibility?": lambda rule: (rule,),
            "k_lower?": _nullable(parse_frac),
            "c14_max?": _nullable(_CAP),
            "filters?": [_FILTER],
            "facts?": [_reader(_FACT, "unknown key for a fact")],
            "baseline_id?": _same,
        },
        "direct": {
            "lemma": _LEMMA,
            "polynomials": _POLYNOMIALS,
            "baseline_id?": _same,
        },
    },
)


def parse_scenario(raw: bytes) -> LemmaSpec:
    try:
        doc = json.loads(raw.decode("utf-8"))
    except RecursionError as exc:
        raise ScenarioError("$", "nested too deeply") from exc
    except ValueError as exc:  # also undecodable bytes and oversized integers
        raise ScenarioError("$", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("$", "top level must be an object")
    doc.setdefault("mode", "pipeline")
    mode, lemma, *fields, baseline_id = _SCENARIO(doc)
    # Every field is read; what is left are the rules that tie fields together.
    if baseline_id is not None and baseline_id != lemma:
        raise ScenarioError(
            "baseline_id", f"{baseline_id!r} is not the scenario's lemma {lemma!r}"
        )
    sha = sha256(raw).hexdigest()
    if mode == "direct":
        (polynomials,) = fields
        labels = set()
        for i, (label, _) in enumerate(polynomials):
            if label in labels:
                raise ScenarioError(
                    f"polynomials[{i}].label", f"duplicate label {label!r}"
                )
            labels.add(label)
        return LemmaSpec(
            lemma_id=lemma,
            mode=mode,
            polynomials=polynomials,
            baseline_id=baseline_id,
            input_sha256=sha,
        )

    diamond, c1_sign, (model, *values), (r_min, r_max), rule, *fields = fields
    k_lower, c14_max, filters, facts = fields
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
    bounds = dict(zip(LATTICE_BOUNDS[model], values))
    lattice = LatticeSpec(model=model, **bounds)
    # An empty grid would void the budget on grid points times values of r.
    if lattice.points == 0:
        raise ScenarioError("lattice", f"the {model!r} grid {bounds} has no points")
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
    if rule is not None and rule != (lattice.rule,):
        raise ScenarioError(
            "divisibility", f"rule {rule[0]!r} does not fit model {model!r}"
        )
    filters = filters or ()
    for i, name in enumerate(filters):
        if name in filters[:i]:
            raise ScenarioError(f"filters[{i}]", f"duplicate filter {name!r}")
    facts = tuple(
        ExternalFact(index=index, r=r, kind=kind, citation=citation, value=value)
        for index, r, citation, (kind, value) in facts or ()
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
        filters=filters,
        facts=facts,
        baseline_id=baseline_id,
        input_sha256=sha,
    )


@record
class Baseline:
    """A baseline as parse_baseline reads it: an object of labels as its
    (label, value) pairs sorted by label, an object of fixed keys as the
    tuple of its values in _BASELINE's order, None for one left out."""

    lemma: str
    verdict: str
    invariants: tuple
    cases: tuple  # (params, r, k, id, characteristic numbers)
    eliminated_by: tuple
    concluded: tuple
    polynomials: tuple
    obstructions: tuple  # (label, _printed's tuple)
    expected_certificates: tuple


def _fields(tag: str, leave_out=()) -> dict:
    """The walker's schema of a certificate type's fields but those in
    leave_out: one whose class has a default may be left out, and null
    reads as left out; any other is required."""
    cls, fields, _ = _CODECS[tag]
    return {
        name + "?" * hasattr(cls, name): (
            _nullable(_reader(read)) if hasattr(cls, name) else read
        )
        for name, (_, read) in fields.items()
        if name not in leave_out
    }


def _certificate(tag: str, *values, **filled):
    """The certificate of type tag with the fields filled, and the others,
    in order, as the walker read them: None for one left out."""
    cls, fields, _ = _CODECS[tag]
    names = (name for name in fields if name not in filled)
    return cls(**{n: v for n, v in zip(names, values) if v is not None}, **filled)


_CERTIFICATE = _tagged("type", "certificate type", {t: _fields(t) for t in _CODECS})


def certificate_from_json(data):
    """The certificate a JSON object encodes. A fault of shape raises
    ScenarioError at its JSON path, at $ for a top level not an object."""
    if not isinstance(data, dict):
        raise ScenarioError("$", "top level must be an object")
    return _certificate(*_CERTIFICATE(data))


# Printed obstruction kind -> the certificate type it completes and the
# record key of the run's data it is about. It prints the certificate's
# fields but those the run fills in, and may add a note; a divisor
# obstruction may also quote approximate values at its divisors.
_PRINTED = {
    "modular": ("modular", "poly"),
    "divisor": ("divisor", "poly"),
    "congruence-mod12": ("congruence-mod12", "char_numbers"),
    "ahat": ("ahat-nonintegral", "case"),
}
# The fields the run fills in, as they stand until it does.
_FILLED = {"m_power": 0, "residues": (), "residue": 0}
_PRINTED_KIND = _tagged(
    "kind",
    "obstruction kind",
    {
        kind: {"note?": str}
        | _fields(tag, _FILLED)
        | ({"approx_values?": (parse_int_str, str)} if kind == "divisor" else {})
        for kind, (tag, _) in _PRINTED.items()
    },
)


def _printed(entry) -> tuple:
    """A printed obstruction as (kind, about, certificate, note, approximate
    values). Its fields are read as the certificate's, and those it leaves
    out stand as in _FILLED until the run fills them in."""
    kind, note, *values = _PRINTED_KIND(entry)
    approx = values.pop() if kind == "divisor" else None
    tag, about = _PRINTED[kind]
    filled = {name: _FILLED[name] for name in _CODECS[tag][1] if name in _FILLED}
    return kind, about, _certificate(tag, *values, **filled), note, approx


_BASELINE = _reader(
    {
        "lemma": str,
        "verdict": str,
        "invariants?": {f"{name}?": int for name in DerivedInvariants._fields},
        "cases?": [
            {
                "params": (str, int), "r": int, "k": str, "id": str,
                "char_numbers?": {f"{name}?": str for name, _ in _COLUMNS},
            }
        ],
        "eliminated_by?": (str, str),
        "concluded?": (str, str),
        "polynomials?": (str, [str]),
        "obstructions?": (str, _printed),
        "expected_certificates?": (str, lambda data: _certificate(*_CERTIFICATE(data))),
    }
)


def parse_baseline(doc) -> Baseline:
    """The baseline a decoded JSON document holds. A structural fault (a
    missing or unknown key, a value of the wrong JSON type, an unknown
    obstruction kind) raises ScenarioError with its JSON path; whether
    the values hold is for the run to find."""
    if not isinstance(doc, dict):
        raise ScenarioError("$", "top level must be an object")
    # The keys a baseline may leave out are lists and objects: none is empty.
    return Baseline(*(() if v is None else v for v in _BASELINE(doc)))
