"""Report and certificate serialization.

Everything that leaves the tool goes through here: certificates become
tagged JSON objects, rationals become "p/q" strings, big integers
become decimal strings, and reports serialize canonically (sorted
keys, fixed indentation, trailing newline) so a repeated run is
byte-identical. One table, _CODECS, declares each certificate kind's
JSON fields, with an encoder and a schema for each; this module only
writes them, and scenario's schema walker reads them by their schemas.
"""

from __future__ import annotations

import operator
import re
from decimal import Context, Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .riemann_roch import DerivedInvariants
from .verify import (
    AhatNonIntegral,
    CongruenceMod12,
    ConstantDivisorTest,
    ExternalFactCertificate,
    ModularObstruction,
    RootFound,
)

__all__ = [
    "frac_str",
    "parse_frac",
    "int_str",
    "parse_int_str",
    "sci_5",
    "certificate_to_json",
    "canonical_json",
    "emit_report",
]

_FIVE_FIGURES = Context(prec=5)

# Characteristic-number field -> column symbol, in report order.
_COLUMNS = (
    ("c1_4", "c1^4"),
    ("c1c3", "c1*c3"),
    ("c1_2c2", "c1^2*c2"),
    ("c2_2", "c2^2"),
    ("c4", "c4"),
)


def frac_str(q: Fraction) -> str:
    """Exact decimal form: "p/q", or plain "p" for integers. Anything but
    an int or a Fraction (a float, a Decimal) raises TypeError."""
    if not isinstance(q, (int, Fraction)):
        raise TypeError(f"not an exact rational: {q!r}")
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_frac(text: str) -> Fraction:
    """Parse "p" or "p/q", where p and q are decimal strings."""
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    num, sep, den = text.partition("/")
    try:
        return Fraction(parse_int_str(num), parse_int_str(den) if sep else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def int_str(n: int) -> str:
    """Decimal form of an integer; a float or a Fraction raises TypeError
    rather than being truncated."""
    return str(operator.index(n))


_DECIMAL = re.compile(r"-?[0-9]+")


def parse_int_str(text) -> int:
    """Accept plain ints and decimal strings: ASCII digits, optionally
    after a minus sign (so not "1_0", " 7", "+5" or non-ASCII digits)."""
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    if isinstance(text, str) and _DECIMAL.fullmatch(text):
        return int(text)
    raise ValueError(f"not an integer: {text!r}")


def sci_5(n: int) -> str:
    """Scientific notation rounded to 5 significant figures, e.g.
    1000401930903 -> "1.0004E+12". Matches the precision used for the
    spot-check values quoted alongside the exact ones."""
    return str(_FIVE_FIGURES.create_decimal(Decimal(n)))


def _same(x):
    return x


# (encode, schema) pairs for certificate fields: the schema is one that
# scenario's walker reads. Big integers travel as decimal strings, small
# ones (moduli, residues, exponents) as JSON ints.
_BIG = (int_str, parse_int_str)
_SMALL = (_same, int)
_BIGS = (lambda xs: [int_str(x) for x in xs], [parse_int_str])
_SMALLS = (list, [int])
_TEXT = (_same, str)


def _md_divisor(cert: dict) -> str:
    pairs = ", ".join(f"P({d})={v}" for d, v in zip(cert["divisors"], cert["values"]))
    return f"divisor test after content {cert['content']}: {pairs}"


def _md_external_fact(cert: dict) -> str:
    text = f"fact {cert['index']}: {cert['constraint']} ({cert['citation']})"
    if cert["outcome"] == "concluded":
        return f"{text} -> {cert['conclusion']}"
    return f"{text}, violated by {cert.get('violated_by')}"


# Certificate tag -> (class, field codecs, markdown sentence): the one
# declaration of each kind's JSON shape, which scenario reads certificates
# by. A field whose value is None is left out of the JSON. The sentence is
# rendered from the certificate's JSON form.
_CODECS = {
    "modular": (
        ModularObstruction,
        {"content": _BIG, "m_power": _SMALL, "modulus": _SMALL, "residues": _SMALLS},
        "no roots modulo {modulus} (content {content}, m^{m_power})".format_map,
    ),
    "divisor": (
        ConstantDivisorTest,
        {"content": _BIG, "m_power": _SMALL, "divisors": _BIGS, "values": _BIGS},
        _md_divisor,
    ),
    "root": (RootFound, {"m": _BIG}, "root found at m={m}".format_map),
    "congruence-mod12": (
        CongruenceMod12,
        {"value": _BIG, "residue": _SMALL},
        "{value} is {residue} mod 12".format_map,
    ),
    "ahat-nonintegral": (
        AhatNonIntegral,
        {"value": (frac_str, parse_frac)},
        "A-hat genus {value} is not an integer".format_map,
    ),
    "external-fact": (
        ExternalFactCertificate,
        {
            "index": _SMALL,
            "constraint": _TEXT,
            "citation": _TEXT,
            "outcome": _TEXT,
            "violated_by": _BIG,
            "conclusion": _TEXT,
        },
        _md_external_fact,
    ),
}
_TAGS = {cls: tag for tag, (cls, _, _) in _CODECS.items()}


def certificate_to_json(cert) -> dict:
    tag = _TAGS.get(type(cert))
    if tag is None:
        raise TypeError(f"not a certificate: {type(cert).__name__}")
    out = {"type": tag}
    for name, (encode, _) in _CODECS[tag][1].items():
        value = getattr(cert, name)
        if value is not None:
            out[name] = encode(value)
    return out


def _write(obj, pad: str, out: list) -> None:
    """Append the JSON pieces of obj, indented from pad, to out."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"report key is not a str: {key!r}")
            out += (sep, _quote(key), ": ")
            _write(obj[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _write(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is int:
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"not a report value: {obj!r}")


def canonical_json(obj) -> bytes:
    """JSON with sorted keys, an indent of two spaces, ASCII escapes and
    a trailing newline: the bytes the standard library's encoder writes
    with those settings, for the report's own shape only. Values are
    dicts with str keys, lists, str, int, bool and None; anything else,
    a float or an int key among them, raises TypeError."""
    out: list[str] = []
    _write(obj, "", out)
    out.append("\n")
    return "".join(out).encode("ascii")


def _params_str(params: dict) -> str:
    return ", ".join(f"{name}={value}" for name, value in params.items())


def _md_row(cells) -> str:
    return "| " + " | ".join(map(str, cells)) + " |"


def _md_case_table(cases: list[dict]) -> list[str]:
    rows = cases
    if all(c.get("baseline_id") is not None for c in cases):
        if all(c["baseline_id"].isdigit() for c in cases):
            rows = sorted(cases, key=lambda c: int(c["baseline_id"]))
        else:
            rows = sorted(cases, key=lambda c: c["baseline_id"])
    header = ["case", "parameters", "r", "k", *(symbol for _, symbol in _COLUMNS)]
    lines = [_md_row(header), _md_row(["---"] * len(header))]
    for c in rows:
        label = c.get("baseline_id")
        if label is None:
            label = c["ordinal"]
        cn = c["char_numbers"]
        lines.append(
            _md_row(
                [label, _params_str(c["params"]), c["r"], c["k"]]
                + [cn[field] for field, _ in _COLUMNS]
            )
        )
    return lines


def _md_certificate(row: dict) -> str:
    """The sentence for a row's certificate, marked if the row says it
    failed to verify."""
    cert = row["certificate"]
    kind = cert.get("type") if isinstance(cert, dict) else None
    if not isinstance(kind, str) or kind not in _CODECS:
        raise ValueError(f"unknown certificate type {kind!r}")
    text = _CODECS[kind][2](cert)
    return f"{text} (not verified)" if row.get("verified") is False else text


def _emit_markdown(report: dict) -> bytes:
    lines = [f"# Replay of {report['lemma']}", ""]
    lines.append(f"verdict: **{report['verdict']}**")
    lines.append("")
    if report.get("invariants"):
        inv = report["invariants"]
        pairs = (f"{name}={inv[name]}" for name in DerivedInvariants._fields)
        lines.append(f"invariants: {', '.join(pairs)}")
        lines.append("")
    if report.get("cases"):
        lines.append("## Cases")
        lines.append("")
        lines.extend(_md_case_table(report["cases"]))
        lines.append("")
    if report.get("eliminations"):
        lines.append("## Eliminations")
        lines.append("")
        for e in report["eliminations"]:
            label = e.get("baseline_id")
            label = e["ordinal"] if label is None else label
            lines.append(f"- case {label}: {e['filter']} -> {_md_certificate(e)}")
        lines.append("")
    if report.get("polynomials"):
        lines.append("## Obstruction polynomials")
        lines.append("")
        for p in report["polynomials"]:
            coeffs = ", ".join(p["coefficients"])
            lines.append(f"- {p['label']}: [{coeffs}]")
            lines.append(f"  - {_md_certificate(p)}")
        lines.append("")
    if report.get("survivors"):
        lines.append("## Survivors")
        lines.append("")
        for s in report["survivors"]:
            label = s.get("baseline_id")
            label = s["ordinal"] if label is None else label
            tail = f" (concluded: {s['conclusion']})" if "conclusion" in s else ""
            tail = f" (root m={s['root']})" if "root" in s else tail
            lines.append(f"- case {label}{tail}")
        lines.append("")
    diff = report.get("baseline_diff")
    if diff is None:
        lines.append("baseline: not checked")
    elif diff:
        lines.append("## Baseline discrepancies")
        lines.append("")
        lines.extend(f"- {item}" for item in diff)
    else:
        lines.append("baseline: exact match")
    lines.append("")
    return "\n".join(lines).encode("ascii")


def emit_report(report: dict, fmt: str = "json") -> bytes:
    if fmt == "json":
        return canonical_json(report)
    if fmt == "md":
        return _emit_markdown(report)
    raise ValueError(f"unknown format {fmt!r}")
