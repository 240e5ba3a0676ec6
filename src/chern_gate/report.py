"""Report and certificate serialization.

Everything that leaves the tool goes through here: certificates become
tagged JSON objects, rationals become "p/q" strings, big integers
become decimal strings, and reports serialize canonically (sorted
keys, fixed indentation, trailing newline) so a repeated run is
byte-identical.
"""

from __future__ import annotations

import json
from decimal import Context, Decimal
from fractions import Fraction

from .obstruction import (
    AhatNonIntegral,
    BoundedExhaustive,
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
    "certificate_from_json",
    "canonical_json",
    "emit_report",
]

_FIVE_FIGURES = Context(prec=5)


def frac_str(q: Fraction) -> str:
    """Exact decimal form: "p/q", or plain "p" for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_frac(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"rational must be a string, got {type(text).__name__}")
    num, sep, den = text.partition("/")
    try:
        if sep:
            return Fraction(int(num), int(den))
        return Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def int_str(n: int) -> str:
    return str(int(n))


def parse_int_str(text) -> int:
    """Accept decimal-string integers (the file policy) and plain ints."""
    if isinstance(text, bool):
        raise ValueError("boolean is not an integer")
    if isinstance(text, int):
        return text
    if isinstance(text, str):
        try:
            return int(text, 10)
        except ValueError as exc:
            raise ValueError(f"not an integer: {text!r}") from exc
    raise ValueError(f"not an integer: {text!r}")


def sci_5(n: int) -> str:
    """Scientific notation rounded to 5 significant figures, e.g.
    1000401930903 -> "1.0004E+12". Matches the precision used for the
    spot-check values quoted alongside the exact ones."""
    return str(_FIVE_FIGURES.create_decimal(Decimal(n)))


def _same(x):
    return x


# (encode, decode) pairs for certificate fields. Big integers travel as
# decimal strings, small ones (moduli, residues, exponents) as JSON ints.
_BIG = (int_str, parse_int_str)
_SMALL = (_same, int)
_BIGS = (lambda xs: [int_str(x) for x in xs], lambda xs: tuple(map(parse_int_str, xs)))
_SMALLS = (list, lambda xs: tuple(map(int, xs)))
_TEXT = (_same, _same)

# Certificate tag -> (class, field codecs). A field whose value is None
# is left out of the JSON, and a field missing from the JSON is left to
# the class default.
_CODECS = {
    "modular": (
        ModularObstruction,
        {"content": _BIG, "m_power": _SMALL, "modulus": _SMALL, "residues": _SMALLS},
    ),
    "divisor": (
        ConstantDivisorTest,
        {"content": _BIG, "m_power": _SMALL, "divisors": _BIGS, "values": _BIGS},
    ),
    "exhaustive": (
        BoundedExhaustive,
        {"content": _BIG, "m_power": _SMALL, "bound": _BIG},
    ),
    "root": (RootFound, {"m": _BIG}),
    "congruence-mod12": (CongruenceMod12, {"value": _BIG, "residue": _SMALL}),
    "ahat-nonintegral": (AhatNonIntegral, {"value": (frac_str, parse_frac)}),
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
    ),
}
_TAGS = {cls: tag for tag, (cls, _) in _CODECS.items()}


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


def certificate_from_json(data: dict):
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _CODECS:
        raise ValueError(f"unknown certificate type {kind!r}")
    cls, fields = _CODECS[kind]
    return cls(
        **{
            name: decode(data[name])
            for name, (_, decode) in fields.items()
            if data.get(name) is not None
        }
    )


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("ascii")


def _params_str(params: dict) -> str:
    return ", ".join(f"{name}={value}" for name, value in params.items())


def _md_case_table(cases: list[dict]) -> list[str]:
    rows = cases
    if all(c.get("baseline_id") is not None for c in cases):
        if all(c["baseline_id"].isdigit() for c in cases):
            rows = sorted(cases, key=lambda c: int(c["baseline_id"]))
        else:
            rows = sorted(cases, key=lambda c: c["baseline_id"])
    lines = [
        "| case | parameters | r | k | c1^4 | c1*c3 | c1^2*c2 | c2^2 | c4 |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for c in rows:
        label = c.get("baseline_id")
        if label is None:
            label = c["ordinal"]
        cn = c["char_numbers"]
        lines.append(
            f"| {label} | {_params_str(c['params'])} | {c['r']} | {c['k']} "
            f"| {cn['c1_4']} | {cn['c1c3']} | {cn['c1_2c2']} | {cn['c2_2']} "
            f"| {cn['c4']} |"
        )
    return lines


def _md_certificate(cert: dict) -> str:
    kind = cert["type"]
    if kind == "modular":
        return (
            f"no roots modulo {cert['modulus']} "
            f"(content {cert['content']}, m^{cert['m_power']})"
        )
    if kind == "divisor":
        pairs = ", ".join(
            f"P({d})={v}" for d, v in zip(cert["divisors"], cert["values"])
        )
        return f"divisor test after content {cert['content']}: {pairs}"
    if kind == "exhaustive":
        return f"no roots in 1..{cert['bound']} (content {cert['content']})"
    if kind == "root":
        return f"root found at m={cert['m']}"
    if kind == "congruence-mod12":
        return f"{cert['value']} is {cert['residue']} mod 12"
    if kind == "ahat-nonintegral":
        return f"A-hat genus {cert['value']} is not an integer"
    if kind == "external-fact":
        text = f"fact {cert['index']}: {cert['constraint']} ({cert['citation']})"
        if cert["outcome"] == "concluded":
            return f"{text} -> {cert['conclusion']}"
        return f"{text}, violated by {cert.get('violated_by')}"
    return kind


def _emit_markdown(report: dict) -> bytes:
    lines = [f"# Replay of {report['lemma']}", ""]
    lines.append(f"verdict: **{report['verdict']}**")
    lines.append("")
    if report.get("invariants"):
        inv = report["invariants"]
        lines.append(
            f"invariants: chi={inv['chi']}, chi_O={inv['chi_O']}, "
            f"chi1={inv['chi1']}, signature={inv['signature']}, "
            f"c1c3={inv['c1c3']}, target={inv['target']}"
        )
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
            lines.append(
                f"- case {label}: {e['filter']} -> "
                f"{_md_certificate(e['certificate'])}"
            )
        lines.append("")
    if report.get("polynomials"):
        lines.append("## Obstruction polynomials")
        lines.append("")
        for p in report["polynomials"]:
            coeffs = ", ".join(p["coefficients"])
            lines.append(f"- {p['label']}: [{coeffs}]")
            lines.append(f"  - {_md_certificate(p['certificate'])}")
        lines.append("")
    if report.get("survivors"):
        lines.append("## Survivors")
        lines.append("")
        for s in report["survivors"]:
            label = s.get("baseline_id")
            label = s["ordinal"] if label is None else label
            conclusion = s.get("conclusion")
            tail = f" (concluded: {conclusion})" if conclusion else ""
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
