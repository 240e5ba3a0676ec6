"""Replaying a lemma end to end.

run_lemma drives the full chain: Hodge diamond to the Riemann-Roch
target, lattice enumeration, characteristic-number tables and the
configured elimination filters. A direct scenario is the single filter
embedding-poly over the polynomials it lists, so both modes decide
their cases in one filter loop, from one record per case. Every
certificate, whichever filter produced it, is re-checked by
verify.verify_certificate against the data the filter consumed,
and only a verified one decides a case: a certificate that fails is
listed with verified false and the case stays alive. The verdict is
read from the survivors, so it says what the rows say.
When a baseline is supplied the run is compared against it cell by
cell, and every obstruction the baseline records in printed form is
completed into a certificate and verified against the run's own data
for that case (its polynomial, characteristic numbers or Chern data),
independently of whatever certificate the engine chose for itself.
"""

from __future__ import annotations

import json
import os

from .obstruction import (
    ahat_filter,
    build_embedding_polynomial,
    eliminate,
    external_fact_filter,
    mod12_filter,
)
from .report import (
    _COLUMNS,
    certificate_from_json,
    certificate_to_json,
    frac_str,
    int_str,
    parse_int_str,
    sci_5,
)
# chern_from_case runs in no command; the benchmark's tracer patches it here.
from .ring import char_number_table, chern_from_case, replace
from .riemann_roch import (
    DerivedInvariants,
    chi_O_from_class,
    complete_invariants,
    invariants_from_diamond,
    l_genus_signature,
    pontryagin_numbers,
)
from .scenario import LEMMA_IDS, LemmaSpec, parse_scenario
from .search import ConstraintSystem, enumerate_cases, to_chern_case
from .verify import RootFound, verify_certificate
from .version import __version__

__all__ = [
    "SHIPPED_LEMMAS",
    "constraint_system_for",
    "run_lemma",
    "diff_baseline",
    "scenario_bytes",
    "load_scenario",
    "load_baseline",
    "reproduce_lemma",
]

SHIPPED_LEMMAS = LEMMA_IDS


def constraint_system_for(spec: LemmaSpec, target: int) -> ConstraintSystem:
    """Build the Diophantine search for a pipeline scenario.

    The target is passed separately because it comes out of the
    Riemann-Roch stage, not the scenario file.
    """
    if spec.mode != "pipeline":
        raise ValueError("direct scenarios do not define a search")
    return ConstraintSystem(
        target=target,
        lattice=spec.lattice,
        r_min=spec.r_bounds[0],
        r_max=spec.r_bounds[1],
        k_lower=spec.k_lower,
        c14_max=spec.c14_max,
    )


def _case_key(params: dict, r: int, k: str):
    return (tuple(sorted(params.items())), r, k)


def _key_str(key) -> str:
    params, r, k = key
    inside = ", ".join(f"{name}={value}" for name, value in params)
    return f"{inside}, r={r}, k={k}"


def run_lemma(spec: LemmaSpec, baseline: dict | None = None, workers: int = 1) -> dict:
    """The report of spec, diffed against baseline when one is given.
    workers is accepted and ignored: the benchmark harness still passes it."""
    if baseline is not None and baseline.get("lemma") != spec.lemma_id:
        raise ValueError(
            f"baseline is for lemma {baseline.get('lemma')!r}, "
            f"scenario replays {spec.lemma_id!r}"
        )
    # records: ordinal -> the case's data, keyed by what a filter or a
    # printed obstruction is about ("char_numbers", "case", "poly").
    if spec.mode == "direct":
        invariants, case_rows, filters = None, [], ("embedding-poly",)
        records = {i: {"poly": p} for i, (_, p) in enumerate(spec.polynomials, 1)}
        ids = {i: label for i, (label, _) in enumerate(spec.polynomials, 1)}
    else:
        inv = complete_invariants(invariants_from_diamond(spec.diamond))
        invariants = {name: getattr(inv, name) for name in inv._fields}
        system = constraint_system_for(spec, target=inv.target)
        solutions = enumerate_cases(system)
        case_rows, records, ids = _case_rows(solutions, inv, baseline)
        filters = spec.filters
    labels = {o: f"case-{o}" if bid is None else bid for o, bid in ids.items()}
    poly_rows: list[dict] = []
    eliminations: list[dict] = []
    survivors: list[dict] = []
    decided = {}  # ordinal -> the verified certificate that took the case
    roots = {}  # ordinal -> a verified positive integer root
    for name in filters:
        for o, rec in records.items():
            if o in decided:
                continue
            if name == "embedding-poly":
                if "poly" not in rec:
                    rec["poly"] = build_embedding_polynomial(rec["case"])
                subject, cert = rec["poly"], eliminate(rec["poly"])
            elif name == "mod12":
                subject, cert = rec["char_numbers"], mod12_filter(rec["char_numbers"])
            elif name == "ahat":
                subject, cert = rec["case"], ahat_filter(rec["case"])
            else:  # external-facts
                subject = (rec["case"], spec.facts)
                cert = external_fact_filter(*subject)
            if cert is None:
                continue
            ok = verify_certificate(subject, cert)
            row = {
                "ordinal": o,
                "baseline_id": ids[o],
                "certificate": certificate_to_json(cert),
                "verified": ok,
            }
            if name == "embedding-poly":
                poly_rows.append(
                    {
                        **row,
                        "label": labels[o],
                        "coefficients": [int_str(c) for c in subject.desc_coeffs],
                        "scale": int_str(subject.scale),
                    }
                )
            if isinstance(cert, RootFound):
                # A positive integer root means the filter has no
                # objection; the case stays alive.
                if ok:
                    roots[o] = cert.m
                continue
            # Only a verified certificate decides the case; a failed
            # one is listed below and the case stays alive.
            if ok:
                decided[o] = cert
                if getattr(cert, "outcome", None) == "concluded":
                    continue
            if spec.mode == "pipeline":  # direct rows are all polynomial rows
                eliminations.append({**row, "filter": name})
    # Every case is eliminated, concluded or alive; a live one says its
    # root when a verified one was found.
    for o, bid in ids.items():
        row = {"ordinal": o, "baseline_id": bid}
        cert = decided.get(o)
        if cert is not None:
            if getattr(cert, "outcome", None) != "concluded":
                continue  # eliminated
            row["conclusion"] = cert.conclusion
            row["certificate"] = certificate_to_json(cert)
        elif o in roots:
            row["root"] = int_str(roots[o])
        survivors.append(row)

    if not survivors:
        verdict = "ALL-ELIMINATED"
    elif all(row.get("conclusion") == "P4" for row in survivors):
        verdict = "CONCLUDES-P4"
    else:
        verdict = "SURVIVORS-REMAIN"

    report = {
        "tool": "chern-gate",
        "version": __version__,
        "lemma": spec.lemma_id,
        "mode": spec.mode,
        "input_sha256": spec.input_sha256,
        "invariants": invariants,
        "cases": case_rows,
        "eliminations": eliminations,
        "polynomials": poly_rows,
        "survivors": survivors,
        "verdict": verdict,
        "baseline_validation": None,
        "baseline_diff": None,
    }
    if baseline is not None:
        # Each label's printed obstructions are checked against its record.
        live = {labels[o]: rec for o, rec in records.items()}
        report["baseline_validation"] = _validate_printed(baseline, live, poly_rows)
        report["baseline_diff"] = diff_baseline(report, baseline)
    return report


def _case_rows(solutions, inv, baseline: dict | None):
    """The report's case table, plus each case's record (its
    characteristic numbers and Chern data) and baseline id, keyed by
    ordinal."""
    id_by_key = {}
    if baseline is not None:
        for entry in baseline.get("cases", []):
            key = _case_key(entry["params"], entry["r"], entry["k"])
            id_by_key[key] = entry["id"]
    rows, records, ids = [], {}, {}
    for sol in solutions:
        case = to_chern_case(sol, inv)
        cn = char_number_table(case)
        chio = chi_O_from_class(cn)
        if chio != inv.chi_O:
            raise ArithmeticError(
                f"chi_O recomputed from the Chern class is {chio}, "
                f"the diamond says {inv.chi_O}"
            )
        pd = pontryagin_numbers(case)
        params, k = sol.geometry.params, frac_str(sol.k)  # params is a fresh dict
        bid = id_by_key.get(_case_key(params, sol.r, k))
        records[sol.ordinal] = {"char_numbers": cn, "case": case}
        ids[sol.ordinal] = bid
        rows.append(
            {
                "ordinal": sol.ordinal,
                "params": params,
                "r": sol.r,
                "k": k,
                "baseline_id": bid,
                "char_numbers": {f: int_str(getattr(cn, f)) for f, _ in _COLUMNS},
                "pontryagin": {
                    "p1_sq": frac_str(pd.p1_sq),
                    "p2": frac_str(pd.p2),
                    "a_hat": frac_str(pd.a_hat),
                    "spin": pd.spin_applicable,
                },
                "l_genus_signature": frac_str(l_genus_signature(pd)),
                "chi_O_check": frac_str(chio),
            }
        )
    return rows, records, ids


# Printed obstruction kind -> (certificate tag, the record key of the live
# data it is about).
_PRINTED = {
    "modular": ("modular", "poly"),
    "divisor": ("divisor", "poly"),
    "congruence-mod12": ("congruence-mod12", "char_numbers"),
    "ahat": ("ahat-nonintegral", "case"),
}


def _validate_obstruction(label: str, entry: dict, live: dict) -> dict:
    """Complete a printed obstruction into a certificate and verify it
    against the run's own data for the same case."""
    kind = entry.get("kind")
    row: dict = {"id": label, "kind": "obstruction", "obstruction": kind}
    if "note" in entry:
        row["note"] = entry["note"]
    row["verified"] = False
    if not isinstance(kind, str) or kind not in _PRINTED:
        row["note"] = f"unknown obstruction kind {kind!r}"
        return row
    tag, about = _PRINTED[kind]
    subject = live.get(label, {}).get(about)
    if subject is None:
        return row
    # The printed form is the headline data; what it leaves out is
    # filled in from the live data and re-checked by the verifier. A
    # printed field missing or of the wrong type fails the row.
    data = {**entry, "type": tag, "m_power": 0, "residues": [], "residue": 0}
    try:
        cert = certificate_from_json(data)
    except ValueError as exc:
        row["note"] = str(exc)
        return row
    if kind == "modular":
        # The residues come from the exact values divided by the printed
        # content, the lead made positive, so only the verifier reduces
        # the polynomial. No residues when the content does not divide
        # it; the verifier rejects the content first either way.
        content, cs, modulus = cert.content, subject.coeffs, cert.modulus
        sign = -1 if cs[-1] < 0 else 1
        divides = content >= 1 and not any(c % content for c in cs)
        values = map(subject.evaluate, range(modulus) if divides else ())
        residues = tuple(sign * v // content % modulus for v in values)
        cert = replace(cert, residues=residues)
    elif kind == "congruence-mod12":
        cert = replace(cert, residue=cert.value % 12)
    row["verified"] = verify_certificate(subject, cert)
    if kind == "divisor" and "approx_values" in entry:
        lookup = dict(zip(cert.divisors, cert.values))
        approx = entry["approx_values"]
        try:
            if not isinstance(approx, dict):
                raise ValueError(f"expected an object, got {type(approx).__name__}")
            quoted = {parse_int_str(m): s for m, s in approx.items()}
        except ValueError as exc:
            row["note"], row["approx_match"] = f"approx_values: {exc}", False
            return row
        stray = sorted(quoted.keys() - lookup.keys())
        if stray:
            row["note"] = f"approximate values quoted at {stray}, not at divisors"
        row["approx_match"] = not stray and all(
            sci_5(lookup[m]) == text for m, text in quoted.items()
        )
    return row


def _validate_printed(baseline: dict, live: dict, poly_rows: list[dict]) -> list[dict]:
    """Rebuild every printed artifact of the baseline and re-check it.

    Polynomial coefficient lists are compared exactly. Printed
    obstructions are verified as described in _validate_obstruction.
    Expected engine certificates must match the run's output verbatim,
    and the run's row must record that its certificate verified.
    """
    rows = []
    for label, expected in sorted(baseline.get("polynomials", {}).items()):
        ours = live.get(label, {}).get("poly")
        ours = None if ours is None else [int_str(c) for c in ours.desc_coeffs]
        rows.append({"id": label, "kind": "polynomial", "verified": ours == expected})
    for label, entry in sorted(baseline.get("obstructions", {}).items()):
        rows.append(_validate_obstruction(label, entry, live))
    engine = {row["label"]: row for row in poly_rows}
    for label, expected in sorted(baseline.get("expected_certificates", {}).items()):
        row = engine.get(label)
        ok = row is not None and row["certificate"] == expected and row["verified"]
        rows.append({"id": label, "kind": "expected-certificate", "verified": ok})
    return rows


# Baseline key -> how the run and the baseline disagree about one case:
# when only the run has a value, when only the baseline has one, when
# both have different ones.
_CASE_WORDING = {
    "eliminated_by": (
        "case {label}: eliminated via {act}, baseline keeps it",
        "case {label}: baseline eliminates it via {exp}, the run leaves it alive",
        "case {label}: eliminated via {act}, baseline says {exp}",
    ),
    "concluded": (
        "case {label}: run concludes {act}, baseline keeps it",
        "case {label}: baseline concludes {exp}, the run leaves it alive",
        "case {label}: run concludes {act}, baseline concludes {exp}",
    ),
}


def diff_baseline(report: dict, baseline: dict) -> list[str]:
    """Everything the run disagrees with the baseline about, in words.

    An empty list is an exact match. Raises ValueError when the two
    are not even about the same lemma.
    """
    if report.get("lemma") != baseline.get("lemma"):
        raise ValueError(
            f"baseline is for lemma {baseline.get('lemma')!r}, "
            f"report is for {report.get('lemma')!r}"
        )
    diffs: list[str] = []

    binv = baseline.get("invariants") or {}
    rinv = report.get("invariants") or {}
    for key in DerivedInvariants._fields:
        if key in binv and binv[key] != rinv.get(key):
            diffs.append(
                f"invariant {key}: run has {rinv.get(key)}, "
                f"baseline has {binv[key]}"
            )

    bcases = {
        _case_key(c["params"], c["r"], c["k"]): c
        for c in baseline.get("cases", [])
    }
    rcases = {
        _case_key(c["params"], c["r"], c["k"]): c for c in report.get("cases", [])
    }
    for key in sorted(bcases.keys() - rcases.keys()):
        diffs.append(
            f"case ({_key_str(key)}) expected by the baseline but not produced"
        )
    for key in sorted(rcases.keys() - bcases.keys()):
        diffs.append(
            f"case ({_key_str(key)}) produced by the run but not in the baseline"
        )
    for key in sorted(bcases.keys() & rcases.keys()):
        expected_cn = bcases[key].get("char_numbers")
        if not expected_cn:
            continue
        label = bcases[key]["id"]
        ours_cn = rcases[key]["char_numbers"]
        for field, symbol in _COLUMNS:
            if field in expected_cn and expected_cn[field] != ours_cn[field]:
                diffs.append(
                    f"case {label}: {symbol} is {ours_cn[field]}, "
                    f"baseline says {expected_cn[field]}"
                )

    run = {"eliminated_by": {}, "concluded": {}}
    for e in report.get("eliminations", []):
        if e.get("baseline_id") is not None and e["verified"]:
            name = e["filter"]
            if name == "external-facts":
                name = f"external-facts:{e['certificate']['index']}"
            run["eliminated_by"][e["baseline_id"]] = name
    for s in report.get("survivors", []):
        if s.get("conclusion") and s.get("baseline_id"):
            run["concluded"][s["baseline_id"]] = s["conclusion"]
    for key, (only_run, only_base, both) in _CASE_WORDING.items():
        expected, actual = baseline.get(key, {}), run[key]
        for label in sorted(set(expected) | set(actual)):
            exp, act = expected.get(label), actual.get(label)
            if exp != act:
                text = only_run if exp is None else only_base if act is None else both
                diffs.append(text.format(label=label, exp=exp, act=act))

    if report.get("verdict") != baseline.get("verdict"):
        diffs.append(
            f"verdict: run says {report.get('verdict')}, "
            f"baseline says {baseline.get('verdict')}"
        )

    bpolys = baseline.get("polynomials", {})
    rpolys = {
        row["label"]: row["coefficients"] for row in report.get("polynomials", [])
    }
    for label in sorted(bpolys):
        expected = bpolys[label]
        ours = rpolys.get(label)
        if ours is None:
            diffs.append(f"polynomial {label}: baseline lists it, run built none")
            continue
        if len(ours) != len(expected):
            diffs.append(
                f"polynomial {label}: run has degree {len(ours) - 1}, "
                f"baseline has degree {len(expected) - 1}"
            )
            continue
        for i, (a, b) in enumerate(zip(ours, expected)):
            if a != b:
                power = len(ours) - 1 - i
                diffs.append(
                    f"polynomial {label}: coefficient of m^{power} is {a}, "
                    f"baseline says {b}"
                )

    for row in report.get("baseline_validation") or ():
        if row["kind"] == "polynomial":
            continue  # coefficient mismatches are reported above
        what = row["kind"]
        if what == "obstruction":
            what = f"{row['obstruction']} obstruction"
        if not row["verified"]:
            diffs.append(f"{what} {row['id']}: failed re-verification")
        if row.get("approx_match") is False:
            diffs.append(
                f"obstruction {row['id']}: quoted approximate values do not match"
            )
    return diffs


def _data_bytes(*parts: str) -> bytes:
    # data/ beside this module: the package ships as files, never zipped.
    with open(os.path.join(os.path.dirname(__file__), "data", *parts), "rb") as fh:
        return fh.read()


def scenario_bytes(lemma_id: str) -> bytes:
    if lemma_id not in SHIPPED_LEMMAS:
        raise ValueError(f"no shipped scenario for lemma {lemma_id!r}")
    return _data_bytes("scenarios", f"lemma-{lemma_id}.json")


def load_scenario(lemma_id: str) -> LemmaSpec:
    return parse_scenario(scenario_bytes(lemma_id))


def load_baseline(lemma_id: str) -> dict:
    if lemma_id not in SHIPPED_LEMMAS:
        raise ValueError(f"no shipped baseline for lemma {lemma_id!r}")
    raw = _data_bytes("baselines", f"baseline-{lemma_id}.json")
    return json.loads(raw.decode("utf-8"))


def reproduce_lemma(lemma_id: str) -> dict:
    """Run a shipped scenario against its shipped baseline."""
    return run_lemma(load_scenario(lemma_id), baseline=load_baseline(lemma_id))
