"""Replaying a lemma end to end.

run_lemma drives the full chain: Hodge diamond to the Riemann-Roch
target, lattice enumeration, characteristic-number tables and the
configured elimination filters. Each case keeps its data in one record,
and one table maps each filter name to the record key it reads and its
engine; a direct scenario is the single filter embedding-poly over the
polynomials it lists. An engine takes the very subject that
verify.verify_certificate re-checks its certificate against, and only
a verified certificate decides a case: one that fails is listed with
verified false and the case stays alive. The verdict is read from the
survivors, so it says what the rows say.
When a baseline is supplied the run is compared against it cell by
cell, and every obstruction the baseline records in printed form is
completed into a certificate and verified against the run's own data
for that case (its polynomial, characteristic numbers or Chern data),
independently of whatever certificate the engine chose for itself.
"""

from __future__ import annotations

import json
import os
from functools import cache

from .obstruction import (
    ahat_filter,
    build_embedding_polynomial,
    eliminate,
    external_fact_filter,
    mod12_filter,
)
from .report import _COLUMNS, certificate_to_json, frac_str, int_str, sci_5
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
from .scenario import (
    LEMMA_IDS,
    Baseline,
    LemmaSpec,
    ScenarioError,
    parse_baseline,
    parse_scenario,
)
from .search import ConstraintSystem, enumerate_cases, to_chern_case
from .verify import MAX_MODULUS, RootFound, verify_certificate
from .version import __version__

__all__ = [
    "SHIPPED_LEMMAS",
    "constraint_system_for",
    "run_lemma",
    "diff_baseline",
    "scenario_bytes",
    "load_scenario",
    "baseline_bytes",
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


def _checked(subject, cert) -> dict:
    """A checked certificate as a report row shows it: its JSON,
    verified, and a note saying why only when it fails."""
    ok, reason = verify_certificate(subject, cert)
    row = {"certificate": certificate_to_json(cert), "verified": ok}
    if not ok:
        row["note"] = reason
    return row


def run_lemma(
    spec: LemmaSpec, baseline: Baseline | dict | None = None, workers: int = 1
) -> dict:
    """The report of spec, diffed against baseline when one is given. A
    Baseline is used as given, and a decoded JSON document is read by
    parse_baseline first; one for another lemma is refused by
    diff_baseline. workers is accepted and ignored: the benchmark harness
    still passes it."""
    if baseline is not None and not isinstance(baseline, Baseline):
        baseline = parse_baseline(baseline)
    # records: ordinal -> the case's data, keyed by what a filter or a
    # printed obstruction is about ("char_numbers", "case", "facts", "poly").
    if spec.mode == "direct":
        invariants, case_rows, filters = None, [], ("embedding-poly",)
        records = {i: {"poly": p} for i, (_, p) in enumerate(spec.polynomials, 1)}
        ids = {i: label for i, (label, _) in enumerate(spec.polynomials, 1)}
    else:
        inv = complete_invariants(invariants_from_diamond(spec.diamond))
        invariants = {name: getattr(inv, name) for name in inv._fields}
        system = constraint_system_for(spec, target=inv.target)
        solutions = enumerate_cases(system)
        case_rows, records, ids = _case_rows(solutions, inv, spec.facts, baseline)
        filters = spec.filters
    labels = {o: f"case-{o}" if bid is None else bid for o, bid in ids.items()}
    poly_rows: list[dict] = []
    eliminations: list[dict] = []
    survivors: list[dict] = []
    decided = {}  # ordinal -> the verified certificate that took the case
    roots = {}  # ordinal -> a verified positive integer root
    # Per run, not at import: the benchmark's tracer and tests rebind these names.
    engines = {
        "mod12": ("char_numbers", mod12_filter),
        "ahat": ("case", ahat_filter),
        "external-facts": ("facts", external_fact_filter),
        "embedding-poly": ("poly", eliminate),
    }
    for name in filters:
        key, engine = engines[name]
        for o, rec in records.items():
            if o in decided:
                continue
            if key not in rec:  # only a polynomial waits until a filter asks
                rec[key] = build_embedding_polynomial(rec["case"])
            subject = rec[key]
            cert = engine(subject)
            if cert is None:
                continue
            row = {"ordinal": o, "baseline_id": ids[o], **_checked(subject, cert)}
            ok = row["verified"]
            if key == "poly":
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


def _case_rows(solutions, inv, facts, baseline: Baseline | None):
    """The report's case table, plus each case's record (the data its
    filters read) and baseline id, keyed by ordinal."""
    cases = () if baseline is None else baseline.cases
    id_by_key = {(params, r, k): bid for params, r, k, bid, _ in cases}
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
        key = _case_key(params, sol.r, k)
        bid = id_by_key[key] if key in id_by_key else None
        records[sol.ordinal] = dict(char_numbers=cn, case=case, facts=(case, facts))
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


def _validate_obstruction(label: str, printed: tuple, live: dict) -> dict:
    """Complete a printed obstruction into a certificate and verify it
    against the run's own data for the same case. The note gives the
    printed note, then why the certificate failed and where approximate
    values are quoted off the divisors."""
    kind, about, cert, note, approx = printed
    row = {"id": label, "kind": "obstruction", "obstruction": kind, "verified": False}
    notes = [note]
    subject = live.get(label, {}).get(about)
    if subject is None:
        missing = f"{about} for case" if label in live else "case"
        notes.append(f"the run has no {missing} {label}")
    else:
        if kind == "modular":
            # The residues come from the exact values divided by the
            # printed content, the lead made positive, so only the verifier
            # reduces the polynomial. No residues for a content that does not
            # divide it or a modulus above the cap: the verifier rejects both.
            content, cs, modulus = cert.content, subject.coeffs, cert.modulus
            sign = -1 if cs[-1] < 0 else 1
            divides = content >= 1 and not any(c % content for c in cs)
            scanned = range(modulus) if divides and modulus <= MAX_MODULUS else ()
            values = map(subject.evaluate, scanned)
            residues = tuple(sign * v // content % modulus for v in values)
            cert = replace(cert, residues=residues)
        elif kind == "congruence-mod12":
            cert = replace(cert, residue=cert.value % 12)
        row["verified"], reason = verify_certificate(subject, cert)
        notes.append(reason)
        if approx is not None:
            lookup = dict(zip(cert.divisors, cert.values))
            stray = [m for m, _ in approx if m not in lookup]
            if stray:
                notes.append(f"approximate values quoted at {stray}, not at divisors")
            row["approx_match"] = not stray and all(
                sci_5(lookup[m]) == text for m, text in approx
            )
    if any(notes):
        row["note"] = "; ".join(filter(None, notes))
    return row


def _validate_printed(baseline: Baseline, live: dict, poly_rows: list[dict]) -> list:
    """Re-check every printed artifact of the baseline: polynomials
    exactly against the run's polynomial rows, printed obstructions by
    _validate_obstruction, and expected engine certificates against the
    run's row, which must have verified."""
    engine = {row["label"]: row for row in poly_rows}
    rows = []
    for label, expected in baseline.polynomials:
        ours = engine[label]["coefficients"] if label in engine else None
        faults = _poly_faults(ours, expected)
        row = {"id": label, "kind": "polynomial", "verified": not faults}
        if faults:
            row["note"] = faults[0]  # the first from the top; the diff has all
        rows.append(row)
    for label, printed in baseline.obstructions:
        rows.append(_validate_obstruction(label, printed, live))
    for label, cert in baseline.expected_certificates:
        row = engine.get(label)
        out = {"id": label, "kind": "expected-certificate", "verified": False}
        if row is None:
            out["note"] = f"the run has no engine certificate for {label}"
        elif not row["verified"]:
            out["note"] = f"the run's engine certificate fails: {row['note']}"
        elif row["certificate"] != certificate_to_json(cert):
            out["note"] = "the run's engine certificate is a different one"
        else:
            out["verified"] = True
        rows.append(out)
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


def diff_baseline(report: dict, baseline: Baseline) -> list[str]:
    """Everything the run disagrees with the baseline (as parse_baseline
    reads it) about, in words. An empty list is an exact match. Raises
    ScenarioError when the two are not even about the same lemma."""
    if report.get("lemma") != baseline.lemma:
        raise ScenarioError(
            "lemma",
            f"baseline is for lemma {baseline.lemma!r}, "
            f"report is for {report.get('lemma')!r}",
        )
    diffs: list[str] = []

    rinv = report.get("invariants") or {}
    for key, expected in zip(DerivedInvariants._fields, baseline.invariants):
        if expected is not None and expected != rinv.get(key):
            diffs.append(
                f"invariant {key}: run has {rinv.get(key)}, baseline has {expected}"
            )

    bcases = {(params, r, k): (bid, cn) for params, r, k, bid, cn in baseline.cases}
    rcases = {
        _case_key(c["params"], c["r"], c["k"]): c for c in report.get("cases", [])
    }
    for keys, what in (
        (bcases.keys() - rcases.keys(), "expected by the baseline but not produced"),
        (rcases.keys() - bcases.keys(), "produced by the run but not in the baseline"),
    ):
        for params, r, k in sorted(keys):
            inside = ", ".join(f"{name}={value}" for name, value in params)
            diffs.append(f"case ({inside}, r={r}, k={k}) {what}")
    for key in sorted(bcases.keys() & rcases.keys()):
        label, expected_cn = bcases[key]
        ours_cn = rcases[key]["char_numbers"]
        for (field, symbol), expected in zip(_COLUMNS, expected_cn or ()):
            if expected is not None and expected != ours_cn[field]:
                diffs.append(
                    f"case {label}: {symbol} is {ours_cn[field]}, "
                    f"baseline says {expected}"
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
        # Every label either side names, None where that side says nothing.
        expected = dict.fromkeys(run[key]) | dict(getattr(baseline, key))
        actual = dict.fromkeys(expected) | run[key]
        for label in sorted(expected):
            exp, act = expected[label], actual[label]
            if exp != act:
                text = only_run if exp is None else only_base if act is None else both
                diffs.append(text.format(label=label, exp=exp, act=act))

    if report.get("verdict") != baseline.verdict:
        diffs.append(
            f"verdict: run says {report.get('verdict')}, "
            f"baseline says {baseline.verdict}"
        )

    rpolys = {
        row["label"]: row["coefficients"] for row in report.get("polynomials", [])
    }
    for label, expected in baseline.polynomials:
        for fault in _poly_faults(rpolys.get(label), expected):
            diffs.append(f"polynomial {label}: {fault}")

    for row in report.get("baseline_validation") or ():
        if row["kind"] == "polynomial":
            continue  # coefficient mismatches are reported above
        what = row["kind"]
        if what == "obstruction":
            what = f"{row['obstruction']} obstruction"
        if not row["verified"]:
            why = f": {row['note']}" if "note" in row else ""
            diffs.append(f"{what} {row['id']}: failed re-verification{why}")
        if row.get("approx_match") is False:
            diffs.append(
                f"obstruction {row['id']}: quoted approximate values do not match"
            )
    return diffs


def _poly_faults(ours, expected) -> list[str]:
    """How the run's coefficients ours, highest power first, differ from a
    baseline's: one line when the run has no polynomial (ours is None) or
    one of another degree, else one for each coefficient that differs."""
    if ours is None:
        return ["baseline lists it, run built none"]
    if len(ours) != len(expected):
        return [
            f"run has degree {len(ours) - 1}, baseline has degree {len(expected) - 1}"
        ]
    top = len(ours) - 1
    return [
        f"coefficient of m^{top - i} is {a}, baseline says {b}"
        for i, (a, b) in enumerate(zip(ours, expected))
        if a != b
    ]


def _data_bytes(kind: str, prefix: str, lemma_id: str) -> bytes:
    if lemma_id not in SHIPPED_LEMMAS:
        raise ValueError(f"no shipped {kind} for lemma {lemma_id!r}")
    # data/ beside this module: the package ships as files, never zipped.
    path = os.path.join(os.path.dirname(__file__), "data", kind + "s")
    with open(os.path.join(path, f"{prefix}-{lemma_id}.json"), "rb") as fh:
        return fh.read()


def scenario_bytes(lemma_id: str) -> bytes:
    return _data_bytes("scenario", "lemma", lemma_id)


def load_scenario(lemma_id: str) -> LemmaSpec:
    return parse_scenario(scenario_bytes(lemma_id))


def baseline_bytes(lemma_id: str) -> bytes:
    return _data_bytes("baseline", "baseline", lemma_id)


@cache
def load_baseline(lemma_id: str) -> Baseline:
    """The shipped baseline of lemma_id, parsed on the first call and
    shared by every later one: a Baseline is immutable all the way down,
    so no caller can change what another reads."""
    return parse_baseline(json.loads(baseline_bytes(lemma_id)))


def reproduce_lemma(lemma_id: str) -> dict:
    """Run a shipped scenario against its shipped baseline."""
    return run_lemma(load_scenario(lemma_id), baseline=load_baseline(lemma_id))
