"""Command line front end.

Four subcommands: reproduce (shipped lemma against its shipped
baseline), run (a scenario file, compared against a shipped baseline
when it names one), enumerate (cases only, no filters), and eliminate
(one polynomial given as raw coefficients).

Exit codes: 0 when every case is eliminated or concluded as P4 and the
baseline matched, 1 when a case survived (a root was found or no
certificate for it verified) or the baseline disagreed, 2 for unusable
input, 3 when an internal consistency check failed (an ArithmeticError,
reported in one line). eliminate exits 1 on a root or an unverified
certificate.
"""

from __future__ import annotations

import argparse
import sys

from .obstruction import eliminate
from .pipeline import (
    SHIPPED_LEMMAS,
    load_baseline,
    reproduce_lemma,
    run_lemma,
)
from .report import (
    canonical_json,
    certificate_to_json,
    emit_report,
    int_str,
    parse_int_str,
)
from .ring import replace
from .scenario import MAX_DEGREE, parse_scenario
from .verify import IntPoly, RootFound, verify_certificate_detailed

__all__ = ["dispatch", "main"]


def _write_out(data: bytes, out: str | None) -> None:
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode("ascii"))


def _report_exit(report: dict) -> int:
    return int(bool(report["baseline_diff"]) or report["verdict"] == "SURVIVORS-REMAIN")


def _cmd_reproduce(args) -> int:
    ids = SHIPPED_LEMMAS if args.lemma == "all" else (args.lemma,)
    reports = {}
    worst = 0
    for lemma_id in ids:
        report = reproduce_lemma(lemma_id)
        reports[lemma_id] = report
        worst = max(worst, _report_exit(report))
        diff = report["baseline_diff"]
        status = "baseline exact match" if not diff else f"{len(diff)} discrepancies"
        print(f"{lemma_id}: {report['verdict']} ({status})", file=sys.stderr)
    if args.lemma == "all":
        if args.format == "md":
            data = b"\n".join(emit_report(r, "md") for r in reports.values())
        else:
            data = canonical_json(reports)
    else:
        data = emit_report(reports[ids[0]], args.format)
    _write_out(data, args.out)
    return worst


def _read_scenario(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _cmd_run(args) -> int:
    spec = parse_scenario(_read_scenario(args.scenario))
    baseline = load_baseline(spec.baseline_id) if spec.baseline_id else None
    report = run_lemma(spec, baseline=baseline)
    _write_out(emit_report(report, args.format), args.out)
    return _report_exit(report)


def _cmd_enumerate(args) -> int:
    spec = parse_scenario(_read_scenario(args.scenario))
    if spec.mode != "pipeline":
        raise ValueError("direct scenarios have nothing to enumerate")
    bare = replace(spec, filters=(), facts=(), baseline_id=None)
    report = run_lemma(bare)
    _write_out(emit_report(report, args.format), args.out)
    return 0


def _cmd_eliminate(args) -> int:
    desc = [parse_int_str(p.strip()) for p in args.coeffs.split(",")]
    poly = IntPoly.from_desc(desc)
    if poly.degree > MAX_DEGREE:
        raise ValueError(f"degree {poly.degree} exceeds the budget of {MAX_DEGREE}")
    cert = eliminate(poly)
    ok, reason = verify_certificate_detailed(poly, cert)
    payload = {
        "polynomial": [int_str(c) for c in poly.desc_coeffs],
        "certificate": certificate_to_json(cert),
        "verified": ok,
    }
    if not ok:
        payload["note"] = reason
    _write_out(canonical_json(payload), args.out)
    if isinstance(cert, RootFound) or not ok:
        return 1
    return 0


def _output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "md"), default="json")
    sub.add_argument("--out", help="write the report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chern-gate",
        description=(
            "Exact replay of the fourfold case eliminations: enumeration, "
            "characteristic numbers, and no-root certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "reproduce", help="run a shipped lemma against its shipped baseline"
    )
    rep.add_argument("--lemma", required=True, choices=SHIPPED_LEMMAS + ("all",))
    _output_args(rep)
    rep.set_defaults(func=_cmd_reproduce)

    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    _output_args(run)
    run.set_defaults(func=_cmd_run)

    enum = sub.add_parser(
        "enumerate", help="list the cases a scenario produces, filters off"
    )
    enum.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    _output_args(enum)
    enum.set_defaults(func=_cmd_enumerate)

    elim = sub.add_parser(
        "eliminate", help="certify one polynomial from raw coefficients"
    )
    elim.add_argument(
        "--coeffs",
        required=True,
        help=(
            "comma-separated integer coefficients, highest power first; "
            "write --coeffs=-1,5 when the first one is negative"
        ),
    )
    elim.add_argument("--out", help="write the certificate here instead of stdout")
    elim.set_defaults(func=_cmd_eliminate)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
