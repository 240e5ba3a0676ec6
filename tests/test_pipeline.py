import builtins
import hashlib
import json

import pytest

from chern_gate import pipeline
from chern_gate.cli import dispatch
from chern_gate.pipeline import (
    SHIPPED_LEMMAS,
    constraint_system_for,
    diff_baseline,
    load_baseline,
    load_scenario,
    run_lemma,
)
from chern_gate.report import canonical_json, emit_report
from chern_gate.ring import GradedClass, replace
from chern_gate.scenario import parse_scenario
from chern_gate.verify import IntPoly

from conftest import ALL_LEMMAS, DIRECT_LEMMAS, PIPELINE_LEMMAS


def test_shipped_lemma_ids():
    assert SHIPPED_LEMMAS == ALL_LEMMAS


def test_every_replay_matches_its_baseline(shipped_reports):
    for lid, report in shipped_reports.items():
        assert report["baseline_diff"] == [], lid


def test_every_certificate_row_is_verified(shipped_reports):
    for lid, report in shipped_reports.items():
        for row in report["eliminations"]:
            assert row["verified"], (lid, row)
        for row in report["polynomials"]:
            assert row["verified"], (lid, row)
        for row in report["baseline_validation"]:
            assert row["verified"], (lid, row)
            assert row.get("approx_match") is not False, (lid, row)


def test_expected_verdicts(shipped_reports):
    for lid, report in shipped_reports.items():
        expected = "CONCLUDES-P4" if lid == "2.2" else "ALL-ELIMINATED"
        assert report["verdict"] == expected, lid


def test_case_rows_carry_exact_cross_checks(shipped_reports):
    for lid in PIPELINE_LEMMAS:
        report = shipped_reports[lid]
        chi_O = str(report["invariants"]["chi_O"])
        signature = report["invariants"]["signature"]
        assert report["cases"], lid
        for row in report["cases"]:
            assert row["chi_O_check"] == chi_O
            if lid in ("2.1", "2.2", "3.1"):
                assert row["l_genus_signature"] == str(signature)
            assert row["baseline_id"] is not None


def test_direct_reports_have_no_enumeration(shipped_reports):
    for lid in DIRECT_LEMMAS:
        report = shipped_reports[lid]
        assert report["invariants"] is None
        assert report["cases"] == []
        assert report["eliminations"] == []
        assert report["survivors"] == []
        assert report["polynomials"], lid
    with pytest.raises(ValueError, match="direct scenarios do not define a search"):
        constraint_system_for(load_scenario("A.1"), target=1)


def test_concluded_survivor_carries_its_certificate(shipped_reports):
    survivors = shipped_reports["2.2"]["survivors"]
    assert len(survivors) == 1
    row = survivors[0]
    assert row["baseline_id"] == "10"
    assert row["conclusion"] == "P4"
    assert row["certificate"]["type"] == "external-fact"
    assert row["certificate"]["outcome"] == "concluded"


def test_reports_are_byte_identical_across_runs():
    first = run_lemma(load_scenario("3.1"), baseline=load_baseline("3.1"))
    second = run_lemma(load_scenario("3.1"), baseline=load_baseline("3.1"))
    assert emit_report(first, "json") == emit_report(second, "json")
    assert emit_report(first, "md") == emit_report(second, "md")


# sha256 of `reproduce --lemma all --format json`, as CI pins it.
ALL_JSON_SHA256 = "a64836c3a8991030db9a2b8c826f9669111610c10071af0cf5c1b6313eb2c1f7"


def test_reproduce_all_builds_no_graded_class(monkeypatch, tmp_path, capsys):
    # GradedClass is the Fraction form the tests hold the integer paths
    # to; a command reads each case's row of integers and builds none.
    def refuse(self):
        raise AssertionError("a command built a GradedClass")

    monkeypatch.setattr(GradedClass, "__post_init__", refuse)
    out = tmp_path / "all.json"
    assert dispatch(["reproduce", "--lemma", "all", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALL_JSON_SHA256
    assert capsys.readouterr().err.count("(baseline exact match)") == 7


def test_an_already_reduced_polynomial_is_built_once(monkeypatch):
    # m^2 + m + 1 is odd at 0 and 1, so modulus 2 certifies it. Its content
    # is 1, its lead positive and its constant nonzero: neither eliminate
    # nor the verifier has anything to divide, and neither builds a copy.
    doc = {
        "lemma": "A.1",
        "mode": "direct",
        "polynomials": [{"label": "P", "coefficients": ["1", "1", "1"]}],
    }
    spec = parse_scenario(json.dumps(doc).encode())
    built = []

    def counting(self, plain=IntPoly.__post_init__):
        built.append(self.coeffs)
        plain(self)

    monkeypatch.setattr(IntPoly, "__post_init__", counting)
    (row,) = run_lemma(spec)["polynomials"]
    assert (row["certificate"]["modulus"], row["verified"]) == (2, True)
    assert built == []


@pytest.mark.parametrize("lid, builds", [("3.1", 24), ("A.2", 18)])
def test_a_printed_modular_obstruction_is_reduced_once(monkeypatch, lid, builds):
    # Every polynomial of 3.1 and A.2 has content > 1, so each takes the
    # full reduction in eliminate and again in each check of a
    # certificate. The residues of each of their three printed modular
    # obstructions come from the exact values, so only the verifier
    # reduces its polynomial: 3 builds fewer than reducing it twice.
    built = []

    def counting(self, plain=IntPoly.__post_init__):
        built.append(self.coeffs)
        plain(self)

    spec, baseline = load_scenario(lid), load_baseline(lid)
    monkeypatch.setattr(IntPoly, "__post_init__", counting)
    report = run_lemma(spec, baseline=baseline)
    assert report["baseline_diff"] == []
    assert len(built) == builds


def test_workers_do_not_change_the_report(shipped_reports):
    report = run_lemma(
        load_scenario("4.2"), baseline=load_baseline("4.2"), workers=4
    )
    assert canonical_json(report) == canonical_json(shipped_reports["4.2"])


def test_report_json_is_float_free(shipped_reports):
    def reject(_):
        raise AssertionError("float literal in report")

    for report in shipped_reports.values():
        json.loads(emit_report(report, "json"), parse_float=reject)


def test_filter_order_does_not_change_survivors():
    spec = load_scenario("3.1")
    flipped = run_lemma(replace(spec, filters=("embedding-poly", "mod12")))
    assert flipped["survivors"] == []
    assert flipped["verdict"] == "ALL-ELIMINATED"
    # first filter in the list gets first claim on every case
    assert {row["filter"] for row in flipped["eliminations"]} == {"embedding-poly"}


def test_lemma_mismatch_is_an_error():
    with pytest.raises(ValueError):
        run_lemma(load_scenario("2.1"), baseline=load_baseline("2.2"))
    with pytest.raises(ValueError):
        diff_baseline({"lemma": "2.1"}, {"lemma": "3.1"})


def test_unknown_lemma_ids_are_rejected():
    with pytest.raises(ValueError):
        load_scenario("9.9")
    with pytest.raises(ValueError):
        load_baseline("9.9")


@pytest.mark.parametrize("lemma_id", ["../baselines/baseline-2.1", "2.1.json", "", 2.1])
@pytest.mark.parametrize("loader", [pipeline.scenario_bytes, load_baseline])
def test_loaders_refuse_an_unshipped_id_before_opening_a_file(
    monkeypatch, loader, lemma_id
):
    def no_open(*args, **kwargs):
        raise AssertionError(f"open{args!r} before the id was checked")

    monkeypatch.setattr(builtins, "open", no_open)
    with pytest.raises(ValueError, match="^no shipped (scenario|baseline) for lemma"):
        loader(lemma_id)


def run_31_against(baseline):
    return run_lemma(load_scenario("3.1"), baseline=baseline)["baseline_diff"]


def test_fault_injection_char_number_cell():
    baseline = load_baseline("3.1")
    row = next(c for c in baseline["cases"] if c["id"] == "5")
    row["char_numbers"]["c1_4"] = "114"
    diff = run_31_against(baseline)
    assert "case 5: c1^4 is 113, baseline says 114" in diff


def test_fault_injection_missing_and_extra_cases():
    baseline = load_baseline("3.1")
    dropped = baseline["cases"].pop(0)
    baseline["cases"].append(
        {"id": "11", "params": {"a": 2, "b": 2}, "r": -1, "k": "1/3"}
    )
    diff = run_31_against(baseline)
    assert any("expected by the baseline but not produced" in d for d in diff)
    assert any("produced by the run but not in the baseline" in d for d in diff)
    assert any(dropped["k"] in d for d in diff)


def test_fault_injection_elimination_attribution():
    baseline = load_baseline("3.1")
    baseline["eliminated_by"]["1"] = "embedding-poly"
    diff = run_31_against(baseline)
    assert "case 1: eliminated via mod12, baseline says embedding-poly" in diff


def test_fault_injection_verdict():
    baseline = load_baseline("3.1")
    baseline["verdict"] = "CONCLUDES-P4"
    diff = run_31_against(baseline)
    assert "verdict: run says ALL-ELIMINATED, baseline says CONCLUDES-P4" in diff


def test_fault_injection_polynomial_coefficient():
    baseline = load_baseline("3.1")
    baseline["polynomials"]["2"][4] = "-253"
    diff = run_31_against(baseline)
    assert (
        "polynomial 2: coefficient of m^4 is -252, baseline says -253" in diff
    )


def test_fault_injection_invariant():
    baseline = load_baseline("3.1")
    baseline["invariants"]["target"] = 679
    diff = run_31_against(baseline)
    assert "invariant target: run has 678, baseline has 679" in diff


def test_fault_injection_approximate_value():
    baseline = load_baseline("3.1")
    baseline["obstructions"]["2"]["approx_values"]["29"] = "1.0005E+12"
    diff = run_31_against(baseline)
    assert "obstruction 2: quoted approximate values do not match" in diff


def test_fault_injection_obstruction_value():
    baseline = load_baseline("3.1")
    baseline["obstructions"]["2"]["values"][3] = "1000401930904"
    diff = run_31_against(baseline)
    assert any("divisor obstruction 2" in d and "failed" in d for d in diff)
    baseline["obstructions"]["2"]["kind"] = "sorcery"
    report = run_lemma(load_scenario("3.1"), baseline=baseline)
    rows = report["baseline_validation"]
    (row,) = [r for r in rows if (r["id"], r["kind"]) == ("2", "obstruction")]
    assert row["note"] == "unknown obstruction kind 'sorcery'"
    assert "sorcery obstruction 2: failed re-verification" in report["baseline_diff"]


# A malformed printed obstruction fails its own row, with a note that says
# why, and the run goes on: (label, the fault, the failing field, the note).
@pytest.mark.parametrize(
    "label, fault, field, note",
    [
        ("4", lambda e: e.pop("kind"), "verified", "unknown obstruction kind None"),
        (
            "4",
            lambda e: e.pop("modulus"),
            "verified",
            "modular certificate has no field 'modulus'",
        ),
        (
            "4",
            lambda e: e.update(modulus="2"),
            "verified",
            "modular certificate, modulus: expected int, got '2'",
        ),
        (
            "2",
            lambda e: e["approx_values"].update({"30": "1.0004E+12"}),
            "approx_match",
            "approximate values quoted at [30], not at divisors",
        ),
        (
            "2",
            lambda e: e["approx_values"].update({"abc": "1.0004E+12"}),
            "approx_match",
            "approx_values: not an integer: 'abc'",
        ),
        (
            "2",
            lambda e: e.update(approx_values=["1.0004E+12"]),
            "approx_match",
            "approx_values: expected an object, got list",
        ),
    ],
    ids=[
        "no-kind",
        "no-modulus",
        "string-modulus",
        "approx-off-the-divisors",
        "approx-key-not-an-integer",
        "approx-not-an-object",
    ],
)
def test_fault_injection_malformed_printed_obstruction(label, fault, field, note):
    baseline = load_baseline("3.1")
    fault(baseline["obstructions"][label])
    report = run_lemma(load_scenario("3.1"), baseline=baseline)
    rows = report["baseline_validation"]
    (row,) = [r for r in rows if (r["id"], r["kind"]) == (label, "obstruction")]
    assert (row[field], row["note"]) == (False, note)
    assert any(f"obstruction {label}" in d for d in report["baseline_diff"])


def test_flipped_filters_keep_printed_obstructions_verified():
    # embedding-poly now claims the cases the baseline attributes to mod12;
    # their printed congruences still hold for the run's own Chern numbers
    spec = replace(load_scenario("3.1"), filters=("embedding-poly", "mod12"))
    report = run_lemma(spec, baseline=load_baseline("3.1"))
    assert not [d for d in report["baseline_diff"] if "re-verification" in d]
    assert all(row["verified"] for row in report["baseline_validation"])
    assert "case 1: eliminated via embedding-poly, baseline says mod12" in (
        report["baseline_diff"]
    )


def test_fault_injection_printed_mod12_value():
    baseline = load_baseline("3.1")
    baseline["obstructions"]["1"]["value"] = "262"
    diff = run_31_against(baseline)
    assert "congruence-mod12 obstruction 1: failed re-verification" in diff


def test_fault_injection_printed_ahat_value():
    baseline = load_baseline("4.2")
    baseline["obstructions"]["2"]["value"] = "3/4"
    diff = run_lemma(load_scenario("4.2"), baseline=baseline)["baseline_diff"]
    assert "ahat obstruction 2: failed re-verification" in diff


def test_fault_injection_expected_certificate():
    baseline = load_baseline("2.1")
    baseline["expected_certificates"]["1"]["modulus"] = 5
    diff = run_lemma(
        load_scenario("2.1"), baseline=baseline
    )["baseline_diff"]
    assert any("expected-certificate 1" in d and "failed" in d for d in diff)


def test_fault_injection_concluded_case():
    baseline = load_baseline("2.2")
    baseline["concluded"]["10"] = "quadric"
    diff = run_lemma(load_scenario("2.2"), baseline=baseline)["baseline_diff"]
    assert "case 10: run concludes P4, baseline concludes quadric" in diff


def test_fault_injection_unclaimed_elimination():
    baseline = load_baseline("3.1")
    del baseline["eliminated_by"]["1"]
    diff = run_31_against(baseline)
    assert "case 1: eliminated via mod12, baseline keeps it" in diff


def test_fault_injection_elimination_the_run_does_not_make():
    baseline = load_baseline("2.2")
    baseline["eliminated_by"]["10"] = "mod12"
    diff = run_lemma(load_scenario("2.2"), baseline=baseline)["baseline_diff"]
    assert "case 10: baseline eliminates it via mod12, the run leaves it alive" in diff


def test_fault_injection_polynomial_degree():
    baseline = load_baseline("3.1")
    del baseline["polynomials"]["2"][0]
    diff = run_31_against(baseline)
    assert "polynomial 2: run has degree 8, baseline has degree 7" in diff


def test_fault_injection_polynomial_the_run_does_not_build():
    baseline = load_baseline("3.1")
    baseline["polynomials"]["99"] = ["1", "2"]
    diff = run_31_against(baseline)
    assert "polynomial 99: baseline lists it, run built none" in diff


def test_unverified_conclusion_leaves_the_case_alive(monkeypatch, capsys):
    real = pipeline.external_fact_filter

    def forged(sol, facts):
        cert = real(sol, facts)
        if cert is not None and cert.outcome == "concluded":
            return replace(cert, citation="a citation no fact carries")
        return cert

    monkeypatch.setattr(pipeline, "external_fact_filter", forged)
    assert dispatch(["reproduce", "--lemma", "2.2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "SURVIVORS-REMAIN"
    assert report["survivors"] == [{"baseline_id": "10", "ordinal": 1}]
    (row,) = [e for e in report["eliminations"] if not e["verified"]]
    assert row["baseline_id"] == "10"
    assert row["certificate"]["citation"] == "a citation no fact carries"
    assert "case 10: baseline concludes P4, the run leaves it alive" in (
        report["baseline_diff"]
    )


def test_unverified_elimination_leaves_the_case_alive(monkeypatch):
    real = pipeline.mod12_filter

    def wrong_residue(cn):
        cert = real(cn)
        return cert and replace(cert, residue=(cert.residue + 1) % 12)

    monkeypatch.setattr(pipeline, "mod12_filter", wrong_residue)
    spec = replace(load_scenario("3.1"), filters=("mod12",))
    report = run_lemma(spec, baseline=load_baseline("3.1"))
    assert len(report["survivors"]) == len(report["cases"]) == 10
    assert report["verdict"] == "SURVIVORS-REMAIN"
    assert [e["verified"] for e in report["eliminations"]] == [False] * 4
    assert "case 1: baseline eliminates it via mod12, the run leaves it alive" in (
        report["baseline_diff"]
    )


def test_fault_injection_leaves_original_data_untouched():
    # load_baseline hands out fresh structures, so mutation in one test
    # can never leak into another
    a = load_baseline("3.1")
    a["verdict"] = "broken"
    assert load_baseline("3.1")["verdict"] == "ALL-ELIMINATED"


def test_markdown_has_the_table_and_trailer(shipped_reports):
    md = emit_report(shipped_reports["3.1"], "md").decode()
    assert "# Replay of 3.1" in md
    assert "verdict: **ALL-ELIMINATED**" in md
    assert "| 3 | a=1, b=1 | -4 | 7/16 | 512 | 48 | 224 | 98 | 6 |" in md
    assert "baseline: exact match" in md
    unchecked = emit_report(run_lemma(load_scenario("3.1")), "md").decode()
    assert "baseline: not checked" in unchecked
    # Ids that are not all digits sort as text: "x10" before "x2".
    report = {**shipped_reports["3.1"], "cases": []}
    for case in shipped_reports["3.1"]["cases"]:
        report["cases"].append({**case, "baseline_id": f"x{case['baseline_id']}"})
    lines = emit_report(report, "md").decode().splitlines()
    ids = [line.split(" | ")[0][2:] for line in lines if line.startswith("| x")]
    assert ids == sorted(f"x{n}" for n in range(1, 11))
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_report(report, "xml")


def _forge_concluded_citation(monkeypatch):
    real = pipeline.external_fact_filter

    def forged(sol, facts):
        cert = real(sol, facts)
        if cert is not None and cert.outcome == "concluded":
            return replace(cert, citation="a citation no fact carries")
        return cert

    monkeypatch.setattr(pipeline, "external_fact_filter", forged)


def test_markdown_marks_an_unverified_elimination(monkeypatch, capsys):
    _forge_concluded_citation(monkeypatch)
    assert dispatch(["reproduce", "--lemma", "2.2", "--format", "md"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert (
        "- case 10: external-facts -> fact 5: classified as P4 "
        "(a citation no fact carries) -> P4 (not verified)"
    ) in lines
    assert sum(line.endswith(" (not verified)") for line in lines) == 1
    assert "- case 10: baseline concludes P4, the run leaves it alive" in lines


def test_conclusion_the_baseline_does_not_make():
    baseline = load_baseline("2.2")
    baseline["concluded"] = {}
    diff = run_lemma(load_scenario("2.2"), baseline=baseline)["baseline_diff"]
    assert diff == ["case 10: run concludes P4, baseline keeps it"]


def test_a_real_embedding_survives_a_pipeline_replay(tmp_path, capsys):
    # The smooth quadric fourfold (d=2, r=4, k=7/16): its embedding
    # polynomial has the root m=1, so the case must stay alive.
    doc = json.loads(pipeline.scenario_bytes("3.1").decode())
    del doc["k_lower"], doc["baseline_id"]
    doc.update(
        c1_sign=1,
        r_bounds=[1, 5],
        lattice={"model": "free", "d_max": 2},
        divisibility="l2_div_dr4",
        filters=["embedding-poly"],
    )
    src = tmp_path / "quadric.json"
    src.write_text(json.dumps(doc))
    assert dispatch(["run", "--scenario", str(src)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "SURVIVORS-REMAIN"
    assert report["survivors"] == [{"baseline_id": None, "ordinal": 4, "root": "1"}]
    (case,) = [c for c in report["cases"] if c["ordinal"] == 4]
    assert (case["params"], case["r"], case["k"]) == ({"d": 2}, 4, "7/16")
    (row,) = [p for p in report["polynomials"] if p["ordinal"] == 4]
    assert row["certificate"] == {"type": "root", "m": "1"}
    assert row["verified"] is True
    assert dispatch(["run", "--scenario", str(src), "--format", "md"]) == 1
    md = capsys.readouterr().out
    assert "## Survivors\n\n- case 4 (root m=1)\n" in md
