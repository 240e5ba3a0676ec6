import builtins
import copy
import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chern_gate import pipeline
from chern_gate.cli import dispatch
from chern_gate.pipeline import (
    SHIPPED_LEMMAS,
    baseline_bytes,
    constraint_system_for,
    diff_baseline,
    load_baseline,
    load_scenario,
    run_lemma,
    scenario_bytes,
)
from chern_gate.report import canonical_json, emit_report
from chern_gate.ring import GradedClass, replace
from chern_gate.scenario import (
    FILTER_NAMES,
    ScenarioError,
    certificate_from_json,
    parse_baseline,
    parse_scenario,
)
from chern_gate.verify import PSI_13, IntPoly

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
    with pytest.raises(ValueError, match="^lemma: baseline is for lemma '3.1'"):
        diff_baseline({"lemma": "2.1"}, load_baseline("3.1"))


def test_unknown_lemma_ids_are_rejected():
    with pytest.raises(ValueError):
        load_scenario("9.9")
    with pytest.raises(ValueError):
        load_baseline("9.9")


@pytest.mark.parametrize("lemma_id", ["../baselines/baseline-2.1", "2.1.json", "", 2.1])
@pytest.mark.parametrize("loader", [scenario_bytes, baseline_bytes, load_baseline])
def test_loaders_refuse_an_unshipped_id_before_opening_a_file(
    monkeypatch, loader, lemma_id
):
    def no_open(*args, **kwargs):
        raise AssertionError(f"open{args!r} before the id was checked")

    monkeypatch.setattr(builtins, "open", no_open)
    with pytest.raises(ValueError, match="^no shipped (scenario|baseline) for lemma"):
        loader(lemma_id)


def raw_baseline(lid):
    """A shipped baseline as a fresh decoded document, for a test to change."""
    return json.loads(baseline_bytes(lid))


def run_31_against(baseline):
    return run_lemma(load_scenario("3.1"), baseline=baseline)["baseline_diff"]


def test_fault_injection_char_number_cell():
    baseline = raw_baseline("3.1")
    row = next(c for c in baseline["cases"] if c["id"] == "5")
    row["char_numbers"]["c1_4"] = "114"
    diff = run_31_against(baseline)
    assert "case 5: c1^4 is 113, baseline says 114" in diff


def test_fault_injection_missing_and_extra_cases():
    baseline = raw_baseline("3.1")
    dropped = baseline["cases"].pop(0)
    baseline["cases"].append(
        {"id": "11", "params": {"a": 2, "b": 2}, "r": -1, "k": "1/3"}
    )
    diff = run_31_against(baseline)
    assert any("expected by the baseline but not produced" in d for d in diff)
    assert any("produced by the run but not in the baseline" in d for d in diff)
    assert any(dropped["k"] in d for d in diff)


def test_fault_injection_elimination_attribution():
    baseline = raw_baseline("3.1")
    baseline["eliminated_by"]["1"] = "embedding-poly"
    diff = run_31_against(baseline)
    assert "case 1: eliminated via mod12, baseline says embedding-poly" in diff


def test_fault_injection_verdict():
    baseline = raw_baseline("3.1")
    baseline["verdict"] = "CONCLUDES-P4"
    diff = run_31_against(baseline)
    assert "verdict: run says ALL-ELIMINATED, baseline says CONCLUDES-P4" in diff


def test_fault_injection_polynomial_coefficient():
    baseline = raw_baseline("3.1")
    baseline["polynomials"]["2"][4] = "-253"
    baseline["polynomials"]["2"][6] = "649"
    report = run_lemma(load_scenario("3.1"), baseline=baseline)
    diff = report["baseline_diff"]
    assert "polynomial 2: coefficient of m^4 is -252, baseline says -253" in diff
    assert "polynomial 2: coefficient of m^2 is 648, baseline says 649" in diff
    # the row names the first coefficient that differs, from the top
    assert _failing_validation_notes(report) == {
        ("polynomial", "2"): "coefficient of m^4 is -252, baseline says -253"
    }


def test_fault_injection_invariant():
    baseline = raw_baseline("3.1")
    baseline["invariants"]["target"] = 679
    diff = run_31_against(baseline)
    assert "invariant target: run has 678, baseline has 679" in diff


def test_fault_injection_approximate_value():
    baseline = raw_baseline("3.1")
    baseline["obstructions"]["2"]["approx_values"]["29"] = "1.0005E+12"
    diff = run_31_against(baseline)
    assert "obstruction 2: quoted approximate values do not match" in diff


def test_fault_injection_obstruction_value():
    baseline = raw_baseline("3.1")
    baseline["obstructions"]["2"]["values"][3] = "1000401930904"
    diff = run_31_against(baseline)
    assert any("divisor obstruction 2" in d and "failed" in d for d in diff)
    # an unknown kind is a fault of the baseline's shape, not of a value
    baseline["obstructions"]["2"]["kind"] = "sorcery"
    with pytest.raises(
        ScenarioError,
        match="^obstructions.2.kind: unknown obstruction kind 'sorcery'$",
    ):
        run_lemma(load_scenario("3.1"), baseline=baseline)


# A printed obstruction of the wrong shape is refused at its JSON path; one
# whose values do not hold fails its own row, with a note that says why,
# and the run goes on: (label, the fault, the refusal, the row's note).
@pytest.mark.parametrize(
    "label, fault, refusal, note",
    [
        ("4", lambda e: e.pop("kind"), "4.kind: missing required key 'kind'", None),
        (
            "4",
            lambda e: e.pop("modulus"),
            "4.modulus: missing required key 'modulus'",
            None,
        ),
        (
            "4",
            lambda e: e.update(modulus="2"),
            "4.modulus: expected integer, got '2'",
            None,
        ),
        (
            "2",
            lambda e: e["approx_values"].update({"30": "1.0004E+12"}),
            None,
            "approximate values quoted at [30], not at divisors",
        ),
        (
            "2",
            lambda e: e["approx_values"].update({"abc": "1.0004E+12"}),
            "2.approx_values.abc: not an integer: 'abc'",
            None,
        ),
        (
            "2",
            lambda e: e.update(approx_values=["1.0004E+12"]),
            "2.approx_values: expected object, got ['1.0004E+12']",
            None,
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
def test_fault_injection_malformed_printed_obstruction(label, fault, refusal, note):
    baseline = raw_baseline("3.1")
    fault(baseline["obstructions"][label])
    if refusal is not None:
        with pytest.raises(ScenarioError) as err:
            run_lemma(load_scenario("3.1"), baseline=baseline)
        assert str(err.value) == f"obstructions.{refusal}"
        return
    report = run_lemma(load_scenario("3.1"), baseline=baseline)
    rows = report["baseline_validation"]
    (row,) = [r for r in rows if (r["id"], r["kind"]) == (label, "obstruction")]
    assert (row["approx_match"], row["note"]) == (False, note)
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
    baseline = raw_baseline("3.1")
    baseline["obstructions"]["1"]["value"] = "262"
    diff = run_31_against(baseline)
    assert (
        "congruence-mod12 obstruction 1: failed re-verification: "
        "<c1^2 c2> + 2<c1^4> is 261, certificate claims 262"
    ) in diff


def test_fault_injection_printed_ahat_value():
    baseline = raw_baseline("4.2")
    baseline["obstructions"]["2"]["value"] = "3/4"
    diff = run_lemma(load_scenario("4.2"), baseline=baseline)["baseline_diff"]
    assert (
        "ahat obstruction 2: failed re-verification: "
        "A-hat genus is 1/4, certificate claims 3/4"
    ) in diff


def test_fault_injection_expected_certificate():
    baseline = raw_baseline("2.1")
    baseline["expected_certificates"]["1"]["modulus"] = 5
    diff = run_lemma(
        load_scenario("2.1"), baseline=baseline
    )["baseline_diff"]
    assert any("expected-certificate 1" in d and "failed" in d for d in diff)


def test_fault_injection_concluded_case():
    baseline = raw_baseline("2.2")
    baseline["concluded"]["10"] = "quadric"
    diff = run_lemma(load_scenario("2.2"), baseline=baseline)["baseline_diff"]
    assert "case 10: run concludes P4, baseline concludes quadric" in diff


def test_fault_injection_unclaimed_elimination():
    baseline = raw_baseline("3.1")
    del baseline["eliminated_by"]["1"]
    diff = run_31_against(baseline)
    assert "case 1: eliminated via mod12, baseline keeps it" in diff


def test_fault_injection_elimination_the_run_does_not_make():
    baseline = raw_baseline("2.2")
    baseline["eliminated_by"]["10"] = "mod12"
    diff = run_lemma(load_scenario("2.2"), baseline=baseline)["baseline_diff"]
    assert "case 10: baseline eliminates it via mod12, the run leaves it alive" in diff


def test_fault_injection_polynomial_degree():
    baseline = raw_baseline("3.1")
    del baseline["polynomials"]["2"][0]
    report = run_lemma(load_scenario("3.1"), baseline=baseline)
    assert "polynomial 2: run has degree 8, baseline has degree 7" in (
        report["baseline_diff"]
    )
    assert _failing_validation_notes(report) == {
        ("polynomial", "2"): "run has degree 8, baseline has degree 7"
    }


def test_fault_injection_polynomial_the_run_does_not_build():
    baseline = raw_baseline("3.1")
    baseline["polynomials"]["99"] = ["1", "2"]
    report = run_lemma(load_scenario("3.1"), baseline=baseline)
    assert "polynomial 99: baseline lists it, run built none" in (
        report["baseline_diff"]
    )
    assert _failing_validation_notes(report) == {
        ("polynomial", "99"): "baseline lists it, run built none"
    }


def test_unverified_conclusion_leaves_the_case_alive(monkeypatch, capsys):
    real = pipeline.external_fact_filter

    def forged(subject):
        cert = real(subject)
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


@pytest.mark.parametrize(
    "lid, change, refusal",
    [
        ("3.1", lambda b: b.update(extra=1), "extra: unknown key"),
        ("3.1", lambda b: b["cases"][4].update(e=15), "cases[4].e: unknown key"),
        (
            "3.1",
            lambda b: b["invariants"].update(chi=6.0),
            "invariants.chi: expected integer, got 6.0",
        ),
        (
            "3.1",
            lambda b: b["cases"][0].update(r=True),
            "cases[0].r: expected integer, got True",
        ),
        (
            "2.2",
            lambda b: b["concluded"].update({"10": "P\u2074"}),
            "concluded.10: expected printable ASCII, got 'P\\u2074'",
        ),
        (
            "4.2",
            lambda b: b["obstructions"]["3"].update(divisors=["1"]),
            "obstructions.3.divisors: unknown key for obstruction kind 'modular'",
        ),
        (
            "4.2",
            lambda b: b["obstructions"]["1"].update(approx_values={}),
            "obstructions.1.approx_values: unknown key for obstruction kind 'modular'",
        ),
        (
            "2.1",
            lambda b: b["expected_certificates"]["1"].update(bogus=1),
            "expected_certificates.1.bogus: unknown key for certificate type 'modular'",
        ),
        (
            "2.1",
            lambda b: b["expected_certificates"]["1"].update(modulus=None),
            "expected_certificates.1.modulus: expected integer, got None",
        ),
        (
            "A.1",
            lambda b: b["expected_certificates"].update({"1": ["modular"]}),
            "expected_certificates.1: expected object, got ['modular']",
        ),
    ],
)
def test_parse_baseline_refuses_a_fault_of_shape_at_its_path(lid, change, refusal):
    baseline = raw_baseline(lid)
    change(baseline)
    with pytest.raises(ScenarioError) as err:
        parse_baseline(baseline)
    assert str(err.value) == refusal
    with pytest.raises(ScenarioError, match=r"^\$: top level must be an object$"):
        parse_baseline([baseline])
    # a certificate read on its own is refused at $ in the same way
    with pytest.raises(ScenarioError, match=r"^\$: top level must be an object$"):
        certificate_from_json([{"type": "root", "m": "3"}])


# What the probe of a baseline's shape sets one field to; or it deletes
# the field.
MUTATIONS = ("delete", None, 1, "x", [], {}, 2.5, True, -1, "1/0")


def on_path(inner: str, outer: str) -> bool:
    """Whether the JSON path inner is outer or lies within it."""
    return inner == outer or inner.startswith(outer) and inner[len(outer)] in ".["


def json_slots(doc, path=""):
    """Every (container, key or index, JSON path) of the JSON value doc."""
    keyed = isinstance(doc, dict)
    for key, value in doc.items() if keyed else enumerate(doc):
        here = (f"{path}.{key}" if path else key) if keyed else f"{path}[{key}]"
        yield doc, key, here
        if isinstance(value, (dict, list)):
            yield from json_slots(value, here)


# One field of a shipped baseline, by its JSON path, and what it is set to
# (or "delete"); or an object, the top level at "", and "insert", which
# adds the key "bogus" to it.
BASELINE_MUTANTS = [(lid, "", "insert") for lid in SHIPPED_LEMMAS] + [
    (lid, path, value)
    for lid in SHIPPED_LEMMAS
    for container, key, path in json_slots(raw_baseline(lid))
    for value in MUTATIONS + ("insert",) * isinstance(container[key], dict)
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BASELINE_MUTANTS))
@example(("2.1", "expected_certificates.1", "insert"))
@example(("A.1", "expected_certificates.1", "insert"))
def test_a_baseline_with_one_field_changed_runs_or_is_refused_at_a_path(mutant):
    lid, path, value = mutant
    baseline = raw_baseline(lid)
    if value == "insert":
        slots = json_slots(baseline)
        target = next((c[k] for c, k, p in slots if p == path), baseline)
        target["bogus"], path = 1, f"{path}.bogus".lstrip(".")
    else:
        container, key = next((c, k) for c, k, p in json_slots(baseline) if p == path)
        if value == "delete":
            del container[key]
        else:
            container[key] = copy.deepcopy(value)
    try:
        report = run_lemma(load_scenario(lid), baseline=baseline)
    except ValueError as exc:
        # refused where the field was changed, or at the object around it
        assert isinstance(exc, ScenarioError), exc
        assert str(exc) == f"{exc.path}: {exc.reason}"
        assert on_path(path, exc.path) or on_path(exc.path, path), exc
    else:
        emit_report(report, "json"), emit_report(report, "md")
        # A key an object does not define is refused; one that is a label
        # (a case's parameter) is a case the run does not produce.
        assert value != "insert" or report["baseline_diff"], path


# One field of a shipped scenario, by its JSON path, and what it is set to
# (or "delete"): 10**30 is past the range len() takes.
SCENARIO_MUTANTS = [
    (lid, path, value)
    for lid in SHIPPED_LEMMAS
    for _, _, path in json_slots(json.loads(scenario_bytes(lid)))
    for value in MUTATIONS + (10**30,)
]
# A rule that reads two fields may refuse a change of one at the other: the
# diamond's symmetries tie its cells, c1_sign fixes the sign of r_bounds,
# r_bounds times the grid is held to the budget at lattice, and the mode
# says which keys the whole scenario may have.
TIED = {"hodge": "hodge", "c1_sign": "r_bounds", "r_bounds": "lattice", "mode": ""}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SCENARIO_MUTANTS))
@example(("2.1", "lattice.e_max", 10**30))
def test_a_scenario_with_one_field_changed_parses_or_is_refused_at_a_path(mutant):
    lid, path, value = mutant
    doc = json.loads(scenario_bytes(lid))
    container, key = next((c, k) for c, k, p in json_slots(doc) if p == path)
    if value == "delete":
        del container[key]
    else:
        container[key] = copy.deepcopy(value)
    try:
        parse_scenario(json.dumps(doc).encode())
    except ValueError as exc:
        # refused where the field was changed, at the object around it, or
        # at the field a rule ties it to
        assert isinstance(exc, ScenarioError), exc
        assert str(exc) == f"{exc.path}: {exc.reason}"
        tie = TIED.get(path.split(".")[0].split("[")[0])
        assert (
            on_path(path, exc.path)
            or on_path(exc.path, path)
            or tie == ""
            or tie is not None and on_path(exc.path, tie)
        ), exc


def test_fault_injection_leaves_original_data_untouched():
    # baseline_bytes hands out fresh bytes, and a fault injected into the
    # document they decode to never reaches the parsed record load_baseline
    # shares, so mutation in one test can never leak into another
    a = raw_baseline("3.1")
    a["verdict"] = "CONCLUDES-P4"
    assert run_31_against(a) == [
        "verdict: run says ALL-ELIMINATED, baseline says CONCLUDES-P4"
    ]
    assert raw_baseline("3.1")["verdict"] == "ALL-ELIMINATED"
    assert load_baseline("3.1").verdict == "ALL-ELIMINATED"
    assert pipeline.reproduce_lemma("3.1")["baseline_diff"] == []


@pytest.mark.parametrize("lid", SHIPPED_LEMMAS)
def test_a_shipped_baseline_is_parsed_once_and_shared(lid):
    # A record of tuples and frozen records hashes; a dict or list anywhere
    # inside it would not, so the record can be shared without a copy.
    baseline = load_baseline(lid)
    hash(baseline)
    assert load_baseline(lid) is baseline
    with pytest.raises(AttributeError, match="frozen"):
        baseline.verdict = "broken"


@pytest.mark.parametrize("lid", SHIPPED_LEMMAS)
def test_the_parsed_record_and_the_document_give_the_same_report(lid):
    spec = load_scenario(lid)
    shared = run_lemma(spec, baseline=load_baseline(lid))
    fresh = run_lemma(spec, baseline=raw_baseline(lid))
    for fmt in ("json", "md"):
        assert emit_report(shared, fmt) == emit_report(fresh, fmt)


def test_reproduce_parses_its_baseline_once(monkeypatch):
    parsed = []

    def counting(doc):
        parsed.append(doc["lemma"])
        return parse_baseline(doc)

    monkeypatch.setattr(pipeline, "parse_baseline", counting)
    load_baseline.cache_clear()
    first = emit_report(pipeline.reproduce_lemma("3.1"))
    assert emit_report(pipeline.reproduce_lemma("3.1")) == first
    assert parsed == ["3.1"]


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

    def forged(subject):
        cert = real(subject)
        if cert is not None and cert.outcome == "concluded":
            return replace(cert, citation="a citation no fact carries")
        return cert

    monkeypatch.setattr(pipeline, "external_fact_filter", forged)


def test_a_failing_row_says_why(monkeypatch, capsys):
    _forge_concluded_citation(monkeypatch)
    baseline = raw_baseline("2.2")
    baseline["obstructions"] = {"10": {"kind": "ahat", "value": "1/4", "note": "n"}}
    report = run_lemma(load_scenario("2.2"), baseline=baseline)
    (row,) = [e for e in report["eliminations"] if not e["verified"]]
    assert row["note"].startswith("certificate quotes fact 5, the fact for r = 5 ")
    (row,) = report["baseline_validation"]
    assert row["note"] == "n; r = 5 is odd, so the A-hat genus need not be integral"
    # psi_13 is a strong pseudoprime to every Miller-Rabin witness, so the
    # divisor list that stops at it proves nothing
    assert dispatch(["eliminate", "--coeffs=1,1287836182260,-" + str(PSI_13)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is False
    assert payload["note"] == (
        f"divisor {PSI_13} is at least psi_13, so its primality is unproven"
    )


def _failing_validation_notes(report):
    return {
        (row["kind"], row["id"]): row.get("note")
        for row in report["baseline_validation"]
        if not row["verified"]
    }


def test_every_failing_validation_row_says_why(monkeypatch):
    # A printed obstruction on a label the run does not have, and a
    # modular one on a case that mod12 decided before any polynomial
    # was built, have no subject to be verified against.
    baseline = raw_baseline("3.1")
    printed = baseline["obstructions"]
    printed["99"] = printed["1"]
    printed["1"] = {"kind": "modular", "content": "4", "modulus": 2, "note": "n"}
    report = run_lemma(load_scenario("3.1"), baseline=baseline)
    assert _failing_validation_notes(report) == {
        ("obstruction", "99"): "the run has no case 99",
        ("obstruction", "1"): "n; the run has no poly for case 1",
    }
    # An expected certificate with no engine row, one the engine's row
    # differs from, and one whose engine row failed verification.
    baseline = raw_baseline("A.1")
    expected = baseline["expected_certificates"]
    expected["99"] = expected["1"]
    report = run_lemma(load_scenario("A.1"), baseline=baseline)
    assert _failing_validation_notes(report) == {
        ("expected-certificate", "99"): "the run has no engine certificate for 99",
    }
    expected["1"] = {**expected["1"], "residues": [2, 2, 1]}
    del expected["99"]
    report = run_lemma(load_scenario("A.1"), baseline=baseline)
    assert _failing_validation_notes(report) == {
        ("expected-certificate", "1"): (
            "the run's engine certificate is a different one"
        ),
    }
    real = pipeline.eliminate
    monkeypatch.setattr(
        pipeline, "eliminate", lambda poly: replace(real(poly), residues=(1, 1, 1))
    )
    report = run_lemma(load_scenario("A.1"), baseline=load_baseline("A.1"))
    assert _failing_validation_notes(report) == {
        ("expected-certificate", "1"): (
            "the run's engine certificate fails: residue at 0 mod 3 is 2, "
            "certificate claims 1"
        ),
    }


def test_the_diff_says_why_a_row_failed_re_verification():
    baseline = raw_baseline("3.1")
    baseline["obstructions"]["99"] = baseline["obstructions"]["1"]
    assert run_31_against(baseline) == [
        "congruence-mod12 obstruction 99: failed re-verification: "
        "the run has no case 99"
    ]


@pytest.mark.parametrize("name", FILTER_NAMES)
def test_every_filter_name_runs_as_a_scenario_s_only_filter(name):
    # run_lemma looks each name up in its filter table; one with no row
    # fails here. Over 2.2, 3.1 and 4.2 each filter decides some case.
    decided = 0
    for lid in ("2.2", "3.1", "4.2"):
        report = run_lemma(replace(load_scenario(lid), filters=(name,)))
        assert {row["filter"] for row in report["eliminations"]} <= {name}
        concluded = [row for row in report["survivors"] if "conclusion" in row]
        decided += len(report["cases"]) - len(report["survivors"]) + len(concluded)
    assert decided > 0


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
    baseline = raw_baseline("2.2")
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
