import json
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from chern_gate import obstruction
from chern_gate.cli import dispatch
from chern_gate.pipeline import load_baseline, run_lemma, scenario_bytes
from chern_gate.ring import replace
from chern_gate.report import (
    _CODECS,
    certificate_to_json,
    emit_report,
    frac_str,
    int_str,
    parse_frac,
    parse_int_str,
    sci_5,
)
from chern_gate.scenario import (
    ScenarioError,
    certificate_from_json,
    parse_scenario,
)
from chern_gate.verify import (
    AhatNonIntegral,
    CongruenceMod12,
    ConstantDivisorTest,
    ExternalFactCertificate,
    IntPoly,
    ModularObstruction,
    RootFound,
)

from conftest import ALL_LEMMAS, PIPELINE_LEMMAS


def shipped(lemma_id: str) -> dict:
    return json.loads(scenario_bytes(lemma_id).decode())


def reparse(doc: dict):
    return parse_scenario(json.dumps(doc).encode())


def error_path(doc: dict) -> str:
    with pytest.raises(ScenarioError) as err:
        reparse(doc)
    assert str(err.value) == f"{err.value.path}: {err.value.reason}"
    return err.value.path


def test_all_shipped_scenarios_parse():
    for lid in ALL_LEMMAS:
        spec = parse_scenario(scenario_bytes(lid))
        assert spec.lemma_id == lid
        assert spec.baseline_id == lid


def test_float_literals_are_rejected_with_a_path():
    doc = shipped("2.1")
    doc["k_lower"] = 0.4
    assert error_path(doc) == "k_lower"
    doc = shipped("2.1")
    doc["hodge"][1][2] = 0.5
    assert error_path(doc) == "hodge[1][2]"


def test_asymmetric_diamond_names_the_cell():
    doc = shipped("2.1")
    doc["hodge"][1][2] = 3
    path = error_path(doc)
    assert path == "hodge[1][2]"


def test_serre_duality_is_checked_through_run(tmp_path, capsys):
    # h^{1,1} = 2 with h^{3,3} = 1 breaks h^{p,q} = h^{4-p,4-q}; it must
    # be refused as input, not run to a report.
    doc = shipped("2.1")
    doc["hodge"][1][1] = 2
    src = tmp_path / "not-serre-dual.json"
    src.write_text(json.dumps(doc))
    assert dispatch(["run", "--scenario", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: hodge[1][1]: h[1][1]=2 ")
    assert "h[3][3]=1" in captured.err
    doc["hodge"][3][3] = 2
    src.write_text(json.dumps(doc))
    assert dispatch(["run", "--scenario", str(src)]) in (0, 1)


def test_a_diamond_that_passes_the_symmetry_checks_is_refused_at_hodge(
    tmp_path, capsys
):
    # A negative corner and a disconnected fourfold are both symmetric
    # and Serre-dual, so HodgeDiamond itself refuses them, and its reason
    # is reported at the diamond's path.
    for cells, reason in (
        ({(0, 4): -1, (4, 0): -1}, "h[0][4] is negative"),
        (
            {(0, 0): 2, (4, 4): 2},
            "a connected fourfold needs h[0][0] == h[4][4] == 1",
        ),
    ):
        doc = shipped("2.1")
        for (p, q), value in cells.items():
            doc["hodge"][p][q] = value
        with pytest.raises(ScenarioError) as err:
            reparse(doc)
        assert (err.value.path, err.value.reason) == ("hodge", reason)
        src = tmp_path / "diamond.json"
        src.write_text(json.dumps(doc))
        assert dispatch(["run", "--scenario", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: hodge: {reason}\n"


def test_lemma_and_mode_validation():
    doc = shipped("2.1")
    doc["lemma"] = "7.7"
    assert error_path(doc) == "lemma"
    doc = shipped("2.1")
    doc["mode"] = "magic"
    assert error_path(doc) == "mode"
    doc = shipped("2.1")
    del doc["lemma"]
    assert error_path(doc) == "lemma"


def test_a_baseline_for_another_lemma_is_refused_at_baseline_id(tmp_path, capsys):
    for lid, other in (("2.1", "3.1"), ("A.1", "A.2"), ("2.2", "9.9")):
        doc = shipped(lid)
        doc["baseline_id"] = other
        assert error_path(doc) == "baseline_id"
    doc = shipped("2.1")
    doc["baseline_id"] = "3.1"
    src = tmp_path / "lemma-2.1.json"
    src.write_text(json.dumps(doc))
    assert dispatch(["run", "--scenario", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: baseline_id: ")


def test_unknown_keys_are_rejected_per_mode():
    doc = shipped("2.1")
    doc["polynomials"] = []
    assert error_path(doc) == "polynomials"
    doc = shipped("A.1")
    doc["hodge"] = [[1]]
    assert error_path(doc) == "hodge"


def test_r_bounds_must_match_the_sign():
    doc = shipped("2.1")
    doc["r_bounds"] = [-5, 1]
    assert error_path(doc) == "r_bounds"
    doc = shipped("2.1")
    doc["r_bounds"] = [-5, -3, -1]
    assert error_path(doc) == "r_bounds"
    doc = shipped("2.1")
    doc["c1_sign"] = 0
    assert error_path(doc) == "c1_sign"
    doc = shipped("2.2")
    doc["r_bounds"] = [0, 5]
    assert error_path(doc) == "r_bounds"
    doc = shipped("2.1")
    doc["r_bounds"] = [-1, -5]
    assert error_path(doc) == "r_bounds"


def test_divisibility_and_filter_validation():
    doc = shipped("2.1")
    doc["divisibility"] = "anything-goes"
    assert error_path(doc) == "divisibility"
    doc = shipped("2.1")
    doc["filters"] = ["embedding-poly", "embedding-poly"]
    assert error_path(doc) == "filters[1]"
    doc = shipped("2.1")
    doc["filters"] = ["spectral"]
    assert error_path(doc) == "filters[0]"


def test_lattice_validation():
    doc = shipped("2.1")
    doc["lattice"] = {"model": "rank3", "e_max": 5}
    assert error_path(doc) == "lattice.model"
    doc = shipped("2.1")
    doc["lattice"] = {"model": "rank1", "e_max": 5, "d_max": 9}
    assert error_path(doc) == "lattice.d_max"
    doc = shipped("2.1")
    doc["lattice"] = {"model": "rank1", "e_max": -5}
    assert error_path(doc) == "lattice.e_max"


def test_fact_validation():
    doc = shipped("2.2")
    doc["facts"][1]["r"] = 1
    assert error_path(doc) == "facts[1].r"
    doc = shipped("2.2")
    doc["facts"][0]["constraint"] = {"kind": "sorcery"}
    assert error_path(doc) == "facts[0].constraint.kind"
    doc = shipped("2.2")
    del doc["facts"][2]["constraint"]["conclusion"]
    assert error_path(doc) == "facts[2].constraint.conclusion"


def test_polynomial_validation():
    doc = shipped("A.2")
    doc["polynomials"][1]["label"] = "2"
    assert error_path(doc) == "polynomials[1].label"
    doc = shipped("A.2")
    doc["polynomials"][0]["coefficients"][0] = "0"
    assert error_path(doc) == "polynomials[0].coefficients[0]"
    doc = shipped("A.2")
    doc["polynomials"][0]["coefficients"][2] = "4.5"
    assert error_path(doc) == "polynomials[0].coefficients[2]"
    doc = shipped("A.1")
    doc["polynomials"] = []
    assert error_path(doc) == "polynomials"
    # A bad entry at the first, a middle or the last index is named with
    # the reason parse_int_str gives. "1,2" holds a comma inside one entry,
    # which a check of the joined list would pass; 4,301 digits are past
    # CPython's limit for int(str).
    for bad in ("1,2", "", " 7", True, None, "9" * 4301):
        with pytest.raises(ValueError) as expected:
            parse_int_str(bad)
        for j in (0, 4, 8):
            doc = shipped("A.2")
            doc["polynomials"][0]["coefficients"][j] = bad
            with pytest.raises(ScenarioError) as err:
                reparse(doc)
            assert err.value.path == f"polynomials[0].coefficients[{j}]"
            assert err.value.reason == str(expected.value)
    # JSON integers parse to the polynomials their strings give.
    doc = shipped("A.2")
    strings = reparse(doc).polynomials
    for entry in doc["polynomials"]:
        entry["coefficients"] = [int(c) for c in entry["coefficients"]]
    assert reparse(doc).polynomials == strings


@pytest.mark.parametrize("key", ["baseline_id", "k_lower", "c14_max"])
def test_null_reads_as_a_key_left_out_where_the_value_is_optional(key):
    doc = shipped("2.1")
    doc.update(k_lower="2/5", c14_max=10**6)
    doc[key] = None
    spec = reparse(doc)
    assert getattr(spec, key) is None
    del doc[key]
    # the input bytes differ, and so does their digest
    assert replace(spec, input_sha256="") == replace(reparse(doc), input_sha256="")


@pytest.mark.parametrize(
    "lid, key",
    [
        ("2.1", "filters"),
        ("2.2", "facts"),
        ("2.1", "divisibility"),
        ("2.1", "mode"),
        ("A.1", "mode"),
    ],
)
def test_null_is_refused_at_a_key_that_may_not_be_null(lid, key):
    doc = shipped(lid)
    doc[key] = None
    assert error_path(doc) == key


def test_k_lower_and_cap_validation():
    doc = shipped("2.1")
    doc["k_lower"] = "two fifths"
    assert error_path(doc) == "k_lower"
    doc = shipped("2.2")
    doc["c14_max"] = 0
    assert error_path(doc) == "c14_max"


def test_not_json_and_wrong_top_level():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(b"not json at all")
    assert err.value.path == "$"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(b"[1, 2, 3]")
    assert err.value.path == "$"


def test_string_codecs():
    assert parse_frac("2/3") * 3 == 2
    assert parse_frac("-19/12").denominator == 12
    with pytest.raises(ValueError):
        parse_frac("1/0")
    assert parse_int_str("-28350") == -28350
    with pytest.raises(ValueError):
        parse_int_str("10.5")
    with pytest.raises(ValueError):
        parse_int_str(True)
    assert sci_5(1000401930903) == "1.0004E+12"
    assert sci_5(256124722255338) == "2.5612E+14"
    assert sci_5(65568274898807400) == "6.5568E+16"
    assert sci_5(377759458293) == "3.7776E+11"


def test_serializers_refuse_to_truncate_non_integers():
    assert int_str(-28350) == "-28350"
    assert frac_str(Fraction(-19, 12)) == "-19/12"
    assert frac_str(7) == "7"
    for bad in (2.7, Fraction(5, 2)):
        with pytest.raises(TypeError):
            int_str(bad)
    for bad in (0.1, Decimal("0.5")):
        with pytest.raises(TypeError):
            frac_str(bad)


def test_certificate_json_round_trip_for_every_kind():
    certs = [
        ModularObstruction(content=15, m_power=0, modulus=3, residues=(2, 2, 2)),
        ConstantDivisorTest(
            content=2, m_power=1, divisors=(1, 7), values=(-462, 5547528)
        ),
        RootFound(m=5),
        CongruenceMod12(value=261, residue=9),
        AhatNonIntegral(value=Fraction(-1, 4)),
        ExternalFactCertificate(
            index=1,
            constraint="degree in {2, 4, 5}",
            citation="classification",
            outcome="eliminated",
            violated_by=225,
        ),
        ExternalFactCertificate(
            index=5,
            constraint="classified as P4",
            citation="index n+1",
            outcome="concluded",
            conclusion="P4",
        ),
    ]
    tags = set()
    for cert in certs:
        data = certificate_to_json(cert)
        tags.add(data["type"])
        assert json.loads(json.dumps(data)) == data
        assert certificate_from_json(data) == cert
    assert tags == set(_CODECS)
    assert "violated_by" not in certificate_to_json(certs[-1])
    with pytest.raises(ValueError):
        certificate_from_json({"type": "lucky-guess"})
    with pytest.raises(ValueError):
        certificate_from_json({})
    with pytest.raises(ValueError):
        certificate_from_json({"type": ["modular"]})
    with pytest.raises(TypeError):
        certificate_to_json({"type": "modular"})


def _markdown_lines(certificates: list[dict]) -> list[str]:
    report = {
        "lemma": "X",
        "verdict": "ALL-ELIMINATED",
        "polynomials": [
            {"label": f"p{i}", "coefficients": ["1"], "certificate": cert}
            for i, cert in enumerate(certificates)
        ],
        "baseline_diff": None,
    }
    lines = emit_report(report, "md").decode("ascii").splitlines()
    return [line[4:] for line in lines if line.startswith("  - ")]


def test_markdown_sentence_for_every_certificate_kind():
    expected = {
        ModularObstruction(
            content=15, m_power=0, modulus=3, residues=(1, 1, 1)
        ): "no roots modulo 3 (content 15, m^0)",
        ConstantDivisorTest(
            content=1, m_power=0, divisors=(1, 7), values=(5, 9)
        ): "divisor test after content 1: P(1)=5, P(7)=9",
        RootFound(m=2): "root found at m=2",
        CongruenceMod12(value=26, residue=2): "26 is 2 mod 12",
        AhatNonIntegral(
            value=Fraction(1, 8)
        ): "A-hat genus 1/8 is not an integer",
        ExternalFactCertificate(
            index=1,
            constraint="degree <= 5",
            citation="X",
            outcome="eliminated",
            violated_by=9,
        ): "fact 1: degree <= 5 (X), violated by 9",
        ExternalFactCertificate(
            index=2,
            constraint="classified as P4",
            citation="Y",
            outcome="concluded",
            conclusion="P4",
        ): "fact 2: classified as P4 (Y) -> P4",
    }
    certificates = [certificate_to_json(cert) for cert in expected]
    assert {c["type"] for c in certificates} == set(_CODECS)
    assert _markdown_lines(certificates) == list(expected.values())


def test_markdown_rejects_an_unknown_certificate_kind():
    with pytest.raises(ValueError, match="bogus"):
        _markdown_lines([{"type": "bogus"}])


def test_exhaustive_certificates_are_not_read():
    exhaustive = {"type": "exhaustive", "content": "1", "m_power": 0, "bound": "0"}
    with pytest.raises(ValueError, match="exhaustive"):
        certificate_from_json(exhaustive)
    with pytest.raises(ValueError, match="exhaustive"):
        _markdown_lines([exhaustive])


def test_cli_reproduce_all(capsys):
    assert dispatch(["reproduce", "--lemma", "all"]) == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert set(payload) == set(ALL_LEMMAS)
    for lid in ALL_LEMMAS:
        assert f"{lid}:" in out.err
        assert "baseline exact match" in out.err
    assert dispatch(["reproduce", "--lemma", "all", "--format", "md"]) == 0
    titles = [t for t in capsys.readouterr().out.splitlines() if t.startswith("# ")]
    assert titles == [f"# Replay of {lid}" for lid in ALL_LEMMAS]


def test_cli_reproduce_single_markdown(capsys, tmp_path):
    target = tmp_path / "out.md"
    code = dispatch(
        ["reproduce", "--lemma", "A.3", "--format", "md", "--out", str(target)]
    )
    assert code == 0
    assert "# Replay of A.3" in target.read_text()


def test_cli_run_detects_a_broken_scenario(tmp_path, capsys):
    doc = shipped("2.1")
    doc["lattice"]["e_max"] = 14  # grid too small to reach the real case
    bad = tmp_path / "small.json"
    bad.write_text(json.dumps(doc))
    assert dispatch(["run", "--scenario", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert any("expected by the baseline" in d for d in payload["baseline_diff"])


def test_cli_run_without_baseline_reference(tmp_path, capsys):
    doc = shipped("2.1")
    del doc["baseline_id"]
    free_run = tmp_path / "free.json"
    free_run.write_text(json.dumps(doc))
    assert dispatch(["run", "--scenario", str(free_run)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["baseline_diff"] is None


def test_cli_enumerate_strips_filters(capsys, tmp_path):
    src = tmp_path / "scenario.json"
    src.write_bytes(scenario_bytes("4.2"))
    assert dispatch(["enumerate", "--scenario", str(src)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["cases"]) == 5
    assert payload["eliminations"] == []
    assert payload["verdict"] == "SURVIVORS-REMAIN"


def test_cli_enumerate_rejects_direct_mode(capsys, tmp_path):
    src = tmp_path / "scenario.json"
    src.write_bytes(scenario_bytes("A.1"))
    assert dispatch(["enumerate", "--scenario", str(src)]) == 2
    assert "direct" in capsys.readouterr().err


def test_cli_eliminate_exit_codes(capsys):
    assert dispatch(["eliminate", "--coeffs", "1,0,0,0,0,0,0,0,-1"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] == {"type": "root", "m": "1"}
    assert dispatch(["eliminate", "--coeffs", ",".join(map(str, range(1, 9)))]) == 0
    capsys.readouterr()
    assert dispatch(["eliminate", "--coeffs", "1,two,3"]) == 2


def test_cli_eliminate_takes_a_negative_leading_coefficient_after_equals(capsys):
    # "--coeffs -1,5" reads -1,5 as an option; the = form passes it as a value.
    assert dispatch(["eliminate", "--coeffs=-1,5"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["polynomial"] == ["-1", "5"]
    assert payload["certificate"] == {"type": "root", "m": "5"}


def test_cli_error_exits(capsys):
    assert dispatch(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ")
    assert dispatch(["run", "--scenario", "/no/such/file.json"]) == 2
    assert "error:" in capsys.readouterr().err
    assert dispatch(["reproduce", "--lemma", "5.5"]) == 2
    capsys.readouterr()


def test_cli_run_matches_shipped_baseline_for_every_lemma(tmp_path, capsys):
    for lid in ALL_LEMMAS:
        src = tmp_path / f"lemma-{lid}.json"
        src.write_bytes(scenario_bytes(lid))
        assert dispatch(["run", "--scenario", str(src)]) == 0, lid
        payload = json.loads(capsys.readouterr().out)
        assert payload["baseline_diff"] == [], lid
        assert payload["input_sha256"]


def test_baselines_are_loadable_and_consistent():
    for lid in ALL_LEMMAS:
        baseline = load_baseline(lid)
        assert baseline["lemma"] == lid
        assert baseline["verdict"] in ("ALL-ELIMINATED", "CONCLUDES-P4")


def test_cli_internal_error_exits_3_with_one_line(capsys, monkeypatch):
    # A chi(O) that disagrees with the diamond's is the pipeline's own
    # cross-check failing, not bad input.
    monkeypatch.setattr("chern_gate.pipeline.chi_O_from_class", lambda cn: 2)
    assert dispatch(["reproduce", "--lemma", "2.1"]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "internal error: chi_O recomputed from the Chern class is 2, "
        "the diamond says 1"
    ]
    assert "Traceback" not in err


def test_rule_that_does_not_fit_the_model_errors_at_divisibility():
    doc = shipped("2.1")
    doc["divisibility"] = "l2_div_dr4"
    assert error_path(doc) == "divisibility"


def test_a_scenario_without_divisibility_gets_the_models_rule(shipped_reports):
    for lid in PIPELINE_LEMMAS:
        doc = shipped(lid)
        del doc["divisibility"]
        report = run_lemma(reparse(doc), baseline=load_baseline(lid))
        expected = shipped_reports[lid]
        report["input_sha256"] = expected["input_sha256"]
        assert emit_report(report) == emit_report(expected)


def test_empty_fact_data_errors_at_its_field():
    doc = shipped("2.2")
    doc["facts"][0]["constraint"]["degrees"] = []
    assert error_path(doc) == "facts[0].constraint.degrees"
    doc = shipped("2.2")
    doc["facts"][2]["constraint"]["conclusion"] = ""
    assert error_path(doc) == "facts[2].constraint.conclusion"
    doc = shipped("2.2")
    doc["facts"][0]["constraint"]["degrees"] = [2, "4"]
    assert error_path(doc) == "facts[0].constraint.degrees[1]"


def test_malformed_json_shapes_are_scenario_errors():
    doc = shipped("2.1")
    doc["lattice"]["model"] = ["rank1"]
    assert error_path(doc) == "lattice.model"
    doc = shipped("2.1")
    del doc["hodge"][4]
    assert error_path(doc) == "hodge"
    doc = shipped("2.1")
    del doc["hodge"][1][4]
    assert error_path(doc) == "hodge[1]"
    doc = shipped("2.2")
    doc["facts"][0]["constraint"]["kind"] = {"degree-in": True}
    assert error_path(doc) == "facts[0].constraint.kind"
    for raw in (b"[" * 100_000, b'{"lemma": ' + b"1" * 5000 + b"}"):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.path == "$"


def test_grid_budget_is_checked_from_the_bounds(tmp_path, capsys, monkeypatch):
    from chern_gate.search import LatticeSpec

    def no_grid(self):
        raise RuntimeError("the parser must not build the grid")

    monkeypatch.setattr(LatticeSpec, "grid", no_grid)
    for lid in ALL_LEMMAS:
        parse_scenario(scenario_bytes(lid))
    doc = shipped("2.1")
    doc["lattice"]["e_max"] = 10**8
    src = tmp_path / "huge.json"
    src.write_text(json.dumps(doc))
    assert dispatch(["enumerate", "--scenario", str(src)]) == 2
    assert capsys.readouterr().err.startswith("error: lattice: ")
    doc = shipped("2.2")
    doc["r_bounds"] = [1, 10**12]
    assert error_path(doc) == "lattice"


@pytest.mark.parametrize(
    "lid, bound", [("2.1", "e_max"), ("3.1", "b_max"), ("4.2", "d_max")]
)
def test_a_bound_past_the_range_len_takes_is_refused_at_lattice(
    lid, bound, tmp_path, capsys
):
    # len() of a range of 2**63 points or more raises OverflowError; the
    # grid budget must refuse such a grid as input, not fail inside.
    doc = shipped(lid)
    doc["lattice"][bound] = 10**30
    src = tmp_path / "huge.json"
    src.write_text(json.dumps(doc))
    assert dispatch(["run", "--scenario", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lattice: ")
    assert "exceed the budget" in captured.err


def test_an_empty_grid_is_refused_whatever_the_r_range(tmp_path, capsys):
    # Grid points times values of r is 0 on an empty grid, so the budget
    # alone would let any r range through to the search.
    from chern_gate.search import LATTICE_MODELS

    empty = (
        {"model": "rank1", "e_max": 0},
        {"model": "rank2", "a_max": 0, "b_max": 3},
        {"model": "free", "d_max": 0},
    )
    for lattice in empty:
        doc = shipped("2.2")
        doc["lattice"] = lattice
        doc["divisibility"] = LATTICE_MODELS[lattice["model"]][1]
        doc["r_bounds"] = [1, 10**9]
        assert error_path(doc) == "lattice"
    doc["r_bounds"] = [1, 5]
    src = tmp_path / "empty.json"
    src.write_text(json.dumps(doc))
    assert dispatch(["enumerate", "--scenario", str(src)]) == 2
    assert capsys.readouterr().err.startswith("error: lattice: ")
    # rank2 scans b from 0, so b_max 0 still leaves a points
    doc = shipped("2.2")
    doc["lattice"] = {"model": "rank2", "a_max": 3, "b_max": 0}
    doc["divisibility"] = LATTICE_MODELS["rank2"][1]
    assert reparse(doc).lattice.points == 3


def with_search_steps(doc: dict, steps: int) -> dict:
    """doc with h^{2,2} set so that isqrt(3 * target) == steps. The
    target grows by 3 with h^{2,2}, and [steps^2, (steps + 1)^2) is wider
    than 9, so such an h^{2,2} exists."""
    from math import isqrt

    from chern_gate.riemann_roch import (
        HodgeDiamond,
        complete_invariants,
        invariants_from_diamond,
    )

    def target(h):
        inv = invariants_from_diamond(HodgeDiamond(tuple(map(tuple, h))))
        return complete_invariants(inv).target

    base = target(doc["hodge"])
    want = -(-steps * steps // 3)  # the least target with 3 * target >= steps^2
    doc["hodge"][2][2] += -(-(want - base) // 3)
    assert isqrt(3 * target(doc["hodge"])) == steps
    return doc


def test_target_budget_is_checked_at_the_hodge_diamond(tmp_path, capsys):
    from chern_gate.scenario import GRID_BUDGET

    assert parse_scenario(scenario_bytes("4.2")).lemma_id == "4.2"
    doc = shipped("2.1")
    del doc["baseline_id"]
    src = tmp_path / "big-target.json"
    src.write_text(json.dumps(with_search_steps(doc, GRID_BUDGET + 1)))
    assert dispatch(["run", "--scenario", str(src)]) == 2
    assert capsys.readouterr().err.startswith("error: hodge: ")
    src.write_text(json.dumps(with_search_steps(doc, GRID_BUDGET)))
    assert dispatch(["run", "--scenario", str(src)]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["lemma"] == "2.1"


def test_non_positive_target_is_refused_at_the_hodge_diamond(tmp_path, capsys):
    doc = shipped("2.1")
    del doc["baseline_id"]
    for p, q in ((0, 1), (1, 0), (3, 4), (4, 3)):
        doc["hodge"][p][q] = 10  # the Riemann-Roch target becomes -6045
    src = tmp_path / "negative-target.json"
    src.write_text(json.dumps(doc))
    for command in ("run", "enumerate"):
        assert dispatch([command, "--scenario", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: hodge: "), err
        assert "-6045" in err


def test_certificate_decoding_is_strict():
    good = {
        "type": "modular",
        "content": "1",
        "m_power": 0,
        "modulus": 3,
        "residues": [1, 1, 1],
    }
    assert certificate_from_json(good) == ModularObstruction(1, 0, 3, (1, 1, 1))
    for field, bad in (
        ("modulus", 2.5),
        ("modulus", "3"),
        ("m_power", False),
        ("residues", [1.2, 1, 1]),
        ("residues", [1, "1", 1]),
        ("residues", [1, 1, True]),
        ("residues", "111"),
        ("modulus", None),  # a required field may not be null
    ):
        with pytest.raises(ScenarioError, match=rf"^{field}(\[\d\])?: "):
            certificate_from_json({**good, field: bad})
    for field in ("content", "m_power", "modulus", "residues"):
        data = {k: v for k, v in good.items() if k != field}
        missing = f"^{field}: missing required key '{field}'$"
        with pytest.raises(ScenarioError, match=missing):
            certificate_from_json(data)
    unknown = "^bogus: unknown key for certificate type 'modular'$"
    with pytest.raises(ScenarioError, match=unknown):
        certificate_from_json({**good, "bogus": 1})
    with pytest.raises(ScenarioError, match="^divisors: expected list, got '17'$"):
        certificate_from_json(
            {
                "type": "divisor",
                "content": "1",
                "m_power": 0,
                "divisors": "17",
                "values": ["1", "2"],
            }
        )
    fact = certificate_to_json(
        ExternalFactCertificate(
            index=1,
            constraint="degree <= 5",
            citation="X",
            outcome="eliminated",
            violated_by=9,
        )
    )
    with pytest.raises(ScenarioError, match="^citation: expected string, got 5$"):
        certificate_from_json({**fact, "citation": 5})
    # violated_by has a default, so it may be left out, and null reads so
    assert certificate_from_json({**fact, "violated_by": None}).violated_by is None
    del fact["violated_by"]
    assert certificate_from_json(fact).violated_by is None
    with pytest.raises(ScenarioError, match=r"^\$: top level must be an object$"):
        certificate_from_json(["modular"])


def test_decimal_strings_are_exact():
    for text in ("1_000", " 7", "7 ", "+5", "٣", "0x10", ""):
        with pytest.raises(ValueError):
            parse_int_str(text)
        with pytest.raises(ValueError):
            parse_frac(text)
    for text in ("1_0/3", "+1/2", "1/ 2", "1/٣"):
        with pytest.raises(ValueError):
            parse_frac(text)
    assert parse_int_str(-7) == -7
    assert parse_frac("-2/-4") == Fraction(1, 2)
    doc = shipped("A.1")
    doc["polynomials"][0]["coefficients"][0] = "1_0"
    assert error_path(doc) == "polynomials[0].coefficients[0]"
    doc = shipped("2.1")
    doc["k_lower"] = "+2/5"
    assert error_path(doc) == "k_lower"


def test_cli_eliminate_has_no_max_modulus_flag(capsys):
    assert dispatch(["eliminate", "--coeffs", "1,2,3", "--max-modulus", "720"]) == 2
    capsys.readouterr()
    assert dispatch(["eliminate", "--coeffs", "1_0,3"]) == 2
    assert capsys.readouterr().err == "error: not an integer: '1_0'\n"


def test_polynomial_degree_is_capped(tmp_path, capsys):
    from chern_gate.scenario import MAX_DEGREE

    def trinomial(degree):  # m^degree + m + 1 is odd at every m: mod 2
        return ["1"] + ["0"] * (degree - 2) + ["1", "1"]

    doc = shipped("A.1")
    doc["polynomials"][0]["coefficients"] = trinomial(MAX_DEGREE)
    assert reparse(doc).polynomials[0][1].degree == MAX_DEGREE
    doc["polynomials"][0]["coefficients"] = trinomial(MAX_DEGREE + 1)
    assert error_path(doc) == "polynomials[0].coefficients"
    src = tmp_path / "long.json"
    src.write_text(json.dumps(doc))
    assert dispatch(["run", "--scenario", str(src)]) == 2
    assert capsys.readouterr().err.startswith("error: polynomials[0].coefficients: ")
    assert dispatch(["eliminate", "--coeffs", ",".join(trinomial(MAX_DEGREE))]) == 0
    capsys.readouterr()
    too_long = ",".join(trinomial(MAX_DEGREE + 1))
    assert dispatch(["eliminate", "--coeffs", too_long]) == 2
    assert capsys.readouterr().err == (
        f"error: degree {MAX_DEGREE + 1} exceeds the budget of {MAX_DEGREE}\n"
    )


def test_psi_12_root_is_found_from_the_cli_and_a_direct_scenario(tmp_path, capsys):
    # (m - p)(m + q) with pq = psi_12, the least strong pseudoprime to the
    # first twelve prime bases: the positive root p must be reported.
    coeffs = ["1", "399165290220", "-318665857834031151167461"]
    assert dispatch(["eliminate", "--coeffs", ",".join(coeffs)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] == {"m": "399165290221", "type": "root"}
    assert payload["verified"] is True
    doc = shipped("A.1")
    del doc["baseline_id"]
    doc["polynomials"][0]["coefficients"] = coeffs
    src = tmp_path / "psi12.json"
    src.write_text(json.dumps(doc))
    assert dispatch(["run", "--scenario", str(src)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "SURVIVORS-REMAIN"
    assert payload["survivors"] == [
        {"baseline_id": "1", "ordinal": 1, "root": "399165290221"}
    ]


def _direct_scenario(tmp_path, coeffs: list[str]) -> str:
    doc = shipped("A.1")
    del doc["baseline_id"]
    doc["polynomials"][0]["coefficients"] = coeffs
    src = tmp_path / "direct.json"
    src.write_text(json.dumps(doc))
    return str(src)


def test_constant_is_certified_from_the_cli_and_a_direct_scenario(tmp_path, capsys):
    assert dispatch(["eliminate", "--coeffs", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["type"] == "modular"
    assert payload["verified"] is True
    assert dispatch(["run", "--scenario", _direct_scenario(tmp_path, ["5"])]) == 0
    (row,) = json.loads(capsys.readouterr().out)["polynomials"]
    assert row["certificate"]["type"] == "modular"
    assert row["verified"] is True


def test_psi_13_divisor_certificate_is_not_verified(tmp_path, capsys):
    # (m - p)(m + q) with pq = psi_13, which the thirteen-base Miller-Rabin
    # test calls prime: the divisor list (1, psi_13) misses the root p.
    coeffs = ["1", "1287836182260", "-3317044064679887385961981"]
    assert dispatch(["eliminate", "--coeffs", ",".join(coeffs)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["type"] == "divisor"
    assert payload["verified"] is False
    assert dispatch(["run", "--scenario", _direct_scenario(tmp_path, coeffs)]) == 1
    (row,) = json.loads(capsys.readouterr().out)["polynomials"]
    assert row["verified"] is False


def test_psi_13_direct_row_is_a_survivor(tmp_path, capsys):
    coeffs = ["1", "1287836182260", "-3317044064679887385961981"]
    assert dispatch(["run", "--scenario", _direct_scenario(tmp_path, coeffs)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "SURVIVORS-REMAIN"
    assert payload["survivors"] == [{"baseline_id": "1", "ordinal": 1}]


def test_a_root_is_found_without_factoring_the_constant(
    tmp_path, capsys, monkeypatch
):
    # (m - 1)(m + N) with N the product of two 31-digit primes: factoring
    # N takes rho far longer than any test may run, and the root m = 1
    # ends the modulus scan before the divisor test is reached.
    n = (10**30 + 57) * (10**30 + 91)
    coeffs = ["1", str(n - 1), str(-n)]
    monkeypatch.setattr(obstruction, "divisors", lambda c: pytest.fail(f"factored {c}"))
    assert dispatch(["eliminate", "--coeffs=" + ",".join(coeffs)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] == {"m": "1", "type": "root"}
    assert payload["verified"] is True
    assert dispatch(["run", "--scenario", _direct_scenario(tmp_path, coeffs)]) == 1
    (row,) = json.loads(capsys.readouterr().out)["polynomials"]
    assert row["certificate"] == {"m": "1", "type": "root"}
    assert row["verified"] is True


@pytest.mark.parametrize("coeffs", ["1,,2", "1,2,", ""])
def test_cli_eliminate_rejects_empty_coefficients(coeffs, capsys):
    assert dispatch(["eliminate", "--coeffs", coeffs]) == 2
    assert capsys.readouterr().err == "error: not an integer: ''\n"


def test_leading_zeros_are_stripped_in_linear_time(capsys):
    start = time.perf_counter_ns()
    assert IntPoly((2, 1) + (0,) * 100_000).coeffs == (2, 1)
    assert dispatch(["eliminate", "--coeffs", "0," * 60_000 + "1,2"]) == 0
    assert time.perf_counter_ns() - start < 2 * 10**9
    assert json.loads(capsys.readouterr().out)["polynomial"] == ["1", "2"]


def _leaves(node, keys=()):
    """The key path of every scalar in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, keys + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, keys + (i,))
    else:
        yield keys


def _path_text(keys) -> str:
    text = ""
    for key in keys:
        if isinstance(key, int):
            text += f"[{key}]"
        else:
            text += f".{key}" if text else key
    return text


def test_a_float_at_any_leaf_fails_at_that_leaf():
    # No separate float check: each field's own type check names the path.
    count = 0
    for lid in ALL_LEMMAS:
        for keys in _leaves(shipped(lid)):
            doc = shipped(lid)
            node = doc
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = 0.5
            assert error_path(doc) == _path_text(keys), (lid, keys)
            count += 1
    assert count == 283


def test_a_float_fails_with_its_fields_reason():
    doc = shipped("2.1")
    doc["hodge"][1][2] = 0.5
    with pytest.raises(ScenarioError) as err:
        reparse(doc)
    assert str(err.value) == "hodge[1][2]: expected integer, got 0.5"
    doc = shipped("2.1")
    doc["k_lower"] = 0.4
    with pytest.raises(ScenarioError) as err:
        reparse(doc)
    assert str(err.value) == "k_lower: rational must be a string, got float"


@pytest.mark.parametrize(
    "lid, keys, path",
    [
        ("2.2", ("facts", 0), "facts[0].note"),
        ("2.2", ("facts", 0, "constraint"), "facts[0].constraint.note"),
        ("A.1", ("polynomials", 0), "polynomials[0].note"),
    ],
)
def test_unknown_keys_are_rejected_in_every_object(lid, keys, path, tmp_path, capsys):
    doc = shipped(lid)
    node = doc
    for key in keys:
        node = node[key]
    node["note"] = "x"
    assert error_path(doc) == path
    src = tmp_path / "note.json"
    src.write_text(json.dumps(doc))
    assert dispatch(["run", "--scenario", str(src)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: unknown key")


@pytest.mark.parametrize("label", ["\u03b1", "p\n- case forged"])
def test_scenario_text_must_be_printable_ascii(label, tmp_path, capsys):
    # Either would reach the reports verbatim: "α" cannot be written as
    # markdown, a newline would forge a markdown line.
    doc = shipped("A.1")
    doc["polynomials"][0]["label"] = label
    assert error_path(doc) == "polynomials[0].label"
    src = tmp_path / "label.json"
    src.write_text(json.dumps(doc))
    for fmt in ("json", "md"):
        assert dispatch(["run", "--scenario", str(src), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: polynomials[0].label: expected printable ASCII")

def test_markdown_marks_an_unverified_polynomial_row(tmp_path, capsys):
    coeffs = ["1", "1287836182260", "-3317044064679887385961981"]
    src = _direct_scenario(tmp_path, coeffs)
    assert dispatch(["run", "--scenario", src, "--format", "md"]) == 1
    lines = capsys.readouterr().out.splitlines()
    (line,) = [line for line in lines if line.startswith("  - divisor test")]
    assert line.endswith(" (not verified)")
