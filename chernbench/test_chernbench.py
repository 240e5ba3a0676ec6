"""Tests of the benchmark's own code: generators, checks and self time.

    python -m pytest chernbench
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import chern_gate as cg
import checks
import run
import workloads
from tracing import self_times

POLY_KINDS = {kind for kind, _ in workloads.POLY_MIX}


@pytest.fixture(scope="module")
def poly_pass():
    return workloads.build("poly-certify", 11)


@pytest.fixture(scope="module")
def grid_pass():
    return workloads.build("grid-sweep", 11)


def first(requests, kind):
    return next(r for r in requests if r.kind == kind)


@pytest.mark.parametrize("workload", ["grid-sweep", "poly-certify"])
def test_generators_are_deterministic(workload):
    a, b = workloads.build(workload, 3), workloads.build(workload, 3)
    assert a == b
    assert [r.scenario for r in a] != [r.scenario for r in workloads.build(workload, 4)]


def test_replay_is_the_shipped_lemmas_in_order():
    reqs = workloads.build("replay", 0)
    assert [r.scenario for r in reqs] == [cg.scenario_bytes(i) for i in cg.SHIPPED_LEMMAS]


def test_generated_scenarios_are_valid(grid_pass, poly_pass):
    for req in grid_pass + poly_pass:
        spec = cg.parse_scenario(req.scenario)
        assert spec.lemma_id in cg.LEMMA_IDS
        assert spec.baseline_id is None
    for req in grid_pass:
        assert checks.invariants(json.loads(req.scenario)["hodge"])["target"] > 0
    shares = {kind: n for kind, n in workloads.POLY_MIX}
    assert {k: sum(r.kind == k for r in poly_pass) for k in POLY_KINDS} == shares


def _coeffs(req):
    return [int(c) for c in json.loads(req.scenario)["polynomials"][0]["coefficients"]]


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b):
        f = a[0] / b[0]
        a = [x - f * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
    while a and a[0] == 0:
        a.pop(0)
    return a


def positive_real_roots(desc):
    """Distinct real roots in (0, oo), by Sturm's theorem; desc[-1] != 0."""
    p = [Fraction(c) for c in desc]
    seq = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while True:
        r = _rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])

    def changes(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return changes([s[-1] for s in seq]) - changes([s[0] for s in seq])


def test_sturm_counts_known_roots():
    assert positive_real_roots([1, -3, 2]) == 2  # (m-1)(m-2)
    assert positive_real_roots([1, 0, -2]) == 1  # m^2 - 2
    assert positive_real_roots([1, 0, 1]) == 0
    assert positive_real_roots([1, 1, -2]) == 1  # (m-1)(m+2)


def test_planted_ground_truth_holds(poly_pass):
    for req in poly_pass:
        desc = _coeffs(req)
        assert len(desc) == 9 and desc[1:4] == [0, 0, 0] and desc[0] > 0
        if req.root is not None:
            assert checks._evaluate(desc, req.root) == 0
            assert positive_real_roots(desc) == 1
        else:
            assert positive_real_roots(desc) == 0, req.label
        if req.kind == "mod2":
            assert desc[-1] % 2 == 1 and sum(desc) % 2 == 1
        if req.factors:
            product = 1
            for p in req.factors:
                product *= p
            assert product == desc[-1]
            assert all(workloads._is_prime(p) for p in req.factors)
        if req.kind == "semiprime":
            assert all(p.bit_length() == 32 for p in req.factors)


@pytest.mark.parametrize("kind", sorted(POLY_KINDS))
def test_poly_reports_pass_and_tampering_fails(poly_pass, kind):
    req = first(poly_pass, kind)
    out = run.serve(cg, req.scenario)
    assert checks.check(req, out) == []
    report = json.loads(out)
    report["polynomials"][0]["verified"] = False
    assert checks.check(req, json.dumps(report).encode())
    if req.root is not None:
        report = json.loads(out)
        report["polynomials"][0]["certificate"]["m"] = str(req.root + 1)
        assert checks.check(req, json.dumps(report).encode())


def test_grid_report_passes_and_a_wrong_case_fails(grid_pass):
    req = next(r for r in grid_pass if json.loads(run.serve(cg, r.scenario))["cases"])
    out = run.serve(cg, req.scenario)
    assert checks.check(req, out) == []
    report = json.loads(out)
    case = report["cases"][0]
    case["k"] = str(Fraction(case["k"]) + 1)
    assert checks.check(req, json.dumps(report).encode())


def test_a_failed_check_is_counted():
    req = workloads.build("replay", 0)[0]
    runner = run.Runner(cg, checks.check, [req])
    report = json.loads(run.serve(cg, req.scenario))
    runner._judge(0, req, json.dumps(report).encode())
    assert runner.failed == 0
    report["baseline_diff"] = ["tampered"]
    del runner.first[0]
    runner._judge(0, req, json.dumps(report).encode())
    runner._judge(0, req, b"{}")  # bytes differ from the first pass
    runner._judge(0, req, RuntimeError("boom"))
    assert runner.failed == 3


def test_self_time_on_a_synthetic_tree():
    #   0 [0, 100]
    #   +-- 1 [10, 30]
    #   +-- 2 [40, 70]
    #   |   +-- 3 [45, 50]
    #   +-- 4 [60, 90]   overlaps 2; only [70, 90] is new cover
    start = [0, 10, 40, 45, 60]
    end = [100, 30, 70, 50, 90]
    parent = [-1, 0, 0, 2, 0]
    assert self_times(start, end, parent) == [100 - 20 - 50, 20, 25, 5, 30]


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
