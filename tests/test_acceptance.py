"""The acceptance gate: nine criteria, one test and one printed verdict
line per criterion. Run with -s (or read the -v test names) to see the
lines; every check is exact, no tolerances anywhere.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

from chern_gate import (
    ambient_pullback,
    char_number_table,
    chern_from_case,
    chi_O_from_class,
    complete_invariants,
    eliminate,
    graded,
    invariants_from_diamond,
    l_genus_signature,
    normal_c4_polynomial,
    pontryagin_numbers,
    to_chern_case,
    top_pairing,
    Geometry,
    IntPoly,
    RootFound,
    verify_certificate,
    ModularObstruction,
)
from chern_gate.cli import dispatch


def _verdict(n, checks):
    try:
        checks()
    except BaseException:
        print(f"criterion {n}: FAIL", flush=True)
        raise
    print(f"criterion {n}: PASS", flush=True)


def test_criterion_1_rank1_negative_replay(shipped_reports):
    def checks():
        report = shipped_reports["2.1"]
        assert [
            (c["params"], c["r"], c["k"]) for c in report["cases"]
        ] == [({"e": 15}, -1, "2/3")]
        poly = report["polynomials"][0]
        assert poly["coefficients"] == [
            "50625", "0", "0", "0", "-28350", "-18900", "-2700", "225", "30",
        ]
        assert poly["certificate"] == {
            "type": "modular",
            "content": "15",
            "m_power": 0,
            "modulus": 3,
            "residues": [2, 2, 2],
        }
        assert poly["verified"] is True
        assert report["verdict"] == "ALL-ELIMINATED"
        assert report["baseline_diff"] == []

    _verdict(1, checks)


def test_criterion_2_rank1_positive_replay(shipped_reports):
    def checks():
        report = shipped_reports["2.2"]
        produced = {
            c["baseline_id"]: (c["params"]["e"], c["r"], c["k"])
            for c in report["cases"]
        }
        assert produced == {
            "1": (15, 1, "2/3"),
            "2": (15, 1, "-2"),
            "3": (25, 1, "2/5"),
            "4": (40, 1, "-13/8"),
            "5": (60, 1, "1/4"),
            "6": (60, 1, "-19/12"),
            "7": (10, 2, "-13/8"),
            "8": (15, 2, "1/4"),
            "9": (15, 2, "-19/12"),
            "10": (1, 5, "2/5"),
        }
        eliminated = {e["baseline_id"]: e for e in report["eliminations"]}
        assert set(eliminated) == {str(i) for i in range(1, 10)}
        for i in range(1, 7):
            cert = eliminated[str(i)]["certificate"]
            assert cert["index"] == 1
            assert cert["constraint"] == "degree in {2, 4, 5}"
            assert cert["outcome"] == "eliminated"
        for i in range(7, 10):
            cert = eliminated[str(i)]["certificate"]
            assert cert["index"] == 2
            assert cert["constraint"] == "degree <= 22"
        survivors = report["survivors"]
        assert [s["baseline_id"] for s in survivors] == ["10"]
        assert survivors[0]["conclusion"] == "P4"
        assert report["verdict"] == "CONCLUDES-P4"
        assert report["baseline_diff"] == []

    _verdict(2, checks)


def test_criterion_3_rank2_replay(shipped_reports):
    def checks():
        report = shipped_reports["3.1"]
        table = {
            c["baseline_id"]: tuple(
                int(c["char_numbers"][f])
                for f in ("c1_4", "c1c3", "c1_2c2", "c2_2", "c4")
            )
            for c in report["cases"]
        }
        assert table == {
            "1": (81, 48, 99, 121, 6),
            "2": (2, 48, 20, 200, 6),
            "3": (512, 48, 224, 98, 6),
            "4": (512, 48, 224, 98, 6),
            "5": (113, 48, 113, 113, 6),
            "6": (113, 48, 113, 113, 6),
            "7": (81, 48, 99, 121, 6),
            "8": (288, 48, 168, 98, 6),
            "9": (288, 48, 168, 98, 6),
            "10": (512, 48, 224, 98, 6),
        }
        by_filter = {}
        for e in report["eliminations"]:
            by_filter.setdefault(e["filter"], set()).add(e["baseline_id"])
        assert by_filter["mod12"] == {"1", "5", "6", "7"}
        assert by_filter["embedding-poly"] == {"2", "3", "4", "8", "9", "10"}
        mod12_one = next(
            e for e in report["eliminations"] if e["baseline_id"] == "1"
        )
        assert mod12_one["certificate"] == {
            "type": "congruence-mod12",
            "value": "261",
            "residue": 9,
        }
        # recompute the quoted divisor table for case 2 from the live
        # polynomial: halve the coefficients, evaluate at each divisor
        poly_two = IntPoly.from_desc(
            [
                int(c)
                for c in next(
                    p
                    for p in report["polynomials"]
                    if p["baseline_id"] == "2"
                )["coefficients"]
            ]
        )
        reduced = IntPoly.from_desc([c // 2 for c in poly_two.desc_coeffs])
        values = {t: reduced.evaluate(t) for t in (1, 2, 4, 29, 58, 116)}
        assert values[1] == -45
        assert values[2] == -1086
        assert values[4] == 98328
        assert all(values[t] != 0 for t in (29, 58, 116))
        from chern_gate.report import sci_5

        assert sci_5(values[29]) == "1.0004E+12"
        assert sci_5(values[58]) == "2.5612E+14"
        assert sci_5(values[116]) == "6.5568E+16"
        row = next(
            r
            for r in report["baseline_validation"]
            if r["id"] == "2" and r["kind"] == "obstruction"
        )
        assert row["verified"] is True and row["approx_match"] is True
        assert report["verdict"] == "ALL-ELIMINATED"
        assert report["baseline_diff"] == []

    _verdict(3, checks)


def test_criterion_4_free_model_replay(shipped_reports):
    def checks():
        report = shipped_reports["4.2"]
        produced = {
            c["baseline_id"]: (c["params"]["d"], c["r"], c["k"])
            for c in report["cases"]
        }
        assert produced == {
            "1": (3, -4, "1/2"),
            "2": (14, -2, "1"),
            "3": (48, -2, "1/2"),
            "4": (224, -1, "1"),
            "5": (768, -1, "1/2"),
        }
        spin_case = next(c for c in report["cases"] if c["baseline_id"] == "2")
        assert spin_case["pontryagin"]["a_hat"] == "1/4"
        eliminated = {e["baseline_id"]: e for e in report["eliminations"]}
        assert set(eliminated) == {"1", "2", "3", "4", "5"}
        assert eliminated["2"]["certificate"]["type"] == "ahat-nonintegral"
        for label in ("1", "3", "4", "5"):
            assert eliminated[label]["verified"] is True
        # the printed residue forms, re-verified against live polynomials
        polys = {
            p["baseline_id"]: IntPoly.from_desc(
                [int(c) for c in p["coefficients"]]
            )
            for p in report["polynomials"]
        }
        printed = {
            "1": (1, 3),
            "3": (1, 72),
            "4": (16, 7),
            "5": (16, 9),
        }
        for label, (content, modulus) in printed.items():
            reduced = IntPoly.from_desc(
                [c // content for c in polys[label].desc_coeffs]
            )
            cert = ModularObstruction(
                content=content,
                m_power=0,
                modulus=modulus,
                residues=tuple(
                    reduced.evaluate_mod(t, modulus) for t in range(modulus)
                ),
            )
            assert verify_certificate(polys[label], cert), label
        # the last one also reduces to a bare mod-3 statement
        mod3 = ModularObstruction(
            content=16, m_power=0, modulus=3, residues=(2, 2, 2)
        )
        assert verify_certificate(polys["5"], mod3)
        assert report["verdict"] == "ALL-ELIMINATED"
        assert report["baseline_diff"] == []

    _verdict(4, checks)


def test_criterion_5_direct_mode(shipped_reports, capsys):
    def checks():
        for lid in ("A.1", "A.2", "A.3"):
            assert dispatch(["reproduce", "--lemma", lid]) == 0
            report = shipped_reports[lid]
            assert report["mode"] == "direct"
            assert report["cases"] == []
            assert report["invariants"] is None
            assert all(p["verified"] for p in report["polynomials"])
            assert report["verdict"] == "ALL-ELIMINATED"
        capsys.readouterr()

    _verdict(5, checks)


def test_criterion_6_reference_embedding_oracles():
    def checks():
        p4 = graded(1, 5, 10, 10, 5)
        normal = ambient_pullback(1) * p4.inverse()
        assert top_pairing(normal, Geometry("free", (1,))) == 1
        quadric = graded(1, 6, 15, 20, 15) * graded(1, 2, 0, 0, 0).inverse()
        assert quadric.coeffs == (1, 4, 7, 6, 3)
        normal = ambient_pullback(1) * quadric.inverse()
        assert top_pairing(normal, Geometry("free", (2,))) == 4

    _verdict(6, checks)


def test_criterion_7_riemann_roch_cross_checks(pipeline_runs):
    def checks():
        targets = {
            "2.1": (50, 675),
            "2.2": (50, 675),
            "3.1": (48, 678),
            "4.2": (112, 1344),
        }
        chi_O = {"2.1": 1, "2.2": 1, "3.1": 1, "4.2": 2}
        for lid, (spec, inv, solutions) in pipeline_runs.items():
            done = complete_invariants(invariants_from_diamond(spec.diamond))
            assert (done.c1c3, done.target) == targets[lid]
            assert solutions
            for sol in solutions:
                case = to_chern_case(sol, inv)
                cn = char_number_table(case)
                assert chi_O_from_class(cn) == chi_O[lid]

    _verdict(7, checks)


def test_criterion_8_property_suites(pipeline_runs):
    def checks():
        # exact inverse round-trip, 1000 random classes
        rng = random.Random(97)
        one = graded(1, 0, 0, 0, 0)
        for _ in range(1000):
            u = graded(
                1,
                *(
                    Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                    for _ in range(4)
                ),
            )
            assert (u * u.inverse()).coeffs == one.coeffs
        # decomposition identity for every case, m in 1..20
        for spec, inv, solutions in pipeline_runs.values():
            for sol in solutions:
                case = to_chern_case(sol, inv)
                c = chern_from_case(case)
                poly = normal_c4_polynomial(case)
                for m in range(1, 21):
                    ambient = ambient_pullback(m)
                    normal = ambient * c.inverse()
                    assert (c * normal).coeffs == ambient.coeffs
                    assert sum(q * m**i for i, q in enumerate(poly)) == (
                        top_pairing(graded(0, 0, 0, 0, normal.coeffs[4]), sol.geometry)
                    )
        # planted roots are always detected
        for _ in range(100):
            root = rng.randint(1, 10**6)
            factor = [rng.randint(1, 40)] + [
                rng.randint(-40, 40) for _ in range(rng.randint(0, 6))
            ]
            desc = [0] * (len(factor) + 1)
            for i, c in enumerate(factor):
                desc[i] += c
                desc[i + 1] -= c * root
            cert = eliminate(IntPoly.from_desc(desc), max_modulus=50)
            assert isinstance(cert, RootFound)
            assert IntPoly.from_desc(desc).evaluate(cert.m) == 0
        # the L-genus returns the diamond signature
        for lid in ("2.1", "2.2", "3.1"):
            spec, inv, solutions = pipeline_runs[lid]
            for sol in solutions:
                pd = pontryagin_numbers(to_chern_case(sol, inv))
                assert l_genus_signature(pd) == inv.signature
        p4 = pontryagin_numbers(
            to_chern_case(
                pipeline_runs["2.2"][2][-1], pipeline_runs["2.2"][1]
            )
        )
        assert l_genus_signature(p4) == 1

    _verdict(8, checks)


def test_criterion_9_master_command():
    def checks():
        proc = subprocess.run(
            [sys.executable, "-m", "chern_gate", "reproduce", "--lemma", "all"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert set(payload) == {"2.1", "2.2", "3.1", "4.2", "A.1", "A.2", "A.3"}
        for lid, report in payload.items():
            assert report["baseline_diff"] == [], lid
        assert proc.stderr.count("baseline exact match") == 7

    _verdict(9, checks)
