"""Ground-truth checks on report bytes, in the benchmark's own arithmetic.

Nothing here calls the program: scenarios and reports are read as plain
JSON, and every expected value is recomputed from the scenario or from
what a generator planted. `check` returns the list of problems with one
report; an empty list means the request succeeded.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt


def invariants(h: list[list[int]]) -> dict:
    """chi, chi_O, chi1, signature, c1c3 and target of a Hodge diamond."""
    chi = sum((-1) ** (p + q) * h[p][q] for p in range(5) for q in range(5))
    chi_o = sum((-1) ** q * h[0][q] for q in range(5))
    chi1 = sum((-1) ** q * h[1][q] for q in range(5))
    sigma = sum((-1) ** q * h[p][q] for p in range(5) for q in range(5))
    c1c3 = 12 * (4 * chi_o - chi1) - 2 * chi
    return {
        "chi": chi,
        "chi_O": chi_o,
        "chi1": chi1,
        "signature": sigma,
        "c1c3": c1c3,
        "target": 720 * chi_o + chi - c1c3,
    }


def _grid(lattice: dict):
    """(sort key, params, degree) for every grid point of a lattice."""
    model = lattice["model"]
    if model == "rank1":
        return [((e,), {"e": e}, e * e) for e in range(1, lattice["e_max"] + 1)]
    if model == "rank2":
        return [
            ((a, b), {"a": a, "b": b}, a * a + b * b)
            for a in range(1, lattice["a_max"] + 1)
            for b in range(0, lattice["b_max"] + 1)
        ]
    return [((d,), {"d": d}, d) for d in range(1, lattice["d_max"] + 1)]


def _integral(model: str, params: dict, degree: int, r: int, k: Fraction) -> bool:
    """The divisibility rule tying the denominator of k to the lattice."""
    den = k.denominator
    if model == "rank1":
        return params["e"] * r * r % den == 0
    if model == "rank2":
        return params["a"] * r * r % den == 0 and params["b"] * r * r % den == 0
    return degree * r**4 % (den * den) == 0


def expected_cases(doc: dict, target: int) -> list[tuple[dict, int, Fraction]]:
    """Every (params, r, k) with (3k^2 + 4k - 1) r^4 d == target, sorted.

    With c = r^4 d the roots are k = (-2c +- s) / (3c), rational exactly
    when c (7c + 3 target) = s^2 is a perfect square.
    """
    model = doc["lattice"]["model"]
    r_min, r_max = doc["r_bounds"]
    k_lower = Fraction(doc["k_lower"]) if doc.get("k_lower") is not None else None
    c14_max = doc.get("c14_max")
    found = []
    for key, params, degree in _grid(doc["lattice"]):
        for r in range(r_min, r_max + 1):
            c = r**4 * degree
            if r == 0 or (c14_max is not None and c > c14_max):
                continue
            n = c * (7 * c + 3 * target)
            if n < 0 or isqrt(n) ** 2 != n:
                continue
            s = isqrt(n)
            for k in sorted({Fraction(-2 * c - s, 3 * c), Fraction(-2 * c + s, 3 * c)}):
                if k_lower is not None and not k > k_lower:
                    continue
                if _integral(model, params, degree, r, k):
                    found.append((key, r, k, params))
    found.sort(key=lambda hit: hit[:3])
    return [(params, r, k) for _, r, k, params in found]


def _check_grid(doc: dict, report: dict) -> list[str]:
    inv = invariants(doc["hodge"])
    if report["invariants"] != inv:
        return [f"invariants {report['invariants']} != {inv}"]
    target = inv["target"]
    want = expected_cases(doc, target)
    got = [(c["params"], c["r"], Fraction(c["k"])) for c in report["cases"]]
    if got != want:
        return [f"{len(got)} cases, expected {len(want)}, or they differ"]
    problems = []
    for case in report["cases"]:
        k, r = Fraction(case["k"]), case["r"]
        params = case["params"]
        degree = params["d"] if "d" in params else sum(v * v for v in params.values())
        c14 = r**4 * degree
        if (3 * k * k + 4 * k - 1) * c14 != target:
            problems.append(f"case {case['ordinal']} misses the target")
        own = {
            "c1_4": c14,
            "c1c3": inv["c1c3"],
            "c1_2c2": k * c14,
            "c2_2": k * k * c14,
            "c4": inv["chi"],
        }
        if {key: Fraction(v) for key, v in case["char_numbers"].items()} != own:
            problems.append(f"case {case['ordinal']} has wrong Chern numbers")
    gone = [e["ordinal"] for e in report["eliminations"]]
    kept = [s["ordinal"] for s in report["survivors"]]
    if sorted(gone + kept) != [c["ordinal"] for c in report["cases"]]:
        problems.append("eliminations and survivors do not partition the cases")
    if report["polynomials"]:
        problems.append("grid-sweep scenarios build no polynomials")
    return problems


def _evaluate(desc: list[int], m: int) -> int:
    acc = 0
    for c in desc:
        acc = acc * m + c
    return acc


def _divisors(factors: tuple[int, ...]) -> list[int]:
    divs = {1}
    for p in factors:
        divs |= {d * p for d in divs}
    return sorted(divs)


def _check_poly(req, doc: dict, report: dict) -> list[str]:
    desc = [int(c) for c in doc["polynomials"][0]["coefficients"]]
    rows = report["polynomials"]
    if len(rows) != 1 or [int(c) for c in rows[0]["coefficients"]] != desc:
        return ["polynomial row does not echo the scenario"]
    cert = rows[0]["certificate"]
    if req.kind == "mod2":
        ok = cert["type"] == "modular" and cert["modulus"] == 2 and all(cert["residues"])
    elif req.root is not None:
        ok = (
            cert["type"] == "root"
            and int(cert["m"]) == req.root
            and _evaluate(desc, req.root) == 0
            and [int(s["root"]) for s in report["survivors"]] == [req.root]
        )
    else:
        divs = _divisors(req.factors)
        ok = (
            cert["type"] == "divisor"
            and cert["content"] == "1"
            and [int(d) for d in cert["divisors"]] == divs
            and [int(v) for v in cert["values"]] == [_evaluate(desc, d) for d in divs]
            and 0 not in (_evaluate(desc, d) for d in divs)
        )
    want = "SURVIVORS-REMAIN" if req.root is not None else "ALL-ELIMINATED"
    problems = [] if ok else [f"{cert['type']} certificate contradicts the planted truth"]
    if report["verdict"] != want:
        problems.append(f"verdict {report['verdict']}, expected {want}")
    return problems


def check(req, report_bytes: bytes) -> list[str]:
    """Problems with one request's report; empty when it is correct."""
    try:
        report = json.loads(report_bytes)
        doc = json.loads(req.scenario)
        problems = [
            f"{row.get('label', row.get('id', row.get('ordinal')))} not verified"
            for key in ("polynomials", "eliminations", "baseline_validation")
            for row in report[key] or ()
            if row["verified"] is not True
        ]
        if req.kind == "replay":
            if report["baseline_diff"] != []:
                problems.append(f"baseline diff: {report['baseline_diff']}")
        elif req.kind == "grid":
            problems += _check_grid(doc, report)
        else:
            problems += _check_poly(req, doc, report)
        return problems
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]
