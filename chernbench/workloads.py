"""Seeded request generators for the three benchmark workloads.

A request is one scenario taken end to end: scenario bytes in, canonical
report bytes out. A pass is a workload's fixed, ordered list of requests.
The same seed gives the same bytes. The program sees only
`Request.scenario`; every other field is ground truth for the checks in
`checks.py`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd, isqrt

from chern_gate import LEMMA_IDS, SHIPPED_LEMMAS, scenario_bytes

from checks import invariants

# grid-sweep: one lattice shape per model, about a thousand grid points
# each, scanned against a window of five values of r. The shapes and the
# windows are fixed by the request's slot, so a request costs about the
# same for every seed; the seed moves the diamond, the k bound, the
# filters, the facts and the lemma id.
GRID_LATTICES = (
    {"model": "rank1", "e_max": 1000},
    {"model": "rank2", "a_max": 31, "b_max": 31},
    {"model": "free", "d_max": 1000},
)
GRID_RULES = {"rank1": "l_div_er2", "rank2": "l_div_ar2_br2", "free": "l2_div_dr4"}
GRID_PER_MODEL = 8
GRID_FILTERS = ("mod12", "ahat", "external-facts")
K_LOWERS = (None, None, "-1", "0", "1/5", "2/5")

# poly-certify: requests per pass for each class, run class by class in
# this order so that a request's cache state does not depend on the seed.
# The cheap modular class holds five sevenths of a pass, so req_ms.p50
# lands well inside it; the semiprime class holds the top 4/35, so
# req_ms.p90 lands in the middle of its cheapest member, away from a class
# boundary.
POLY_MIX = (("mod2", 25), ("planted-root", 3), ("negative-root", 3), ("semiprime", 4))

# The factoring cost of a ~64-bit semiprime swings several-fold between
# semiprimes of the same size, so the semiprimes come from one fixed pool
# that every pass uses whole; the seed moves the rest of each polynomial.
SEMIPRIME_POOL_SEED = "poly-certify:semiprimes"
SEMIPRIME_FACTOR_BITS = 32


@dataclass(frozen=True)
class Request:
    """One request and the ground truth its report is checked against.

    kind is "replay", "grid", or a poly-certify class from POLY_MIX.
    root is the planted positive root of a poly-certify polynomial, None
    when the polynomial is rootless. factors are the primes, with
    multiplicity, of the constant term of a divisor-route polynomial.
    """

    label: str
    kind: str
    scenario: bytes
    root: int | None = None
    factors: tuple[int, ...] = ()


def _scenario(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("ascii")


def replay_requests() -> list[Request]:
    """The seven shipped lemmas in shipped order; each names its baseline."""
    return [
        Request(label=f"replay/{lid}", kind="replay", scenario=scenario_bytes(lid))
        for lid in SHIPPED_LEMMAS
    ]


# --- grid-sweep -----------------------------------------------------------


def _diamond(rng: random.Random) -> list[list[int]]:
    """A Hodge diamond symmetric under (p,q)->(q,p) and (p,q)->(4-p,4-q)."""
    h = [[0] * 5 for _ in range(5)]
    free = {
        (0, 0): 1,
        (0, 1): rng.choice((0, 0, 0, 1)),
        (0, 2): rng.choice((0, 0, 1, 2)),
        (0, 3): rng.choice((0, 0, 0, 1)),
        (0, 4): rng.choice((0, 0, 0, 1)),
        (1, 1): rng.randint(1, 4),
        (1, 2): rng.randint(0, 3),
        (1, 3): rng.randint(0, 3),
        (2, 2): rng.randint(1, 40),
    }
    for (p, q), v in free.items():
        for a, b in ((p, q), (q, p), (4 - p, 4 - q), (4 - q, 4 - p)):
            h[a][b] = v
    return h


def _facts(rng: random.Random, r_values, degrees) -> list[dict]:
    facts = []
    for r in r_values:
        roll = rng.random()
        if roll < 0.4:
            continue
        if roll < 0.6:
            constraint = {"kind": "degree-in", "degrees": sorted(rng.sample(degrees, 3))}
        elif roll < 0.9:
            constraint = {"kind": "degree-max", "max_degree": rng.choice(degrees)}
        else:
            constraint = {"kind": "concludes", "conclusion": "P4"}
        facts.append(
            {
                "index": len(facts) + 1,
                "r": r,
                "constraint": constraint,
                "citation": "benchmark fact",
            }
        )
    return facts


def _grid_scenario(rng: random.Random, lattice: dict, slot: int) -> bytes:
    h = _diamond(rng)
    while invariants(h)["target"] <= 0:
        h = _diamond(rng)
    sign = -1 if slot % 2 else 1
    lo = 1 + slot // 2 % 3
    r_values = [sign * r for r in range(lo, lo + 5)]
    filters = rng.sample(GRID_FILTERS, rng.randint(1, len(GRID_FILTERS)))
    doc = {
        "lemma": rng.choice(LEMMA_IDS),
        "mode": "pipeline",
        "hodge": h,
        "c1_sign": sign,
        "lattice": lattice,
        "r_bounds": [min(r_values), max(r_values)],
        "divisibility": GRID_RULES[lattice["model"]],
        "filters": filters,
        "facts": [],
    }
    k_lower = rng.choice(K_LOWERS)
    if k_lower is not None:
        doc["k_lower"] = k_lower
    if "external-facts" in filters:
        doc["facts"] = _facts(rng, r_values, list(range(1, 60)))
    return _scenario(doc)


def grid_sweep_requests(seed: int) -> list[Request]:
    rng = random.Random(f"grid-sweep:{seed}")
    out = []
    for i in range(GRID_PER_MODEL):
        for lattice in GRID_LATTICES:
            model = lattice["model"]
            out.append(
                Request(
                    label=f"grid/{model}/{i}",
                    kind="grid",
                    scenario=_grid_scenario(rng, lattice, i),
                )
            )
    return out


# --- poly-certify ---------------------------------------------------------
#
# Every polynomial has the degree-8 embedding shape a8 m^8 + a4 m^4 + ... +
# a0 (no m^7, m^6, m^5 terms), a positive leading coefficient, a nonzero
# constant term, and content 1, so the engine's reduction leaves it as is.


def _mod2(rng: random.Random) -> list[int]:
    """t m^8 - u m^4 + a3 m^3 + a2 m^2 + a1 m + a0, rootless.

    u^2 < 4 t a0 makes t x^2 - u x + a0 positive definite in x = m^4, and
    the cubic tail is non-negative, so there is no positive real root.
    P(0) = a0 and P(1) are odd, so modulus 2 already has no root.
    """
    t = rng.randint(1, 300)
    a0 = 2 * rng.randint(0, 499) + 1
    u = rng.randint(1, isqrt(4 * t * a0 - 1))
    a3, a2, a1 = (rng.randint(0, 300) for _ in range(3))
    if (t - u + a3 + a2 + a1 + a0) % 2 == 0:
        a1 += 1
    return [t, 0, 0, 0, -u, a3, a2, a1, a0]


def _planted_root(rng: random.Random, rho: int) -> list[int]:
    """(m - rho) Q(m), Q = q7 (m^7 + rho m^6 + rho^2 m^5 + rho^3 m^4) + L(m).

    Q has positive coefficients, so rho is the only positive real root.
    The top of Q is fixed by the missing m^7..m^5 terms of the product.
    """
    q7 = rng.randint(1, 300)
    q3, q2, q1, q0 = (rng.randint(1, 300) for _ in range(4))
    return [
        q7,
        0,
        0,
        0,
        q3 - q7 * rho**4,
        q2 - rho * q3,
        q1 - rho * q2,
        q0 - rho * q1,
        -rho * q0,
    ]


def _negative_root(rng: random.Random, sigma: int, t0: int) -> list[int]:
    """(m + sigma) T(m) with T positive on m > 0, so -sigma is a root and
    there is no positive real root.

    T = t7 m^4 (m - sigma)(m^2 + sigma^2) + t3 m^3 + t2 m^2 + t1 m + t0,
    its top fixed by the missing m^7..m^5 terms of the product. On
    0 < m < sigma, m (sigma - m)(m^2 + sigma^2) < sigma^4 / 2 < t3 / t7,
    so T > 0. t3 < t7 sigma^4 leaves a negative m^4 coefficient, so
    Descartes' rule does not rule the positive roots out.
    """
    t7 = rng.randint(-(-3 // sigma**4), 300)  # t7 sigma^4 >= 3 leaves room for t3
    top = t7 * sigma**4
    t3 = rng.randint(top // 2 + 1, top - 1)
    t2, t1 = rng.randint(0, 300), rng.randint(0, 300)
    return [
        t7,
        0,
        0,
        0,
        t3 - top,
        t2 + sigma * t3,
        t1 + sigma * t2,
        t0 + sigma * t1,
        sigma * t0,
    ]


def _is_prime(n: int) -> bool:
    """Trial division; generator inputs stay below 2^33."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _small_factors(n: int) -> tuple[int, ...]:
    out = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def semiprime_pool() -> tuple[tuple[int, int], ...]:
    """Fixed (p, q) pairs, p < q, both ~32-bit primes."""
    rng = random.Random(SEMIPRIME_POOL_SEED)
    count = dict(POLY_MIX)["semiprime"]
    pool = []
    while len(pool) < count:
        pair = []
        while len(pair) < 2:
            n = rng.getrandbits(SEMIPRIME_FACTOR_BITS) | 1 << (SEMIPRIME_FACTOR_BITS - 1) | 1
            if _is_prime(n) and n not in pair:
                pair.append(n)
        pool.append(tuple(sorted(pair)))
    return tuple(pool)


def _content(desc: list[int]) -> int:
    g = 0
    for c in desc:
        g = gcd(g, c)
    return g


def _poly_request(rng: random.Random, kind: str, i: int, pair) -> Request:
    while True:
        root, factors = None, ()
        if kind == "mod2":
            desc = _mod2(rng)
        elif kind == "planted-root":
            root = rng.randint(1, 9)
            desc = _planted_root(rng, root)
        elif kind == "negative-root":
            sigma, t0 = rng.randint(1, 6), rng.randint(1, 500)
            desc = _negative_root(rng, sigma, t0)
            factors = _small_factors(sigma * t0)
        else:
            p, q = pair
            desc = _negative_root(rng, 1, p * q)
            factors = (p, q)
        if _content(desc) == 1:
            break
    doc = {
        "lemma": rng.choice(LEMMA_IDS),
        "mode": "direct",
        "polynomials": [{"label": f"P{i}", "coefficients": [str(c) for c in desc]}],
    }
    planted = "rootless" if root is None else f"root={root}"
    return Request(
        label=f"poly/{kind}/{planted}/{i}",
        kind=kind,
        scenario=_scenario(doc),
        root=root,
        factors=factors,
    )


def poly_certify_requests(seed: int) -> list[Request]:
    rng = random.Random(f"poly-certify:{seed}")
    kinds = [kind for kind, n in POLY_MIX for _ in range(n)]
    pairs = iter(semiprime_pool())
    return [
        _poly_request(rng, kind, i, next(pairs) if kind == "semiprime" else None)
        for i, kind in enumerate(kinds)
    ]


def build(workload: str, seed: int) -> list[Request]:
    """The pass of a workload."""
    if workload == "replay":
        return replay_requests()
    if workload == "grid-sweep":
        return grid_sweep_requests(seed)
    if workload == "poly-certify":
        return poly_certify_requests(seed)
    raise ValueError(f"unknown workload {workload!r}")
