"""Which rational cohomology types and Hodge diamonds the replay covers.

A simply connected rationally elliptic space with positive Euler number
has cohomology Q[x_1..x_k]/(f_1..f_k) with f a regular sequence
(Halperin, Trans. AMS 230, 1977; Felix-Halperin-Thomas, Rational
Homotopy Theory, GTM 205, section 32). With x_i of degree 2a_i and f_j
of degree 2b_j, and x = t^2, its Poincare polynomial is
prod(1 - x^b_j) / prod(1 - x^a_i), of degree sum(b) - sum(a) in x,
which is 4 in formal dimension 8. A Kaehler fourfold with odd
cohomology zero has positive Euler number, so a rationally elliptic one
has one of these Betti vectors.

The diamonds are those of each vector with odd cohomology zero,
h^{0,0} = 1, h^{1,1} >= 1, h^{2,2} >= 1, and the Lefschetz bounds
h^{1,1} <= h^{2,2} and h^{2,0} <= h^{3,1}. Each table below is compared
whole, so a diamond planted in the enumeration or dropped from it fails.
"""

import re
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

from chern_gate.pipeline import scenario_bytes
from chern_gate.riemann_roch import HodgeDiamond
from chern_gate.scenario import parse_scenario

from conftest import PIPELINE_LEMMAS

README = Path(__file__).resolve().parent.parent / "README.md"

# (b0, b2, b4, b6, b8): all ten Betti vectors, and the six with
# b0 <= b2 <= b4, which hard Lefschetz asks of a Kaehler fourfold.
BETTI_VECTORS = {
    (1, 0, 0, 0, 1),
    (1, 0, 1, 0, 1),
    (1, 0, 2, 0, 1),
    (1, 1, 0, 1, 1),
    (1, 1, 1, 1, 1),
    (1, 1, 2, 1, 1),
    (1, 2, 2, 2, 1),
    (1, 2, 3, 2, 1),
    (1, 3, 4, 3, 1),
    (1, 4, 6, 4, 1),
}
LEFSCHETZ_VECTORS = {
    (1, 1, 1, 1, 1),  # P^4
    (1, 1, 2, 1, 1),  # Q^4
    (1, 2, 2, 2, 1),  # P^1 x P^3
    (1, 2, 3, 2, 1),  # P^2 x P^2
    (1, 3, 4, 3, 1),  # P^1 x P^1 x P^2
    (1, 4, 6, 4, 1),  # (P^1)^4
}
# (h20, h11, h40, h31, h22) -> Hodge level, the largest |p - q| with
# h^{p,q} nonzero.
DIAMONDS = {
    (0, 1, 0, 0, 1): 0,
    (0, 1, 0, 0, 2): 0,
    (0, 2, 0, 0, 2): 0,
    (0, 2, 0, 0, 3): 0,
    (0, 3, 0, 0, 4): 0,
    (1, 1, 0, 1, 2): 2,
    (0, 4, 0, 0, 6): 0,
    (0, 4, 0, 1, 4): 2,
    (0, 4, 1, 0, 4): 4,
    (1, 2, 0, 1, 4): 2,
    (1, 2, 0, 2, 2): 2,
    (1, 2, 1, 1, 2): 4,
}
# The shipped pipeline lemmas, each with the diamond it replays.
SHIPPED = {
    "2.1": (0, 1, 0, 0, 1),  # P^4
    "2.2": (0, 1, 0, 0, 1),  # P^4
    "3.1": (0, 1, 0, 0, 2),  # Q^4
    "4.2": (1, 2, 0, 2, 2),
}


def times(poly: list[int], e: int) -> list[int]:
    """poly times 1 - x^e."""
    return [
        (poly[i] if i < len(poly) else 0) - (poly[i - e] if i >= e else 0)
        for i in range(len(poly) + e)
    ]


def poincare(a, b) -> tuple[int, ...] | None:
    """The coefficients of prod(1 - x^b_j) / prod(1 - x^a_i), or None if
    the quotient is not a polynomial."""
    poly = [1]
    for bj in b:
        poly = times(poly, bj)
    for ai in a:  # divide by 1 - x^ai: the quotient is q_i = p_i + q_{i-ai}
        quotient = []
        for i in range(len(poly) - ai):
            quotient.append(poly[i] + (quotient[i - ai] if i >= ai else 0))
        if times(quotient, ai) != poly:
            return None
        poly = quotient
    return tuple(poly)


def betti_vectors() -> set[tuple[int, ...]]:
    """The Poincare polynomials with k <= 4 generators of degrees
    1 <= a_i <= 4, relations of degrees 2 <= b_j <= 8, sum(b) - sum(a) = 4,
    and no negative coefficient."""
    found = set()
    for k in range(1, 5):
        for a in combinations_with_replacement(range(1, 5), k):
            for b in combinations_with_replacement(range(2, 9), k):
                if sum(b) - sum(a) == 4:
                    poly = poincare(a, b)
                    if poly is not None and min(poly) >= 0:
                        found.add(poly)
    return found


def grid(h20, h11, h40, h31, h22) -> tuple[tuple[int, ...], ...]:
    """The 5x5 diamond with odd cohomology zero and these cells, filled
    in by Hodge symmetry and Serre duality."""
    return (
        (1, 0, h20, 0, h40),
        (0, h11, 0, h31, 0),
        (h20, 0, h22, 0, h20),
        (0, h31, 0, h11, 0),
        (h40, 0, h20, 0, 1),
    )


def level(hd: HodgeDiamond) -> int:
    return max(abs(p - q) for p in range(5) for q in range(5) if hd.h[p][q])


def diamonds() -> dict[tuple[int, ...], int]:
    """Each diamond the rules allow on the ten Betti vectors, built through
    HodgeDiamond, with its level."""
    found = {}
    for b0, b2, b4, _, _ in betti_vectors():
        for h20 in range(b2 // 2 + 1):
            for h40 in range(b4 // 2 + 1):
                for h31 in range((b4 - 2 * h40) // 2 + 1):
                    h11, h22 = b2 - 2 * h20, b4 - 2 * h40 - 2 * h31
                    if b0 == 1 and 1 <= h11 <= h22 and h20 <= h31:
                        cells = (h20, h11, h40, h31, h22)
                        found[cells] = level(HodgeDiamond(grid(*cells)))
    return found


def test_the_betti_vectors_are_the_ten_pinned():
    assert betti_vectors() == BETTI_VECTORS
    lefschetz = {v for v in BETTI_VECTORS if v[0] <= v[1] <= v[2]}
    assert lefschetz == LEFSCHETZ_VECTORS


def test_the_diamonds_are_the_twelve_pinned():
    found = diamonds()
    assert found == DIAMONDS
    assert Counter(found.values()) == {0: 6, 2: 4, 4: 2}
    for h20, h11, h40, h31, h22 in found:  # each lies on a Lefschetz vector
        b2, b4 = 2 * h20 + h11, 2 * h40 + 2 * h31 + h22
        assert (1, b2, b4, b2, 1) in LEFSCHETZ_VECTORS


def test_each_shipped_lemma_replays_a_pinned_diamond():
    for lid in PIPELINE_LEMMAS:
        spec = parse_scenario(scenario_bytes(lid))
        [cells] = [c for c in DIAMONDS if grid(*c) == spec.diamond.h]
        assert SHIPPED[lid] == cells, lid
    assert DIAMONDS[SHIPPED["4.2"]] == 2


def test_the_readme_lists_the_diamonds_no_lemma_replays():
    # Rows "| (b0, ..., b8) | (h20, h11, h40, h31, h22) | level |".
    row = re.compile(r"\| \(([\d, ]+)\) \| \(([\d, ]+)\) \| (\d) \|")
    listed = {}
    for line in README.read_text().splitlines():
        if match := row.fullmatch(line):
            vector, cells = (tuple(map(int, g.split(", "))) for g in match.groups()[:2])
            b2 = 2 * cells[0] + cells[1]
            assert vector == (1, b2, 2 * sum(cells[2:4]) + cells[4], b2, 1)
            listed[cells] = int(match.group(3))
    unreplayed = {c: lvl for c, lvl in DIAMONDS.items() if c not in SHIPPED.values()}
    assert listed == unreplayed
    assert len(listed) == 9 and sum(lvl > 0 for lvl in listed.values()) == 5
