"""Bounded exhaustive enumeration of admissible Chern data.

Every scenario reduces to the same Diophantine condition: over a finite
grid of degree parameters and first-Chern coefficients r, find the
rational k with

    (3k^2 + 4k - 1) * r^4 * d == target,

subject to an optional strict lower bound on k and an integrality rule
tying the denominator of k to the degree lattice. The grid, the rule
and the bounds are data. At each grid point and r the solver first
tests one integer for being a perfect square, which decides whether k
can be rational, and solves the exact quadratic only where it is.
Output order is deterministic (lattice parameters, then r, then k,
ascending) and independent of how the grid is partitioned across
workers.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .exact import integer_sqrt_exact, solve_quadratic_rational
from .riemann_roch import DerivedInvariants
from .ring import ChernCase, Geometry

__all__ = [
    "LatticeSpec",
    "ConstraintSystem",
    "CaseSolution",
    "CharNumbers",
    "enumerate_cases",
    "char_number_table",
    "to_chern_case",
]

# Lattice model -> (its grid bounds, the divisibility rule that fits it).
LATTICE_MODELS = {
    "rank1": (("e_max",), "l_div_er2"),
    "rank2": (("a_max", "b_max"), "l_div_ar2_br2"),
    "free": (("d_max",), "l2_div_dr4"),
}


@dataclass(frozen=True)
class LatticeSpec:
    """Grid bounds for one lattice model (bounds inclusive).

    rank2 scans a >= 1 and b >= 0: the published case lists keep both
    orderings of a mixed pair but never a leading zero, and a == b == 0
    has no degree.
    """

    model: str
    e_max: int = 0
    a_max: int = 0
    b_max: int = 0
    d_max: int = 0

    def __post_init__(self):
        if self.model not in LATTICE_MODELS:
            raise ValueError(f"unknown lattice model {self.model!r}")

    @property
    def rule(self) -> str:
        """The divisibility rule that fits the model."""
        return LATTICE_MODELS[self.model][1]

    @property
    def points(self) -> int:
        """len(self.grid()), counted from the bounds."""
        if self.model == "rank2":
            return self.a_max * (self.b_max + 1)
        return self.e_max if self.model == "rank1" else self.d_max

    def grid(self) -> list[Geometry]:
        if self.model == "rank1":
            return [Geometry.rank1(e) for e in range(1, self.e_max + 1)]
        if self.model == "rank2":
            return [
                Geometry.rank2(a, b)
                for a in range(1, self.a_max + 1)
                for b in range(0, self.b_max + 1)
            ]
        return [Geometry.free(d) for d in range(1, self.d_max + 1)]


@dataclass(frozen=True)
class ConstraintSystem:
    target: int
    lattice: LatticeSpec
    r_min: int
    r_max: int
    k_lower: Fraction | None = None  # strict bound when present
    c14_max: int | None = None  # cap on <c1^4> = r^4 * d when present

    def __post_init__(self):
        if self.target <= 0:
            raise ValueError("target must be positive")
        if self.r_min > self.r_max:
            raise ValueError("empty r range")
        if self.r_min <= 0 <= self.r_max:
            raise ValueError("r range must not contain zero")


@dataclass(frozen=True)
class CaseSolution:
    ordinal: int
    geometry: Geometry
    r: int
    k: Fraction

    @property
    def c1_4(self) -> int:
        return self.r**4 * self.geometry.degree


def _passes_divisibility(rule: str, geom: Geometry, r: int, k: Fraction) -> bool:
    l = k.denominator
    if rule == "l_div_er2":
        return (geom.e * r * r) % l == 0
    if rule == "l_div_ar2_br2":
        return (geom.a * r * r) % l == 0 and (geom.b * r * r) % l == 0
    return (geom.degree * r**4) % (l * l) == 0


def _solve_point(system: ConstraintSystem, geom: Geometry) -> list[tuple]:
    found = []
    for r in range(system.r_min, system.r_max + 1):
        c14 = r**4 * geom.degree
        if system.c14_max is not None and c14 > system.c14_max:
            continue
        # (3k^2 + 4k - 1) c14 = target  <=>  3k^2 + 4k - (1 + target/c14) = 0,
        # whose discriminant 4 (7 c14 + 3 target) / c14 is a rational
        # square exactly when c14 (7 c14 + 3 target) is an integer square.
        # Most points fail that integer test and never build a Fraction.
        if integer_sqrt_exact(c14 * (7 * c14 + 3 * system.target)) is None:
            continue
        roots = solve_quadratic_rational(3, 4, -1 - Fraction(system.target, c14))
        for k in roots:
            if system.k_lower is not None and not k > system.k_lower:
                continue
            if not _passes_divisibility(system.lattice.rule, geom, r, k):
                continue
            if (3 * k * k + 4 * k - 1) * c14 != system.target:
                raise ArithmeticError("solver produced a non-solution")
            found.append((geom, r, k))
    return found


def enumerate_cases(
    system: ConstraintSystem, workers: int = 1
) -> list[CaseSolution]:
    """All solutions over the grid, sorted and numbered from 1.

    workers > 1 partitions the grid by stride; results are merged and
    sorted, so the output is identical for any worker count.
    """
    geoms = system.lattice.grid()
    if workers <= 1:
        raw = [hit for g in geoms for hit in _solve_point(system, g)]
    else:
        chunks = [geoms[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(
                lambda chunk: [hit for g in chunk for hit in _solve_point(system, g)],
                chunks,
            )
            raw = list(itertools.chain.from_iterable(parts))
    raw.sort(key=lambda hit: (hit[0].sort_params, hit[1], hit[2]))
    seen = set()
    for hit in raw:
        key = (hit[0].sort_params, hit[1], hit[2])
        if key in seen:
            raise ArithmeticError(f"duplicate solution {key}")
        seen.add(key)
    return [
        CaseSolution(ordinal=i, geometry=g, r=r, k=k)
        for i, (g, r, k) in enumerate(raw, start=1)
    ]


@dataclass(frozen=True)
class CharNumbers:
    """The five Chern numbers of a case, all exact integers."""

    c1_4: int
    c1c3: int
    c1_2c2: int
    c2_2: int
    c4: int


def char_number_table(sol: CaseSolution, inv: DerivedInvariants) -> CharNumbers:
    """Chern numbers of a solution: <c1^4> = r^4 d, <c1^2 c2> = k r^4 d,
    <c2^2> = k^2 r^4 d, with <c1 c3> and <c4> fixed by the invariants."""
    if inv.c1c3 is None:
        raise ValueError("invariants are not completed (run rr_target first)")
    c14 = sol.c1_4
    c12c2 = sol.k * c14
    c2sq = sol.k * sol.k * c14
    if c12c2.denominator != 1 or c2sq.denominator != 1:
        raise ArithmeticError(
            f"non-integral Chern number for {sol.geometry.params}, r={sol.r}, "
            f"k={sol.k}: the divisibility rule should have excluded this"
        )
    return CharNumbers(
        c1_4=c14,
        c1c3=inv.c1c3,
        c1_2c2=int(c12c2),
        c2_2=int(c2sq),
        c4=inv.chi,
    )


def to_chern_case(sol: CaseSolution, inv: DerivedInvariants) -> ChernCase:
    if inv.c1c3 is None:
        raise ValueError("invariants are not completed (run rr_target first)")
    return ChernCase(
        r=sol.r,
        k=sol.k,
        c1c3=inv.c1c3,
        euler=inv.chi,
        geometry=sol.geometry,
    )
