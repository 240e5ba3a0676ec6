"""Bounded exhaustive enumeration of admissible Chern data.

Every scenario reduces to the same Diophantine condition: over a finite
grid of degree parameters and first-Chern coefficients r, find the
rational k with

    (3k^2 + 4k - 1) * r^4 * d == target,

subject to an optional strict lower bound on k and an integrality rule
tying the denominator of k to the degree lattice. The grid, the rule
and the bounds are data.

k is rational exactly when D * (7 r^4 D + 3 target) is a square, D the
degree. With g = gcd(D, 3 target) that forces D = g a^2 and
b^2 - 7 (r^2 a)^2 = 3 target / g, so the degrees come from the
solutions of one Pell-type equation per divisor g of 3 target, not from
a scan of the grid, and so do the r at each degree. The bounds cap
c14 = r^4 D = g (r^2 a)^2 at a ceiling (see _c14_ceiling), so they cap
r^2 a below the square root of ceiling / g for every r, and no degree
past the ceiling is visited however large the box. The grid points of
those degrees then go through the per-point solver with those r only,
which takes k = (-2 c14 +- s) / (3 c14) with s the square root, and
applies the bounds and the rule. The cost grows with the target and
the ceiling rather than with the grid. Output order is deterministic:
lattice parameters, then r, then k, ascending.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, prod

from .exact import divisors, integer_sqrt_exact
from .riemann_roch import DerivedInvariants
from .ring import LATTICE_PARAMS, ChernCase, Geometry, lattice_degree, record

__all__ = [
    "LatticeSpec",
    "ConstraintSystem",
    "CaseSolution",
    "enumerate_cases",
    "to_chern_case",
]

# Lattice model -> (the least value on the grid of each parameter that
# ring.LATTICE_PARAMS names, the divisibility rule that fits the model).
LATTICE_MODELS = {
    "rank1": ((1,), "l_div_er2"),
    "rank2": ((1, 0), "l_div_ar2_br2"),
    "free": ((1,), "l2_div_dr4"),
}
# Lattice model -> its bounds: parameter p runs over the grid from its
# least value to the bound p_max, inclusive.
LATTICE_BOUNDS = {
    model: tuple(f"{name}_max" for name in names)
    for model, names in LATTICE_PARAMS.items()
}


@record
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
    # __post_init__ sets from the bounds points, len(self.grid()), and
    # max_degree, the largest degree of a grid point (0 when there is
    # none); neither is a field.

    def __post_init__(self):
        if self.model not in LATTICE_MODELS:
            raise ValueError(f"unknown lattice model {self.model!r}")
        ranges = self._ranges()
        # len() of a range past sys.maxsize overflows; its stop - start does not.
        points = prod(max(0, r.stop - r.start) for r in ranges)
        largest = lattice_degree(self.model, [r[-1] for r in ranges]) if points else 0
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "max_degree", largest)

    def _ranges(self) -> list[range]:
        least, _ = LATTICE_MODELS[self.model]
        stops = [getattr(self, bound) + 1 for bound in LATTICE_BOUNDS[self.model]]
        return list(map(range, least, stops))

    @property
    def rule(self) -> str:
        """The divisibility rule that fits the model."""
        return LATTICE_MODELS[self.model][1]

    def at_degree(self, d: int) -> list[Geometry]:
        """The grid points of degree d, in grid order."""
        if self.model == "rank1":
            e = integer_sqrt_exact(d)
            return [Geometry.rank1(e)] if e is not None and e <= self.e_max else []
        if self.model == "rank2":
            out = []
            for a in range(1, min(self.a_max, isqrt(d)) + 1):
                b = isqrt(d - a * a)
                if a * a + b * b == d and b <= self.b_max:
                    out.append(Geometry.rank2(a, b))
            return out
        return [Geometry.free(d)] if d <= self.d_max else []

    def grid(self) -> list[Geometry]:
        return [Geometry(self.model, p) for p in itertools.product(*self._ranges())]


@record
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
        if self.c14_max is not None and self.c14_max < 1:
            raise ValueError("c14_max must be positive")


@record
class CaseSolution:
    ordinal: int
    geometry: Geometry
    r: int
    k: Fraction


def _passes_divisibility(geom: Geometry, r: int, k: Fraction) -> bool:
    """With k = p/l: l^2 divides r^4 d on the free model, and l divides
    r^2 x for every lattice coordinate x, that is r^2 times their gcd, on
    the others."""
    l = k.denominator
    if geom.model == "free":
        return (geom.degree * r**4) % (l * l) == 0
    return (gcd(*geom.sort_params) * r * r) % l == 0


def solve_quadratic_rational(c14: int, target: int) -> tuple[Fraction, ...]:
    """The rational roots k of (3k^2 + 4k - 1) c14 == target, ascending.

    They are (-2 c14 -+ s) / (3 c14) with s^2 = c14 (7 c14 + 3 target),
    and () when that is not a square. With c14 > 0 and target > 0, s > 0,
    so a rational pair is always two distinct roots.
    """
    s = integer_sqrt_exact(c14 * (7 * c14 + 3 * target))
    if s is None:
        return ()
    return (Fraction(-2 * c14 - s, 3 * c14), Fraction(-2 * c14 + s, 3 * c14))


def _solve_point(system: ConstraintSystem, geom: Geometry, rs) -> list[tuple]:
    """The solutions at grid point geom with r in rs."""
    found = []
    lower = system.k_lower
    for r in rs:
        c14 = r**4 * geom.degree
        if system.c14_max is not None and c14 > system.c14_max:
            continue
        for k in solve_quadratic_rational(c14, system.target):
            p, q = k.numerator, k.denominator
            if lower is not None and p * lower.denominator <= lower.numerator * q:
                continue
            if not _passes_divisibility(geom, r, k):
                continue
            if (3 * p * p + 4 * p * q - q * q) * c14 != system.target * q * q:
                raise ArithmeticError("solver produced a non-solution")
            found.append((geom, r, k))
    return found


def _pell_ys(n: int, y_max: int) -> set[int]:
    """Every y in 1..y_max for which x^2 - 7 y^2 == n has a solution, n >= 1.

    Every class of solutions has a fundamental one (x0, y0) with
    0 <= y0 <= sqrt(n/2) (Nagell, Introduction to Number Theory, 1951,
    with the unit 8 + 3 sqrt 7), and x0 may have either sign.
    Taking x0 > 0 and y of both signs, the unit's powers then reach every
    solution with positive x and y, none of them with y below y0.
    As x^2 - 7 y^2 is x^2 mod 7 and x^2 + y^2 mod 8, there is no solution
    when n is 3, 5 or 6 mod 7, or 3, 6 or 7 mod 8.
    """
    ys = set()
    if n % 7 in (3, 5, 6) or n % 8 in (3, 6, 7):
        return ys
    for y0 in range(min(isqrt(n // 2), y_max) + 1):
        x0 = isqrt(n + 7 * y0 * y0)
        if x0 * x0 == n + 7 * y0 * y0:
            for x, y in ((x0, y0), (x0, -y0)):
                while y <= y_max:
                    if y >= 1:
                        ys.add(y)
                    x, y = 8 * x + 21 * y, 3 * x + 8 * y
    return ys


def _c14_ceiling(system: ConstraintSystem) -> int | None:
    """The largest c14 = r^4 D at which a case can pass the bounds, or None
    when they set none: the smaller of c14_max and the largest c14 at
    which the larger root still exceeds k_lower = p/q.

    The roots are (-2 c14 -+ s) / (3 c14), s^2 = c14 (7 c14 + 3 target).
    The smaller is below -2/3, so it never passes a bound with
    3p + 2q > 0, and the larger passes one exactly when
    ((3p + 2q)^2 - 7 q^2) c14 < 3 target q^2. The larger exceeds
    (sqrt 7 - 2) / 3, so it passes every bound with 3p + 2q <= 0 or
    (3p + 2q)^2 < 7 q^2 at every c14; as sqrt 7 is irrational,
    (3p + 2q)^2 != 7 q^2.
    """
    ceilings = [] if system.c14_max is None else [system.c14_max]
    if system.k_lower is not None:
        p, q = system.k_lower.numerator, system.k_lower.denominator
        spread = (3 * p + 2 * q) ** 2 - 7 * q * q
        if 3 * p + 2 * q > 0 and spread > 0:
            ceilings.append((3 * system.target * q * q - 1) // spread)
    return min(ceilings, default=None)


def _candidate_degrees(system: ConstraintSystem) -> dict[int, set[int]]:
    """Every degree D <= the grid's largest at which D (7 r^4 D + 3 target)
    is a square for some r in range with r^4 D at most the c14 ceiling,
    mapped to those r: D = g a^2 with g dividing 3 target and r^2 a a
    solution y of x^2 - 7 y^2 == 3 target / g. Then r^4 D = g y^2, so the
    ceiling caps y alike for every r. The r range has one sign, so r^2
    names r."""
    d_max = system.lattice.max_degree
    roots = {r * r: r for r in range(system.r_min, system.r_max + 1)}
    ceiling = _c14_ceiling(system)
    n = 3 * system.target
    found = {}
    for g in divisors(n):
        a_max = isqrt(d_max // g)
        y_max = max(roots) * a_max
        if ceiling is not None:
            y_max = min(y_max, isqrt(ceiling // g))
        if y_max < min(roots):
            break  # the divisors ascend, and y is r^2 a with a >= 1
        for y in _pell_ys(n // g, y_max):
            for s, r in roots.items():
                a, rem = divmod(y, s)
                if rem == 0 and a <= a_max:
                    found.setdefault(g * a * a, set()).add(r)
    return found


def enumerate_cases(system: ConstraintSystem, workers: int = 1) -> list[CaseSolution]:
    """All solutions over the grid, sorted and numbered from 1.

    Only the grid points at a candidate degree are solved, each with the
    r found there. workers is accepted and ignored: the benchmark harness
    still passes it.
    """
    raw = [
        hit
        for d, rs in _candidate_degrees(system).items()
        for geom in system.lattice.at_degree(d)
        for hit in _solve_point(system, geom, rs)
    ]
    raw.sort(key=lambda hit: (hit[0].sort_params, hit[1], hit[2]))
    seen = set()
    for geom, r, k in raw:
        key = (geom.sort_params, r, k.numerator, k.denominator)
        if key in seen:
            raise ArithmeticError(f"duplicate solution {key}")
        seen.add(key)
    return [
        CaseSolution(ordinal=i, geometry=g, r=r, k=k)
        for i, (g, r, k) in enumerate(raw, start=1)
    ]


def to_chern_case(sol: CaseSolution, inv: DerivedInvariants) -> ChernCase:
    if inv.c1c3 is None:
        raise ValueError("invariants are not completed (run complete_invariants first)")
    return ChernCase(
        r=sol.r,
        k=sol.k,
        c1c3=inv.c1c3,
        euler=inv.chi,
        geometry=sol.geometry,
    )
