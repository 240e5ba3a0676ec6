"""Differential tests for the hot paths against their plain forms.

eliminate scans only prime-power moduli and evaluates each residue t
once, exactly, for all of them; it decides a prime q by whether q
divides the running product of the first q values, and a higher prime
power by its residues one by one. It stops at the first integer root it
meets: a zero among the values is the least positive root, and a
divisor t of the constant term with p(-t) == 0 sends it to the divisor
test at once, which reads p(t) from the scan for every divisor t the
scan reached. A reduction by content 1 and m power 0 of a polynomial
with positive lead, nonzero constant term and scale 1 returns the
polynomial itself. The enumeration visits only the degrees that
solutions of x^2 - 7 y^2 = 3 target / g allow, up to the c14 ceiling
that k_lower and c14_max set, solves only the r those solutions give
at each, and takes k in closed form from the integer square root of
c14 (7 c14 + 3 target). A Hodge diamond is accepted in
one pass over the grid, its transpose and its Serre mirror, and its
invariants come from its row sums. Each
case's characteristic numbers, Pontryagin numbers, signature and
chi(O) check are integer numerators over a known
denominator, with one Fraction per value returned, and so is c4 of the
normal bundle, whose inverse of c(X) runs on integers over powers of
one common denominator L, and the embedding polynomial clears the
denominators of those Fractions without Fraction arithmetic. Pollard
rho reduces once per two squarings and once per four differences of
its product.
The oracles below are the plain forms: the reduction that divides and
rebuilds every polynomial, every modulus 2..max_modulus with every
residue, the prime-power scan with Horner's rule mod q run afresh for
every residue of every modulus, both climbing to the cap whatever
roots they pass, the per-point scan of every grid point and r, one
Fraction quadratic per grid point and r, y tried one by one, the
diamond checked cell by cell and its invariants summed cell by cell,
and each
per-case formula as a chain of Fraction operations, c4(N) and the
embedding polynomial among them through GradedClass.inverse, and rho
with one reduction per step. Every hot path must return exactly what
its oracle returns.
"""

import copy
import math
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chern_gate import constraint_system_for, enumerate_cases, exact, search
from chern_gate.exact import divisors, factorize
from chern_gate.obstruction import (
    _prime_powers,
    _reduce,
    build_embedding_polynomial,
    eliminate,
)
from chern_gate.report import parse_int_str
from chern_gate.riemann_roch import (
    DerivedInvariants,
    HodgeDiamond,
    PontryaginData,
    chi_O_from_class,
    invariants_from_diamond,
    l_genus_signature,
    pontryagin_numbers,
)
from chern_gate.ring import (
    AMBIENT_BINOMIALS,
    CharNumbers,
    ChernCase,
    Geometry,
    ambient_pullback,
    char_number_table,
    chern_from_case,
    normal_c4_polynomial,
    replace,
    top_pairing,
)
from chern_gate.scenario import ScenarioError, _expect, _parse_hodge
from chern_gate.search import (
    LATTICE_BOUNDS,
    LATTICE_MODELS,
    CaseSolution,
    ConstraintSystem,
    LatticeSpec,
    _pell_ys,
    solve_quadratic_rational,
)
from chern_gate.verify import (
    ConstantDivisorTest,
    IntPoly,
    ModularObstruction,
    RootFound,
    _check_reduction,
    is_probable_prime,
    verify_certificate,
)

from conftest import PIPELINE_LEMMAS

DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True)


def dividing_check_reduction(poly: IntPoly, content: int, m_power: int):
    """_check_reduction as a division that builds the reduced polynomial
    whatever it divides."""
    if poly.is_zero:
        return None, "zero polynomial has every positive integer as a root"
    if content < 1:
        return None, f"content {content} is not positive"
    cs = list(poly.coeffs)
    if cs[-1] < 0:
        cs = [-c for c in cs]
    if any(c % content for c in cs):
        return None, f"content {content} does not divide all coefficients"
    cs = [c // content for c in cs]
    if m_power < 0 or m_power > len(cs) - 1:
        return None, f"m power {m_power} out of range"
    if any(cs[i] != 0 for i in range(m_power)):
        return None, f"coefficients below m^{m_power} are not all zero"
    reduced = IntPoly(tuple(cs[m_power:]))
    if reduced.coeffs[0] == 0:
        return None, "reduced polynomial still divisible by m"
    return reduced, ""


def full_scan_eliminate(poly: IntPoly, max_modulus: int = 720):
    """eliminate as a scan of every modulus with every residue."""
    content, m_power, reduced = _reduce(poly)
    for modulus in range(2, max_modulus + 1):
        residues = tuple(reduced.evaluate_mod(t, modulus) for t in range(modulus))
        if all(residues):
            return ModularObstruction(
                content=content,
                m_power=m_power,
                modulus=modulus,
                residues=residues,
            )
    candidates = divisors(abs(reduced.coeffs[0]))
    values = tuple(reduced.evaluate(m) for m in candidates)
    for m, value in zip(candidates, values):
        if value == 0:
            return RootFound(m=m)
    return ConstantDivisorTest(
        content=content, m_power=m_power, divisors=candidates, values=values
    )


def prime_power_horner_eliminate(poly: IntPoly, max_modulus: int = 720):
    """eliminate as a prime-power scan that runs Horner mod q for every
    residue of every modulus q."""
    content, m_power, reduced = _reduce(poly)
    for modulus in _prime_powers(max_modulus):
        residues = []
        for t in range(modulus):
            value = reduced.evaluate_mod(t, modulus)
            if value == 0:
                break
            residues.append(value)
        else:
            return ModularObstruction(
                content=content,
                m_power=m_power,
                modulus=modulus,
                residues=tuple(residues),
            )
    candidates = divisors(abs(reduced.coeffs[0]))
    values = tuple(reduced.evaluate(m) for m in candidates)
    for m, value in zip(candidates, values):
        if value == 0:
            return RootFound(m=m)
    return ConstantDivisorTest(
        content=content, m_power=m_power, divisors=candidates, values=values
    )


def plain_pollard_rho(n: int, gcd=math.gcd) -> int:
    """exact._pollard_rho with one reduction per squaring and one per
    difference of the product."""
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def fraction_solve_quadratic(a, b, c) -> tuple[Fraction, ...]:
    """The roots of a x^2 + b x + c = 0 in Fraction arithmetic: the rational
    square root of the discriminant, then each root as a quotient."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        raise ValueError("leading coefficient must be nonzero")
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    num, den = isqrt(disc.numerator), isqrt(disc.denominator)
    if num * num != disc.numerator or den * den != disc.denominator:
        return ()
    s = Fraction(num, den)
    if s == 0:
        return (-b / (2 * a),)
    lo = (-b - s) / (2 * a)
    hi = (-b + s) / (2 * a)
    return (lo, hi) if lo < hi else (hi, lo)


def fraction_char_number_table(case: ChernCase) -> CharNumbers:
    """ring.char_number_table as products of Fractions."""
    c14 = case.r**4 * case.geometry.degree
    c12c2 = case.k * c14
    c2sq = case.k * case.k * c14
    if c12c2.denominator != 1 or c2sq.denominator != 1:
        raise ArithmeticError("non-integral Chern number")
    return CharNumbers(c14, case.c1c3, int(c12c2), int(c2sq), case.euler)


def fraction_pontryagin_numbers(case: ChernCase) -> PontryaginData:
    """riemann_roch.pontryagin_numbers as a chain of Fractions."""
    r4d = case.r**4 * case.geometry.degree
    k = case.k
    p1_sq = (1 - 2 * k) ** 2 * r4d
    p2 = k * k * r4d - 2 * case.c1c3 + 2 * case.euler
    a_hat = (7 * p1_sq - 4 * p2) / 5760
    return PontryaginData(p1_sq, p2, a_hat, case.r % 2 == 0)


def fraction_l_genus_signature(pd: PontryaginData) -> Fraction:
    return (7 * pd.p2 - pd.p1_sq) / 45


def fraction_chi_O_from_class(c, geom) -> Fraction:
    """riemann_roch.chi_O_from_class paired from the total Chern class in
    Fraction arithmetic, not read from the row of Chern numbers."""
    _, q1, q2, q3, q4 = c.coeffs
    paired = -q4 + q3 * q1 + 3 * q2 * q2 + 4 * q2 * q1 * q1 - q1**4
    return paired * geom.degree / 720


def fraction_embedding_polynomial(case: ChernCase) -> IntPoly:
    """obstruction.build_embedding_polynomial as a list of Fractions: c4(N)
    from the inverse of c(X) in Q[g]/(g^5), negated, d^2 at m^8, and every
    denominator cleared with one lcm."""
    inv = chern_from_case(case).inverse().coeffs
    d = case.geometry.degree
    c4 = [AMBIENT_BINOMIALS[j] * inv[4 - j] * d for j in range(5)]
    rational = [-c for c in c4] + [Fraction(0)] * 3 + [Fraction(d * d)]
    scale = lcm(*(c.denominator for c in rational))
    return IntPoly(tuple(int(c * scale) for c in rational), scale)


# The divisibility rules tying the denominator l of k to the lattice.
FRACTION_RULES = {
    "l_div_er2": lambda params, r, l: params["e"] * r * r % l == 0,
    "l_div_ar2_br2": lambda params, r, l: (
        params["a"] * r * r % l == 0 and params["b"] * r * r % l == 0
    ),
    "l2_div_dr4": lambda params, r, l: params["d"] * r**4 % (l * l) == 0,
}


def fraction_solve_point(system: ConstraintSystem, geom) -> list[tuple]:
    """search._solve_point with one Fraction quadratic per value of r."""
    allowed = FRACTION_RULES[system.lattice.rule]
    found = []
    for r in range(system.r_min, system.r_max + 1):
        c14 = r**4 * geom.degree
        if system.c14_max is not None and c14 > system.c14_max:
            continue
        roots = fraction_solve_quadratic(3, 4, -1 - Fraction(system.target, c14))
        for k in roots:
            if system.k_lower is not None and not k > system.k_lower:
                continue
            if not allowed(geom.params, r, k.denominator):
                continue
            if (3 * k * k + 4 * k - 1) * c14 != system.target:
                raise ArithmeticError("solver produced a non-solution")
            found.append((geom, r, k))
    return found


def scan_cases(system: ConstraintSystem) -> list[CaseSolution]:
    """enumerate_cases as the per-point scan: every grid point, every r."""
    grid = system.lattice.grid()
    rs = range(system.r_min, system.r_max + 1)
    raw = [hit for geom in grid for hit in search._solve_point(system, geom, rs)]
    raw.sort(key=lambda hit: (hit[0].sort_params, hit[1], hit[2]))
    return [
        CaseSolution(ordinal=i, geometry=geom, r=r, k=k)
        for i, (geom, r, k) in enumerate(raw, start=1)
    ]


def loop_fault(h) -> tuple[str, str] | None:
    """The first fault of a 5x5 grid, cell by cell in row order: a cell
    not an int, negative, unlike its transpose, or unlike its Serre
    mirror; then a corner that is not 1; None for a good grid."""
    for p in range(5):
        for q in range(5):
            cell, x = f"[{p}][{q}]", h[p][q]
            if type(x) is not int:
                return cell, f"h{cell} is not an integer"
            if x < 0:
                return cell, f"h{cell} is negative"
            if x != h[q][p]:
                return cell, f"h{cell}={x} is not matched by h[{q}][{p}]={h[q][p]}"
            s, t = 4 - p, 4 - q
            if x != h[s][t]:
                return cell, (
                    f"h{cell}={x} is not matched by h[{s}][{t}]={h[s][t]} "
                    "(Serre duality)"
                )
    if h[0][0] != 1 or h[4][4] != 1:
        return "", "a connected fourfold needs h[0][0] == h[4][4] == 1"
    return None


def loop_diamond(rows) -> HodgeDiamond:
    """HodgeDiamond(tuple(map(tuple, rows))) with its checks run cell by
    cell first."""
    h = tuple(map(tuple, rows))
    if len(h) != 5 or any(len(row) != 5 for row in h):
        raise ValueError("expected a 5x5 grid of Hodge numbers")
    fault = loop_fault(h)
    if fault is not None:
        raise ValueError(fault[1])
    return HodgeDiamond(h)


def _cell(x, path: str) -> int:
    """x, if it is a JSON integer; another is refused at path."""
    try:
        return _expect(x, int)
    except ScenarioError as exc:
        raise ScenarioError(path, exc.reason) from None


def loop_parse_hodge(raw) -> HodgeDiamond:
    """scenario._parse_hodge as cell-by-cell checks on every grid."""
    if not isinstance(raw, list) or len(raw) != 5:
        raise ValueError("expected a 5x5 matrix")
    grid = []
    for p, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != 5:
            raise ScenarioError(f"[{p}]", "expected a row of 5 integers")
        grid.append([_cell(x, f"[{p}][{q}]") for q, x in enumerate(row)])
    fault = loop_fault(grid)
    if fault is not None:
        raise ScenarioError(*fault)
    return HodgeDiamond(tuple(map(tuple, grid)))


def cell_sum_invariants(hd: HodgeDiamond) -> DerivedInvariants:
    """invariants_from_diamond as one signed sum over the cells per value."""
    h, cells = hd.h, [(p, q) for p in range(5) for q in range(5)]
    return DerivedInvariants(
        chi=sum((-1) ** (p + q) * h[p][q] for p, q in cells),
        chi_O=sum((-1) ** q * h[0][q] for q in range(5)),
        chi1=sum((-1) ** q * h[1][q] for q in range(5)),
        signature=sum((-1) ** q * h[p][q] for p, q in cells),
    )


COEFF = st.integers(min_value=-(10**4), max_value=10**4)


def times_root(desc: list[int], root: int) -> list[int]:
    """desc times (m - root), coefficients descending."""
    return [a - root * b for a, b in zip(desc + [0], [0] + desc)]


@st.composite
def polynomials(draw) -> IntPoly:
    """Degree 1 to 9, either random or with a planted integer root, so
    that the modular, divisor and root routes all come up."""
    lead = draw(COEFF.filter(bool))
    desc = [lead] + draw(st.lists(COEFF, min_size=1, max_size=8))
    root = draw(st.none() | st.integers(min_value=-50, max_value=50))
    if root is not None:
        desc = times_root(desc[:8], root)  # degree at most 9
    return IntPoly.from_desc(desc)


@st.composite
def constraint_systems(draw, top: int = 30) -> ConstraintSystem:
    """A small grid of any model, bounds up to top (a fifth of it for
    rank2). The target is planted so that (3k^2 + 4k - 1) r^4 d == target
    has a solution k = p/l on the grid, or it is random, a multiple of 21
    or a perfect square."""
    model = draw(st.sampled_from(sorted(LATTICE_MODELS)))
    least, _ = LATTICE_MODELS[model]
    top = top // 5 if model == "rank2" else top
    bounds = {
        bound: draw(st.integers(min_value=lo, max_value=top))
        for bound, lo in zip(LATTICE_BOUNDS[model], least)
    }
    lattice = LatticeSpec(model, **bounds)
    lo = draw(st.integers(min_value=1, max_value=6))
    hi = draw(st.integers(min_value=lo, max_value=lo + 3))
    r_min, r_max = draw(st.sampled_from(((lo, hi), (-hi, -lo))))
    geom = draw(st.sampled_from(lattice.grid()))
    r = draw(st.integers(min_value=r_min, max_value=r_max))
    el = draw(st.sampled_from([el for el in (1, 2, 3, 4) if r * r % el == 0]))
    p = draw(st.integers(min_value=-30, max_value=30))
    planted = (3 * p * p + 4 * p * el - el * el) * (r**4 // (el * el)) * geom.degree
    target = draw(
        (st.just(planted) if planted > 0 else st.nothing())
        | st.integers(min_value=1, max_value=10**7)
        | st.integers(min_value=1, max_value=10**5).map(lambda n: 21 * n)
        | st.integers(min_value=1, max_value=3000).map(lambda n: n * n)
    )
    k_lower = draw(
        st.none()
        | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )
    c14_max = draw(st.none() | st.integers(min_value=1, max_value=10**5))
    return ConstraintSystem(target, lattice, r_min, r_max, k_lower, c14_max)


@st.composite
def hodge_grids(draw):
    """A 5x5 JSON grid: symmetric and Serre-dual, with h[0][0] = h[4][4]
    mostly 1, then often spoilt: one cell, a cell and its transpose, or a
    cell and all its images set to another value (negative too, True for
    all the images, and for one cell a bool, a string or a float), a row
    cut short or not a list, or a grid of the wrong length."""
    values = st.integers(min_value=0, max_value=6)
    orbit = {}
    grid = [[0] * 5 for _ in range(5)]
    for p in range(5):
        for q in range(5):
            rep = min((p, q), (q, p), (4 - p, 4 - q), (4 - q, 4 - p))
            if rep not in orbit:
                corner = st.sampled_from((1, 1, 2))
                orbit[rep] = draw(corner if rep == (0, 0) else values)
            grid[p][q] = orbit[rep]
    cell = st.integers(min_value=0, max_value=4)
    p, q = draw(cell), draw(cell)
    value = st.integers(min_value=-2, max_value=7)
    fault = draw(st.sampled_from(("none", "cell", "pair", "orbit", "row", "rows")))
    if fault == "cell":
        grid[p][q] = draw(value | st.sampled_from((True, "1", 1.0)))
    elif fault in ("pair", "orbit"):
        v = draw(value | st.just(True) if fault == "orbit" else value)
        images = ((p, q), (q, p), (4 - p, 4 - q), (4 - q, 4 - p))
        for i, j in images[: 2 if fault == "pair" else 4]:
            grid[i][j] = v
    elif fault == "row":
        row = grid[p]
        grid[p] = draw(st.sampled_from((row[:4], row + [0], None, tuple(row))))
    elif fault == "rows":
        grid = draw(st.sampled_from((grid[:4], grid + [grid[0]], {})))
    return grid


# Rationals with denominators up to 60, zero and negatives included.
RATIONAL = st.builds(
    Fraction,
    st.integers(min_value=-400, max_value=400),
    st.integers(min_value=1, max_value=60),
)


@st.composite
def chern_cases(draw) -> ChernCase:
    """A case with r of either sign and k = p/q of any sign, zero too.
    The degree is random, a multiple of q or a multiple of q^2, so that
    q^2 divides r^4 d in some cases and only q in others."""
    r = draw(st.integers(min_value=-6, max_value=6).filter(bool))
    k = draw(RATIONAL)
    q = k.denominator
    m = draw(st.integers(min_value=1, max_value=50))
    degree = draw(st.sampled_from((m, q * m, q * q * m)))
    return ChernCase(
        r=r,
        k=k,
        c1c3=draw(COEFF),
        euler=draw(COEFF),
        geometry=Geometry("free", (degree,)),
    )


def is_prime_power(q: int) -> bool:
    return len(factorize(q)) == 1


@DIFFERENTIAL
@given(polynomials(), st.integers(min_value=2, max_value=120))
def test_eliminate_matches_the_full_modulus_scan(poly, max_modulus):
    cert = eliminate(poly, max_modulus=max_modulus)
    assert cert == full_scan_eliminate(poly, max_modulus=max_modulus)
    assert verify_certificate(poly, cert)
    if isinstance(cert, ModularObstruction):
        assert is_prime_power(cert.modulus)


@DIFFERENTIAL
@given(polynomials(), st.integers(min_value=2, max_value=720))
def test_eliminate_matches_the_horner_prime_power_scan(poly, max_modulus):
    cert = eliminate(poly, max_modulus=max_modulus)
    assert cert == prime_power_horner_eliminate(poly, max_modulus=max_modulus)
    assert verify_certificate(poly, cert)


@st.composite
def reductions(draw) -> tuple[IntPoly, int, int]:
    """Small coefficients, so that an empty or zero polynomial and a
    negative lead come up, and a zero constant term in half the draws;
    scale 1 to 3, content -1 to 3 and m power -1 to the number of
    coefficients, half of each at scale 1, content 1 and m power 0, where
    nothing need be divided."""
    coeffs = draw(st.lists(st.integers(min_value=-3, max_value=3), max_size=6))
    if coeffs and draw(st.booleans()):
        coeffs[0] = 0
    scale = draw(st.just(1) | st.integers(min_value=1, max_value=3))
    content = draw(st.just(1) | st.integers(min_value=-1, max_value=3))
    m_power = draw(st.just(0) | st.integers(min_value=-1, max_value=len(coeffs)))
    return IntPoly(tuple(coeffs), scale), content, m_power


@DIFFERENTIAL
@given(reductions())
@example((IntPoly(()), 1, 0))
@example((IntPoly((0,)), 1, 0))
@example((IntPoly((1, 2, -1)), 1, 0))  # negative lead
@example((IntPoly((0, 2, 1)), 1, 0))  # zero constant term
@example((IntPoly((1, 2, 1), 2), 1, 0))  # scale 2
@example((IntPoly((1, 2, 1)), 1, 0))  # nothing to divide
def test_check_reduction_matches_the_division(reduction):
    assert _check_reduction(*reduction) == dividing_check_reduction(*reduction)


def test_prime_powers_are_decided_residue_by_residue():
    # m^2 + 2 takes the values 2, 3, 6, 11 at t = 0..3: 4 divides their
    # product but none of them, so modulus 4 certifies. A scan that read
    # every modulus from the running product would go on to modulus 5.
    cert = eliminate(IntPoly.from_desc([1, 0, 2]))
    assert cert == ModularObstruction(
        content=1, m_power=0, modulus=4, residues=(2, 3, 2, 3)
    )


def test_an_integer_root_below_the_modulus_cap_is_found():
    # Each root makes p(root) == 0, so the running product is zero from
    # there on and every later modulus has a vanishing residue.
    for root in (1, 2, 700, 719):
        poly = IntPoly.from_desc([1, -root, 1, -root])  # (m - root)(m^2 + 1)
        assert eliminate(poly) == RootFound(m=root)
        assert full_scan_eliminate(poly) == RootFound(m=root)


M2_PLUS_1 = [1, 0, 1]  # m^2 + 1, which has no integer root


# The largest prime power up to 720 is 719, so the scan evaluates t up
# to 718 and never reaches 719 or 720. Roots there, and -t for them, are
# left to the divisor test.
@pytest.mark.parametrize(
    "desc, max_modulus, expected",
    [
        (times_root(M2_PLUS_1, 718), 720, RootFound(718)),
        (times_root(M2_PLUS_1, 719), 720, RootFound(719)),
        (times_root(M2_PLUS_1, 720), 720, RootFound(720)),
        (times_root(M2_PLUS_1, -718), 720, ConstantDivisorTest),
        (times_root(M2_PLUS_1, -719), 720, ConstantDivisorTest),
        (times_root(M2_PLUS_1, -720), 720, ConstantDivisorTest),
        # -1 ends the scan at modulus 2; the divisor test finds 1009.
        (times_root(times_root(M2_PLUS_1, -1), 1009), 720, RootFound(1009)),
        (times_root(M2_PLUS_1, 1), 2, RootFound(1)),
        (times_root(M2_PLUS_1, -1), 2, ConstantDivisorTest),
    ],
)
def test_roots_at_the_edges_of_the_scan(desc, max_modulus, expected):
    poly = IntPoly.from_desc(desc)
    cert = eliminate(poly, max_modulus=max_modulus)
    assert cert == prime_power_horner_eliminate(poly, max_modulus=max_modulus)
    if max_modulus == 2:
        assert cert == full_scan_eliminate(poly, max_modulus=max_modulus)
    if expected is ConstantDivisorTest:
        assert isinstance(cert, ConstantDivisorTest)
    else:
        assert cert == expected
    assert verify_certificate(poly, cert)


def test_each_residue_is_evaluated_once_for_every_modulus(
    shipped_reports, monkeypatch
):
    divisor_route = [
        IntPoly.from_desc(map(parse_int_str, row["coefficients"]))
        for report in shipped_reports.values()
        for row in report["polynomials"]
        if row["certificate"]["type"] == "divisor"
    ]
    assert len(divisor_route) == 2
    # (m^2 - 13)(m^2 - 17)(m^2 - 221) has no integer root, yet a root mod
    # every modulus: 221 = 13 * 17, so one of 13, 17, 221 is a square mod
    # each odd prime. Its constant 13^2 17^2 has nine divisors.
    control = IntPoly.from_desc([1, 0, -251, 0, 6851, 0, -48841])
    calls = []
    for name in ("evaluate", "evaluate_mod"):

        def counting(self, *args, plain=getattr(IntPoly, name)):
            calls.append(args)
            return plain(self, *args)

        monkeypatch.setattr(IntPoly, name, counting)
    for poly in divisor_route:
        # Modulus 2 fails on t = 0, 1; -1 is a root, so the scan ends and
        # the divisor test reads p(1) from the scan and evaluates p(7), 7
        # being the other divisor of 28 / 4.
        calls.clear()
        cert = eliminate(poly)
        assert isinstance(cert, ConstantDivisorTest)
        assert cert.divisors == (1, 7)
        assert calls == [(0,), (1,), (-1,), (7,)]
    # The control climbs all 150 prime powers: t = 0..718 once each, -t
    # for the six divisors 1, 13, 17, 169, 221, 289 below 719, then the
    # three divisors 2873, 3757 and 48841 the scan never reached.
    calls.clear()
    cert = eliminate(control)
    assert isinstance(cert, ConstantDivisorTest)
    assert len(cert.divisors) == 9
    assert len(calls) == 719 + 6 + 3
    assert len(calls) <= 720 + len(cert.divisors)


class RecordingMath:
    """Stands in for the math module, recording the arguments of each gcd."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(math, name)

    def gcd(self, *args):
        self.calls.append(args)
        return math.gcd(*args)


# Products of two or three primes from 10^4 to 2^24, and prime squares.
PRIMES = st.integers(min_value=10**4, max_value=2**24).map(
    lambda k: next(p for p in range(k, 2 * k) if is_probable_prime(p))
)
COMPOSITES = st.one_of(
    st.lists(PRIMES, min_size=2, max_size=3).map(math.prod),
    PRIMES.map(lambda p: p * p),
)


@DIFFERENTIAL
@given(COMPOSITES)
@example(9)  # 9, 15, 21, 25 and 49 take the one-step remainders of r = 1, 2
@example(15)
@example(21)
@example(25)
@example(49)
@example(101581057)  # 10007 * 10151: gcd hits n at c = 1, the backtrack splits
@example(101060693)  # 10007 * 10099: the backtrack hits n too, c = 2 splits
@example(3137564039 * 3642977969)
def test_pollard_rho_matches_the_plain_loop(n):
    # Every iterate is reduced mod n and the product is the same residue
    # at each gcd, so the grouped loops split n where the plain loop does,
    # after the same gcds with the same arguments.
    plain, grouped = RecordingMath(), RecordingMath()
    expected = plain_pollard_rho(n, plain.gcd)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "math", grouped)
        assert exact._pollard_rho(n) == expected
    assert grouped.calls == plain.calls


@DIFFERENTIAL
@given(constraint_systems())
def test_solve_point_matches_the_fraction_quadratic(system):
    rs = range(system.r_min, system.r_max + 1)
    for geom in system.lattice.grid():
        assert search._solve_point(system, geom, rs) == fraction_solve_point(
            system, geom
        )


@DIFFERENTIAL
@given(constraint_systems(top=60))
def test_enumeration_matches_the_per_point_scan(system):
    assert enumerate_cases(system) == scan_cases(system)


# k_lower in each branch of search._c14_ceiling: 3p + 2q <= 0, where the
# larger root always passes; (3p + 2q)^2 < 7 q^2, where it passes too, as
# it exceeds (sqrt 7 - 2) / 3, about 0.2153; and (3p + 2q)^2 > 7 q^2, which
# caps c14.
K_LOWER_BRANCHES = (
    st.fractions(min_value=-3, max_value=Fraction(-2, 3), max_denominator=12),
    st.fractions(
        min_value=Fraction(-2, 3), max_value=Fraction(1, 5), max_denominator=12
    ).filter(lambda k: k > Fraction(-2, 3)),
    st.fractions(min_value=Fraction(2, 9), max_value=3, max_denominator=12),
)


@st.composite
def ceiling_systems(draw) -> ConstraintSystem:
    """constraint_systems with k_lower drawn from one branch of the c14
    ceiling, or none, and c14_max none or any positive integer, even one
    below every c14."""
    system = draw(constraint_systems(top=60))
    k_lower = draw(st.one_of(st.none(), *K_LOWER_BRANCHES))
    c14_max = draw(st.none() | st.integers(min_value=1, max_value=10**5))
    return replace(system, k_lower=k_lower, c14_max=c14_max)


# 3k^2 + 4k - 1 == 6 at k = 1, and k_lower = 2/3 caps c14 at
# (3 * 6 * 9 - 1) // (12^2 - 7 * 9) == 1, the c14 of d = 1 and r = 1.
ON_THE_CEILING = ConstraintSystem(
    6, LatticeSpec("free", d_max=10), 1, 1, Fraction(2, 3)
)


@DIFFERENTIAL
@given(ceiling_systems())
@example(ON_THE_CEILING)
def test_enumeration_below_the_c14_ceiling_matches_the_per_point_scan(system):
    assert enumerate_cases(system) == scan_cases(system)


@pytest.mark.parametrize("c14_max", [0, -1])
def test_a_c14_cap_below_one_is_refused(c14_max):
    # as the scenario parser refuses it, so the search needs no clamp
    with pytest.raises(ValueError, match="c14_max must be positive"):
        replace(ON_THE_CEILING, k_lower=None, c14_max=c14_max)


def test_a_case_exactly_on_the_c14_ceiling_is_found():
    assert search._c14_ceiling(ON_THE_CEILING) == 1
    [sol] = enumerate_cases(ON_THE_CEILING)
    assert (sol.geometry.degree, sol.r, sol.k) == (1, 1, Fraction(1))


@DIFFERENTIAL
@given(hodge_grids())
@example([[1, 0, 0, 0, -1], *[[0] * 5] * 3, [-1, 0, 0, 0, 1]])  # negative corner
@example([[2, 0, 0, 0, 0], *[[0] * 5] * 3, [0, 0, 0, 0, 2]])  # not connected
def test_parse_hodge_matches_the_cell_by_cell_checks(raw):
    def outcome(parse):
        try:
            return parse(copy.deepcopy(raw))
        except ValueError as err:  # a ScenarioError names the row or the cell
            return getattr(err, "path", ""), getattr(err, "reason", str(err))

    got = outcome(_parse_hodge)
    assert got == outcome(loop_parse_hodge)
    if isinstance(got, HodgeDiamond):
        assert invariants_from_diamond(got) == cell_sum_invariants(got)


@DIFFERENTIAL
@given(hodge_grids())
@example([[1, 0, 0, 0, -1], *[[0] * 5] * 3, [-1, 0, 0, 0, 1]])  # negative corner
@example([[2, 0, 0, 0, 0], *[[0] * 5] * 3, [0, 0, 0, 0, 2]])  # not connected
def test_diamond_matches_the_cell_by_cell_checks(raw):
    assume(all(isinstance(row, (list, tuple)) for row in raw))

    def outcome(build):
        try:
            return build(raw)
        except ValueError as err:
            return str(err)

    def diamond(rows):
        return HodgeDiamond(tuple(map(tuple, rows)))

    assert outcome(diamond) == outcome(loop_diamond)


def test_pell_solutions_match_trying_every_y():
    for n in range(1, 400):
        expected = {
            y for y in range(1, 3001) if isqrt(n + 7 * y * y) ** 2 == n + 7 * y * y
        }
        for y_max in (1, 2, 5, 17, 3000):
            ys = {y for y in expected if y <= y_max}
            assert _pell_ys(n, y_max) == ys, (n, y_max)


def test_pell_equations_skipped_by_residue_have_no_small_solution():
    # x^2 - 7 y^2 is x^2 mod 7 and x^2 + y^2 mod 8, so no n that is 3, 5 or
    # 6 mod 7, or 3, 6 or 7 mod 8, is a value; try every y up to 100.
    for n in range(1, 1001):
        if n % 7 in (3, 5, 6) or n % 8 in (3, 6, 7):
            assert _pell_ys(n, 100) == set(), n
            for y in range(101):
                assert isqrt(n + 7 * y * y) ** 2 != n + 7 * y * y, (n, y)


def test_quadratic_is_solved_only_where_k_is_rational(pipeline_runs, monkeypatch):
    calls = []

    def recording(c14, target):
        calls.append((c14, target, solve_quadratic_rational(c14, target)))
        return calls[-1][-1]

    # The search module looks the solver up by name at each call.
    monkeypatch.setattr(search, "solve_quadratic_rational", recording)
    for lid in PIPELINE_LEMMAS:
        spec, inv, solutions = pipeline_runs[lid]
        system = constraint_system_for(spec, target=inv.target)
        assert enumerate_cases(system) == solutions, lid
    # The Pell step passes only the r at which c14 (7 c14 + 3 target) is a
    # square and c14 is at most the ceiling that k_lower and c14_max set,
    # so every call has rational roots: 32 over the four lemmas, where
    # every square below the box takes 62 and solving every r at each
    # candidate degree 231.
    assert len(calls) == 32
    for c14, target, roots in calls:
        n = c14 * (7 * c14 + 3 * target)
        assert isqrt(n) ** 2 == n and len(roots) == 2, (c14, target)


@st.composite
def index_equations(draw):
    """(c14, target), both positive: half drawn freely, so that
    c14 (7 c14 + 3 target) is rarely a square, and half built from a
    rational root k = p/q, with q^2 dividing c14."""
    c14 = draw(st.integers(min_value=1, max_value=10**4))
    if draw(st.booleans()):
        return c14, draw(st.integers(min_value=1, max_value=10**6))
    p = draw(st.integers(min_value=-400, max_value=400))
    q = draw(st.integers(min_value=1, max_value=60))
    c14 *= q * q
    target = (3 * p * p + 4 * p * q - q * q) * (c14 // (q * q))
    assume(target >= 1)
    return c14, target


@DIFFERENTIAL
@given(index_equations())
@example((1, 3))  # roots -2 and 2/3
@example((25, 27))  # roots -26/15 and 2/5
@example((1, 1))  # 1 * (7 + 3) is not a square: no rational root
def test_solver_matches_the_fraction_quadratic(equation):
    c14, target = equation
    expected = fraction_solve_quadratic(3 * c14, 4 * c14, -(c14 + target))
    assert solve_quadratic_rational(c14, target) == expected


@DIFFERENTIAL
@given(chern_cases())
@example(ChernCase(1, Fraction(1, 2), 0, 0, Geometry("free", (2,))))  # q | c14 only
@example(ChernCase(-2, Fraction(0), 48, 6, Geometry("free", (3,))))
def test_char_number_table_matches_the_fraction_products(case):
    try:
        expected = fraction_char_number_table(case)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            char_number_table(case)
    else:
        assert char_number_table(case) == expected


@DIFFERENTIAL
@given(chern_cases())
def test_pontryagin_numbers_and_signature_match_the_fraction_chain(case):
    pd = pontryagin_numbers(case)
    assert pd == fraction_pontryagin_numbers(case)
    assert l_genus_signature(pd) == fraction_l_genus_signature(pd)


@DIFFERENTIAL
@given(RATIONAL, RATIONAL)
def test_signature_matches_the_fraction_formula_on_any_data(p1_sq, p2):
    pd = PontryaginData(p1_sq=p1_sq, p2=p2, a_hat=Fraction(0), spin_applicable=False)
    assert l_genus_signature(pd) == fraction_l_genus_signature(pd)


@DIFFERENTIAL
@given(chern_cases())
@example(ChernCase(1, Fraction(1, 2), 0, 0, Geometry("free", (4,))))
@example(ChernCase(2, Fraction(3, 4), 5, 7, Geometry("free", (1,))))
@example(ChernCase(-6, Fraction(-7, 6), 13, -11, Geometry("free", (5,))))
def test_chi_O_from_class_matches_the_fraction_sum(case):
    # A case has a row of Chern numbers only when q^2 divides r^4 d.
    assume(case.r**4 * case.geometry.degree % case.k.denominator**2 == 0)
    expected = fraction_chi_O_from_class(chern_from_case(case), case.geometry)
    assert chi_O_from_class(char_number_table(case)) == expected


@DIFFERENTIAL
@given(chern_cases())
@example(ChernCase(1, Fraction(1, 2), 0, 0, Geometry("free", (2,))))  # scale 2
@example(ChernCase(-5, Fraction(-7, 60), 13, -11, Geometry("free", (7,))))  # scale 720
def test_embedding_polynomial_matches_the_fraction_inverse(case):
    c4 = normal_c4_polynomial(case)
    inverse = chern_from_case(case).inverse()
    for m in range(1, 4):
        paired = top_pairing(ambient_pullback(m) * inverse, case.geometry)
        assert sum(c * m**j for j, c in enumerate(c4)) == paired
    # IntPoly equality compares the coefficients and the scale.
    assert build_embedding_polynomial(case) == fraction_embedding_polynomial(case)

