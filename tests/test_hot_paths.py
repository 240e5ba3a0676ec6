"""Differential tests for the hot paths against their plain forms.

eliminate scans only prime-power moduli and evaluates each residue t
once, exactly, for all of them; it decides a prime q by whether q
divides the running product of the first q values, and a higher prime
power by its residues one by one. It stops at the first integer root it
meets: a zero among the values is the least positive root, and a
divisor t of the constant term with p(-t) == 0 sends it to the divisor
test at once, which reads p(t) from the scan for every divisor t the
scan reached. The enumeration visits only the
degrees that solutions of x^2 - 7 y^2 = 3 target / g allow, and solves
the quadratic only where an integer square test says k is rational.
Each case's quadratic, characteristic numbers, Pontryagin numbers,
signature and chi(O) check are integer numerators over a known
denominator, with one Fraction per value returned, and so is c4 of the
normal bundle, whose inverse of c(X) runs on integers over powers of
one common denominator L, and the embedding polynomial clears the
denominators of those Fractions without Fraction arithmetic.
The oracles below are the plain forms: every modulus 2..max_modulus
with every residue, the prime-power scan with Horner's rule mod q run
afresh for every residue of every modulus, both climbing to the cap
whatever roots they pass, the per-point scan of every
grid point and r, one Fraction quadratic per grid point and r, y
tried one by one, and each per-case formula as a chain of Fraction
operations, c4(N) and the embedding polynomial among them through
GradedClass.inverse. Every hot path must return exactly what its oracle
returns.
"""

from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chern_gate import constraint_system_for, enumerate_cases, search
from chern_gate.exact import divisors, factorize, solve_quadratic_rational
from chern_gate.obstruction import (
    ConstantDivisorTest,
    IntPoly,
    ModularObstruction,
    RootFound,
    _prime_powers,
    _reduce,
    build_embedding_polynomial,
    eliminate,
    verify_certificate,
)
from chern_gate.report import parse_int_str
from chern_gate.riemann_roch import (
    PontryaginData,
    chi_O_from_class,
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
    graded,
    normal_c4_polynomial,
    top_pairing,
)
from chern_gate.search import (
    LATTICE_BOUNDS,
    LATTICE_MODELS,
    CaseSolution,
    ConstraintSystem,
    LatticeSpec,
    _pell_ys,
)

from conftest import PIPELINE_LEMMAS

DIFFERENTIAL = settings(max_examples=150, deadline=None, derandomize=True)


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


def fraction_solve_quadratic(a, b, c) -> tuple[Fraction, ...]:
    """exact.solve_quadratic_rational in Fraction arithmetic: the rational
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
    """riemann_roch.chi_O_from_class in Fraction arithmetic."""
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
    raw = [hit for geom in grid for hit in search._solve_point(system, geom)]
    raw.sort(key=lambda hit: (hit[0].sort_params, hit[1], hit[2]))
    return [
        CaseSolution(ordinal=i, geometry=geom, r=r, k=k)
        for i, (geom, r, k) in enumerate(raw, start=1)
    ]


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
        geometry=Geometry.free(degree),
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


@DIFFERENTIAL
@given(constraint_systems())
def test_solve_point_matches_the_fraction_quadratic(system):
    for geom in system.lattice.grid():
        assert search._solve_point(system, geom) == fraction_solve_point(
            system, geom
        )


@DIFFERENTIAL
@given(constraint_systems(top=60))
def test_enumeration_matches_the_per_point_scan(system):
    assert enumerate_cases(system) == scan_cases(system)


def test_pell_solutions_match_trying_every_y():
    for n in range(1, 400):
        expected = {
            y for y in range(1, 3001) if isqrt(n + 7 * y * y) ** 2 == n + 7 * y * y
        }
        for y_max in (1, 2, 5, 17, 3000):
            ys = {y for y in expected if y <= y_max}
            assert _pell_ys(n, y_max) == ys, (n, y_max)


def test_quadratic_is_solved_only_where_k_is_rational(pipeline_runs, monkeypatch):
    results = []

    def recording(a, b, c):
        results.append(solve_quadratic_rational(a, b, c))
        return results[-1]

    # The search module looks the solver up by name at each call.
    monkeypatch.setattr(search, "solve_quadratic_rational", recording)
    for lid in PIPELINE_LEMMAS:
        spec, inv, solutions = pipeline_runs[lid]
        system = constraint_system_for(spec, target=inv.target)
        assert enumerate_cases(system) == solutions, lid
    # Every call has a rational root: non-square points never reach it.
    assert results and all(results)


@DIFFERENTIAL
@given(RATIONAL.filter(bool), RATIONAL, RATIONAL)
@example(Fraction(-3, 4), Fraction(0), Fraction(3, 1))  # roots -2 and 2
@example(Fraction(1, 9), Fraction(-2, 3), Fraction(1))  # the double root 3
def test_solver_matches_the_fraction_quadratic(a, b, c):
    assert solve_quadratic_rational(a, b, c) == fraction_solve_quadratic(a, b, c)


@DIFFERENTIAL
@given(chern_cases())
@example(ChernCase(1, Fraction(1, 2), 0, 0, Geometry.free(2)))  # q | c14 only
@example(ChernCase(-2, Fraction(0), 48, 6, Geometry.free(3)))
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
@given(chern_cases(), st.lists(RATIONAL, min_size=4, max_size=4))
def test_chi_O_from_class_matches_the_fraction_sum(case, coeffs):
    for c in (chern_from_case(case), graded(1, *coeffs)):
        assert chi_O_from_class(c, case.geometry) == fraction_chi_O_from_class(
            c, case.geometry
        )


@DIFFERENTIAL
@given(chern_cases())
@example(ChernCase(1, Fraction(1, 2), 0, 0, Geometry.free(2)))  # scale 2
@example(ChernCase(-5, Fraction(-7, 60), 13, -11, Geometry.free(7)))  # scale 720
def test_embedding_polynomial_matches_the_fraction_inverse(case):
    c4 = normal_c4_polynomial(case)
    inverse = chern_from_case(case).inverse()
    for m in range(1, 4):
        paired = top_pairing(ambient_pullback(m) * inverse, case.geometry)
        assert sum(c * m**j for j, c in enumerate(c4)) == paired
    # IntPoly equality compares the coefficients and the scale.
    assert build_embedding_polynomial(case) == fraction_embedding_polynomial(case)

