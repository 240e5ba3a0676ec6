"""Differential tests for the two hot paths against their plain forms.

eliminate scans only prime-power moduli and evaluates each residue t
once, exactly, for all of them; it decides a prime q by whether q
divides the running product of the first q values, and a higher prime
power by its residues one by one. The enumeration visits only the
degrees that solutions of x^2 - 7 y^2 = 3 target / g allow, and solves
the quadratic only where an integer square test says k is rational.
The oracles below are the plain forms: every modulus 2..max_modulus
with every residue, the prime-power scan with Horner's rule mod q run
afresh for every residue of every modulus, the per-point scan of every
grid point and r, one Fraction quadratic per grid point and r, and y
tried one by one. Both hot paths must return exactly what the oracles
return.
"""

from fractions import Fraction
from math import isqrt

from hypothesis import given, settings
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
    eliminate,
    verify_certificate,
)
from chern_gate.report import parse_int_str
from chern_gate.search import (
    LATTICE_MODELS,
    CaseSolution,
    ConstraintSystem,
    LatticeSpec,
    _passes_divisibility,
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


def fraction_solve_point(system: ConstraintSystem, geom) -> list[tuple]:
    """search._solve_point with one Fraction quadratic per value of r."""
    found = []
    for r in range(system.r_min, system.r_max + 1):
        c14 = r**4 * geom.degree
        if system.c14_max is not None and c14 > system.c14_max:
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


@st.composite
def polynomials(draw) -> IntPoly:
    """Degree 1 to 9, either random or with a planted integer root, so
    that the modular, divisor and root routes all come up."""
    lead = draw(COEFF.filter(bool))
    desc = [lead] + draw(st.lists(COEFF, min_size=1, max_size=8))
    root = draw(st.none() | st.integers(min_value=-50, max_value=50))
    if root is not None:
        # Multiply by (m - root); this keeps the degree at most 9.
        desc = desc[:8]
        desc = [a - root * b for a, b in zip(desc + [0], [0] + desc)]
    return IntPoly.from_desc(desc)


@st.composite
def constraint_systems(draw, top: int = 30) -> ConstraintSystem:
    """A small grid of any model, bounds up to top (a fifth of it for
    rank2). The target is planted so that (3k^2 + 4k - 1) r^4 d == target
    has a solution k = p/l on the grid, or it is random, a multiple of 21
    or a perfect square."""
    model = draw(st.sampled_from(sorted(LATTICE_MODELS)))
    names, _ = LATTICE_MODELS[model]
    top = top // 5 if model == "rank2" else top
    bounds = {
        name: draw(st.integers(min_value=int(name != "b_max"), max_value=top))
        for name in names
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
    calls = []
    for name in ("evaluate", "evaluate_mod"):

        def counting(self, *args, plain=getattr(IntPoly, name)):
            calls.append(args)
            return plain(self, *args)

        monkeypatch.setattr(IntPoly, name, counting)
    for poly in divisor_route:
        calls.clear()
        cert = eliminate(poly)  # scans every prime power up to 720
        assert isinstance(cert, ConstantDivisorTest)
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
