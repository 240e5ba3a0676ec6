"""Differential tests for the two hot paths against their plain forms.

eliminate scans only prime-power moduli, evaluates each residue t once,
exactly, for all of them, and drops each modulus at its first vanishing
residue; the enumeration solves the quadratic only where an integer
square test says k is rational. The oracles below are the plain forms:
every modulus 2..max_modulus with every residue, the prime-power scan
with Horner's rule mod q run afresh for every modulus, and one Fraction
quadratic per grid point and r. Both hot paths must return exactly what
the oracles return.
"""

from fractions import Fraction

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
    ConstraintSystem,
    LatticeSpec,
    _passes_divisibility,
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
def constraint_systems(draw) -> ConstraintSystem:
    """A small grid of any model; the target is random or planted so that
    (3k^2 + 4k - 1) r^4 d == target has a solution k = p/l on the grid."""
    model = draw(st.sampled_from(sorted(LATTICE_MODELS)))
    names, _ = LATTICE_MODELS[model]
    top = 6 if model == "rank2" else 30
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
    p = draw(st.integers(min_value=1, max_value=30))
    planted = (3 * p * p + 4 * p * el - el * el) * (r**4 // (el * el)) * geom.degree
    target = draw(st.just(planted) | st.integers(min_value=1, max_value=10**7))
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
