import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chern_gate import exact
from chern_gate.obstruction import (
    ahat_filter,
    build_embedding_polynomial,
    eliminate,
    external_fact_filter,
    mod12_filter,
)
from chern_gate.riemann_roch import pontryagin_numbers
from chern_gate.ring import CharNumbers, ChernCase, Geometry, replace
from chern_gate.verify import (
    AhatNonIntegral,
    CongruenceMod12,
    ConstantDivisorTest,
    ExternalFact,
    IntPoly,
    ModularObstruction,
    RootFound,
    _divisor_flaw,
    verify_certificate,
)

DEGREE_225_DESC = [50625, 0, 0, 0, -28350, -18900, -2700, 225, 30]
RANK2_CASE_2_DESC = [4, 0, 0, 0, -252, -168, 648, -90, -232]
# psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to the
# first twelve prime bases; (m - 399165290221)(m + 798330580441) has a
# positive root that a twelve-base Miller-Rabin test hides.
PSI_12 = 318665857834031151167461
PSI_12_DESC = [1, 399165290220, -PSI_12]
# psi_13 = 1287836182261 * 2575672364521 also fools the thirteenth base,
# 41, so factorize calls it prime.
PSI_13 = 3317044064679887385961981
PSI_13_DESC = [1, 1287836182260, -PSI_13]
# The two largest primes below 2^32; their product needs 64 bits.
SEMIPRIME_64 = 4294967291 * 4294967279


def test_intpoly_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        IntPoly((0.5, 1.9))
    with pytest.raises(TypeError):
        IntPoly.from_desc([1, Fraction(1, 2)])
    assert IntPoly((3, 0, 0)).coeffs == (3,)


def test_intpoly_rejects_an_inexact_scale():
    with pytest.raises(TypeError):
        IntPoly((1, 2), scale=1.5)
    with pytest.raises(TypeError):
        IntPoly((1, 2), scale=Fraction(3, 2))
    with pytest.raises(ValueError, match="scale must be a positive integer"):
        IntPoly((1, 2), scale=0)
    assert IntPoly((1, 2), scale=3).scale == 3


def test_intpoly_round_trip_and_evaluation():
    p = IntPoly.from_desc(DEGREE_225_DESC)
    assert p.desc_coeffs == tuple(DEGREE_225_DESC)
    assert p.degree == 8
    assert p.evaluate(0) == 30
    assert p.evaluate(1) == sum(DEGREE_225_DESC)
    assert p.evaluate(-1) == 50625 - 28350 + 18900 - 2700 - 225 + 30
    assert p.evaluate_mod(2, 7) == p.evaluate(2) % 7


@given(
    st.lists(st.integers(min_value=-99, max_value=99), min_size=1, max_size=9),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=2, max_value=97),
)
def test_intpoly_evaluate_against_horner(desc, x, modulus):
    if desc[0] == 0:
        desc[0] = 1
    p = IntPoly.from_desc(desc)
    acc = 0
    for c in desc:
        acc = acc * x + c
    assert p.evaluate(x) == acc
    assert p.evaluate_mod(x % modulus, modulus) == acc % modulus


def test_eliminate_pins_degree_225_certificate():
    cert = eliminate(IntPoly.from_desc(DEGREE_225_DESC))
    assert cert == ModularObstruction(
        content=15, m_power=0, modulus=3, residues=(2, 2, 2)
    )
    poly = IntPoly.from_desc(DEGREE_225_DESC)
    assert verify_certificate(poly, cert) == (True, "")


def test_eliminate_pins_rank2_case_2_certificate():
    poly = IntPoly.from_desc(RANK2_CASE_2_DESC)
    cert = eliminate(poly)
    assert cert == ModularObstruction(
        content=2, m_power=0, modulus=7, residues=(3, 4, 6, 2, 6, 4, 3)
    )
    assert verify_certificate(poly, cert) == (True, "")
    # moduli below 7 all hit a zero residue somewhere
    reduced = IntPoly.from_desc([c // 2 for c in RANK2_CASE_2_DESC])
    for modulus in range(2, 7):
        assert any(
            reduced.evaluate_mod(t, modulus) == 0 for t in range(modulus)
        )


def test_modular_verification_rejects_bad_data():
    poly = IntPoly.from_desc(DEGREE_225_DESC)
    ok = ModularObstruction(content=15, m_power=0, modulus=3, residues=(2, 2, 2))
    assert verify_certificate(poly, ok) == (True, "")
    wrong_residue = ModularObstruction(
        content=15, m_power=0, modulus=3, residues=(2, 1, 2)
    )
    assert verify_certificate(poly, wrong_residue) == (
        False,
        "residue at 1 mod 3 is 2, certificate claims 1",
    )
    wrong_content = ModularObstruction(
        content=7, m_power=0, modulus=3, residues=(2, 2, 2)
    )
    assert verify_certificate(poly, wrong_content) == (
        False,
        "content 7 does not divide all coefficients",
    )
    zero_residue = ModularObstruction(
        content=15, m_power=0, modulus=2, residues=(0, 1)
    )
    assert verify_certificate(poly, zero_residue) == (
        False,
        "residue class 0 mod 2 vanishes",
    )


def test_any_dividing_content_is_accepted():
    # modulus 7 is coprime to the full content, so it certifies at any
    # partial reduction; modulus 3 needs the factor 3 removed first
    poly = IntPoly.from_desc(DEGREE_225_DESC)
    for content in (1, 3, 5, 15):
        reduced = IntPoly.from_desc([c // content for c in DEGREE_225_DESC])
        residues = tuple(reduced.evaluate_mod(t, 7) for t in range(7))
        cert = ModularObstruction(
            content=content, m_power=0, modulus=7, residues=residues
        )
        assert verify_certificate(poly, cert) == (True, ""), content


def test_divisor_certificate_on_rank2_case_2():
    poly = IntPoly.from_desc(RANK2_CASE_2_DESC)
    values = (-45, -1086, 98328, 1000401930903, 256124722255338, 65568274898807400)
    cert = ConstantDivisorTest(
        content=2,
        m_power=0,
        divisors=(1, 2, 4, 29, 58, 116),
        values=values,
    )
    assert verify_certificate(poly, cert) == (True, "")
    # a one-digit transcription slip in the largest value must be caught
    bad = ConstantDivisorTest(
        content=2,
        m_power=0,
        divisors=(1, 2, 4, 29, 58, 116),
        values=values[:5] + (65568143914807400,),
    )
    assert verify_certificate(poly, bad) == (
        False,
        "value at 116 is 65568274898807400, certificate claims 65568143914807400",
    )
    missing = ConstantDivisorTest(
        content=2, m_power=0, divisors=(1, 2, 4, 29, 58), values=values[:5]
    )
    assert verify_certificate(poly, missing) == (
        False,
        "116 has 6 divisors, the list has 5",
    )


def test_psi_12_constant_term_is_factored():
    poly = IntPoly.from_desc(PSI_12_DESC)
    cert = eliminate(poly)
    assert cert == RootFound(399165290221)
    assert verify_certificate(poly, cert) == (True, "")


def test_divisor_list_that_misses_the_factors_of_psi_12_is_rejected():
    poly = IntPoly.from_desc(PSI_12_DESC)
    claimed = (1, PSI_12)
    cert = ConstantDivisorTest(
        content=1,
        m_power=0,
        divisors=claimed,
        values=tuple(poly.evaluate(m) for m in claimed),
    )
    assert verify_certificate(poly, cert) == (
        False,
        f"the listed primes leave {PSI_12} of {PSI_12} unfactored",
    )


def test_divisor_certificate_over_psi_13_is_unproven():
    poly = IntPoly.from_desc(PSI_13_DESC)
    cert = eliminate(poly)
    assert cert.divisors == (1, PSI_13)
    assert verify_certificate(poly, cert) == (
        False,
        f"divisor {PSI_13} is at least psi_13, so its primality is unproven",
    )


def test_composite_divisors_above_psi_13_still_verify():
    # m^2 + m + 2^90 vanishes mod 2 everywhere, so modulus 2 forces the
    # divisor route; every divisor past psi_13 is a composite power of 2.
    poly = IntPoly.from_desc([1, 1, 2**90])
    cert = eliminate(poly, max_modulus=2)
    assert isinstance(cert, ConstantDivisorTest)
    assert cert.divisors[-1] == 2**90 > PSI_13
    assert verify_certificate(poly, cert) == (True, "")


def test_eliminate_scans_no_modulus_above_the_cap():
    # A certificate past the cap would be one verify_certificate refuses.
    with pytest.raises(ValueError, match="max_modulus 721 is above the cap of 720"):
        eliminate(IntPoly.from_desc([1, 1]), max_modulus=721)


def test_divisor_verification_never_factors(monkeypatch):
    polys = [
        IntPoly.from_desc(RANK2_CASE_2_DESC),  # constant 116 after content 2
        IntPoly.from_desc([1, SEMIPRIME_64]),
        IntPoly.from_desc([1, 1, 2**90]),
    ]
    # no modulus to try: eliminate goes straight to the divisor route
    certs = [eliminate(poly, max_modulus=1) for poly in polys]
    assert certs[0].divisors == (1, 2, 4, 29, 58, 116)
    assert certs[1].divisors == (1, 4294967279, 4294967291, SEMIPRIME_64)
    factored = []
    real = exact.factorize
    monkeypatch.setattr(exact, "factorize", lambda n: factored.append(n) or real(n))
    for poly, cert in zip(polys, certs):
        assert verify_certificate(poly, cert) == (True, "")
    assert factored == []


# Divisor lists the verifier must accept, for integers too big to trial-divide.
KNOWN_DIVISORS = {
    PSI_12: (1, 399165290221, 798330580441, PSI_12),
    PSI_13: (1, 1287836182261, 2575672364521, PSI_13),
}


def trial_divisors(n: int) -> tuple[int, ...]:
    if n in KNOWN_DIVISORS:
        return KNOWN_DIVISORS[n]
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return tuple(sorted({*low, *(n // d for d in low)}))


def divisor_flaw(n: int, divs) -> str:
    poly = IntPoly.from_desc([1, n])  # m + n: no positive root
    values = tuple(poly.evaluate(d) for d in divs)
    return _divisor_flaw(poly, ConstantDivisorTest(1, 0, tuple(divs), values))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(1, 10**6), st.sampled_from(sorted(KNOWN_DIVISORS))),
    st.data(),
)
def test_divisor_lists_are_proven_against_trial_division(n, data):
    true = list(trial_divisors(n))
    assert divisor_flaw(n, true) == ""
    i = data.draw(st.integers(0, len(true) - 1))
    assert divisor_flaw(n, true[:i] + true[i + 1 :])  # a divisor missing
    assert divisor_flaw(n, true[: i + 1] + true[i:])  # a duplicate
    stranger = data.draw(st.integers(2, 2 * 10**6).filter(lambda x: n % x))
    assert divisor_flaw(n, sorted(true + [stranger]))  # a non-divisor added
    if len(true) > 1:
        j = data.draw(st.integers(0, len(true) - 2))
        swapped = true[:j] + [true[j + 1], true[j]] + true[j + 2 :]
        assert divisor_flaw(n, swapped)  # out of order


def test_root_certificates():
    poly = IntPoly.from_desc([1, 0, 0, 0, 0, 0, 0, 0, -1])  # m^8 - 1
    cert = eliminate(poly)
    assert cert == RootFound(1)
    assert verify_certificate(poly, RootFound(1)) == (True, "")
    assert verify_certificate(poly, RootFound(2)) == (
        False,
        "claimed root 2 does not vanish",
    )


def test_eliminate_strips_m_powers():
    # m^3 * (m - 5): the shared m factor is not a positive root witness
    poly = IntPoly.from_desc([1, -5, 0, 0, 0])
    cert = eliminate(poly)
    assert cert == RootFound(5)


def test_constants_are_certified_at_modulus_2():
    # A nonzero constant times a power of m reduces to 1.
    for desc, expected in (
        ([5], ModularObstruction(5, 0, 2, (1, 1))),
        ([-3, 0, 0], ModularObstruction(3, 2, 2, (1, 1))),
    ):
        poly = IntPoly.from_desc(desc)
        assert eliminate(poly) == expected
        assert verify_certificate(poly, expected) == (True, "")
    with pytest.raises(ValueError, match="zero polynomial: every m is a root"):
        eliminate(IntPoly((0, 0)))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=10**6),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=7),
    st.integers(min_value=1, max_value=50),
)
def test_planted_roots_are_always_found(root, rest, lead):
    # P = (m - root) * Q with Q nonzero: eliminate must refuse to certify
    factor = [lead] + rest
    desc = [0] * (len(factor) + 1)
    for i, c in enumerate(factor):
        desc[i] += c
        desc[i + 1] -= c * root
    poly = IntPoly.from_desc(desc)
    cert = eliminate(poly, max_modulus=50)
    assert isinstance(cert, RootFound)
    assert poly.evaluate(cert.m) == 0 and cert.m > 0
    assert verify_certificate(poly, cert) == (True, "")


def test_rootless_random_polynomials_get_valid_certificates():
    rng = random.Random(431)
    for _ in range(150):
        # all-positive coefficients: no positive real root can exist
        desc = [rng.randint(1, 60) for _ in range(rng.randint(2, 9))]
        poly = IntPoly.from_desc(desc)
        cert = eliminate(poly, max_modulus=60)
        assert not isinstance(cert, RootFound)
        assert verify_certificate(poly, cert) == (True, "")


def test_mod12_filter():
    row = CharNumbers(c1_4=81, c1c3=48, c1_2c2=99, c2_2=121, c4=6)
    cert = mod12_filter(row)
    assert cert == CongruenceMod12(value=261, residue=9)
    clean = CharNumbers(c1_4=512, c1c3=48, c1_2c2=224, c2_2=98, c4=6)
    assert mod12_filter(clean) is None  # 224 + 1024 = 1248 = 104 * 12


def test_ahat_filter():
    spin_bad = ChernCase(
        r=-2, k=Fraction(1), c1c3=112, euler=16, geometry=Geometry("free", (14,))
    )
    cert = ahat_filter(spin_bad)
    assert cert == AhatNonIntegral(value=Fraction(1, 4))
    spin_fine = ChernCase(
        r=-4, k=Fraction(1, 2), c1c3=112, euler=16, geometry=Geometry("free", (3,))
    )
    assert ahat_filter(spin_fine) is None
    odd_index = ChernCase(
        r=-1, k=Fraction(1), c1c3=112, euler=16, geometry=Geometry("free", (224,))
    )
    assert ahat_filter(odd_index) is None


FACTS = (
    ExternalFact(
        index=1, r=1, kind="degree-in", citation="classification", value=(2, 4, 5)
    ),
    ExternalFact(
        index=2, r=2, kind="degree-max", citation="degree bound", value=22
    ),
    ExternalFact(
        index=5, r=5, kind="concludes", citation="index n+1", value="P4"
    ),
)


def fact_case(geometry: Geometry, r: int, k: Fraction) -> ChernCase:
    """A case for the fact filter, which reads only r and the degree; its
    <c1 c3> and <c4> are those of P4."""
    return ChernCase(r=r, k=k, c1c3=50, euler=5, geometry=geometry)


def test_external_fact_needs_a_known_kind_and_its_data():
    with pytest.raises(ValueError, match="unknown fact kind 'sorcery'"):
        ExternalFact(index=1, r=1, kind="sorcery", citation="c")
    with pytest.raises(ValueError, match="degree-in fact needs a nonempty degrees"):
        ExternalFact(index=1, r=1, kind="degree-in", citation="c")
    with pytest.raises(ValueError, match="degree-max fact needs a nonempty max_degree"):
        ExternalFact(index=1, r=1, kind="degree-max", citation="c", value=(2,))


def test_external_fact_filter_eliminates():
    case = fact_case(Geometry("rank1", (15,)), 1, Fraction(2, 3))
    cert = external_fact_filter((case, FACTS))
    assert cert.outcome == "eliminated"
    assert cert.index == 1
    assert cert.violated_by == 225
    assert "2, 4, 5" in cert.constraint


def test_external_fact_filter_concludes():
    case = fact_case(Geometry("rank1", (1,)), 5, Fraction(2, 5))
    cert = external_fact_filter((case, FACTS))
    assert cert.outcome == "concluded"
    assert cert.conclusion == "P4"


def test_external_fact_filter_silent_without_matching_index():
    case = fact_case(Geometry("rank1", (15,)), 3, Fraction(2, 9))
    assert external_fact_filter((case, FACTS)) is None


def test_external_fact_filter_respects_satisfied_constraint():
    # degree 4 is inside the allowed list, so the fact stays quiet
    case = fact_case(Geometry("rank1", (2,)), 1, Fraction(1))
    assert external_fact_filter((case, FACTS)) is None


def test_embedding_polynomial_pinned_cases():
    deg225 = ChernCase(
        r=-1, k=Fraction(2, 3), c1c3=50, euler=5, geometry=Geometry("rank1", (15,))
    )
    assert build_embedding_polynomial(deg225).desc_coeffs == tuple(DEGREE_225_DESC)
    rank2 = ChernCase(
        r=-1, k=Fraction(10), c1c3=48, euler=6, geometry=Geometry("rank2", (1, 1))
    )
    assert build_embedding_polynomial(rank2).desc_coeffs == tuple(RANK2_CASE_2_DESC)
    free224 = ChernCase(
        r=-1, k=Fraction(1), c1c3=112, euler=16, geometry=Geometry("free", (224,))
    )
    assert build_embedding_polynomial(free224).desc_coeffs == (
        50176, 0, 0, 0, -28224, -18816, 0, 1008, 16,
    )


def test_embedding_polynomial_keeps_real_embeddings_alive(quadric_case, p4_case):
    for case, m in ((quadric_case, 1), (p4_case, 1)):
        poly = build_embedding_polynomial(case)
        assert poly.evaluate(m) == 0
        cert = eliminate(poly)
        assert cert == RootFound(m)


def test_verifier_rejects_tampered_filter_certificates():
    row = CharNumbers(c1_4=81, c1c3=48, c1_2c2=99, c2_2=121, c4=6)
    assert verify_certificate(row, CongruenceMod12(261, 9)) == (True, "")
    assert verify_certificate(row, CongruenceMod12(261, 3)) == (
        False,
        "261 is 9 mod 12, certificate claims 3",
    )
    assert verify_certificate(row, CongruenceMod12(262, 10)) == (
        False,
        "<c1^2 c2> + 2<c1^4> is 261, certificate claims 262",
    )

    spin_bad = ChernCase(
        r=-2, k=Fraction(1), c1c3=112, euler=16, geometry=Geometry("free", (14,))
    )
    assert verify_certificate(spin_bad, AhatNonIntegral(Fraction(1, 4))) == (True, "")
    assert verify_certificate(spin_bad, AhatNonIntegral(Fraction(3, 4))) == (
        False,
        "A-hat genus is 1/4, certificate claims 3/4",
    )
    # r odd: the genus is 1/4 here too, but nothing forces it to be integral
    odd_index = ChernCase(
        r=-1, k=Fraction(1), c1c3=112, euler=16, geometry=Geometry("free", (224,))
    )
    assert verify_certificate(odd_index, AhatNonIntegral(Fraction(1, 4))) == (
        False,
        "r = -1 is odd, so the A-hat genus need not be integral",
    )
    spin_fine = ChernCase(
        r=-4, k=Fraction(1, 2), c1c3=112, euler=16, geometry=Geometry("free", (3,))
    )
    integral = AhatNonIntegral(value=pontryagin_numbers(spin_fine).a_hat)
    assert verify_certificate(spin_fine, integral) == (
        False,
        "A-hat genus 0 is an integer",
    )

    case = fact_case(Geometry("rank1", (15,)), 1, Fraction(2, 3))
    cert = external_fact_filter((case, FACTS))
    assert verify_certificate((case, FACTS), cert) == (True, "")
    assert verify_certificate((case, FACTS), replace(cert, index=2)) == (
        False,
        "certificate quotes fact 2, the fact for r = 1 is 1: "
        "degree in {2, 4, 5} (classification)",
    )
    assert verify_certificate((case, FACTS), replace(cert, violated_by=224)) == (
        False,
        "the case has degree 225, certificate says 224",
    )
    inside = fact_case(Geometry("rank1", (2,)), 1, Fraction(1))
    assert verify_certificate((inside, FACTS), replace(cert, violated_by=4)) == (
        False,
        "degree 4 satisfies degree in {2, 4, 5}",
    )
    p4 = fact_case(Geometry("rank1", (1,)), 5, Fraction(2, 5))
    concluded = external_fact_filter((p4, FACTS))
    assert verify_certificate((p4, FACTS), concluded) == (True, "")
    forged = replace(concluded, conclusion="Q4")
    assert verify_certificate((p4, FACTS), forged) == (False, "fact 5 concludes P4")


def test_verifier_rejects_non_certificates():
    with pytest.raises(TypeError):
        verify_certificate(IntPoly.from_desc(DEGREE_225_DESC), "modular")


def test_verify_detailed_reasons_are_informative():
    poly = IntPoly.from_desc(DEGREE_225_DESC)
    bad = ModularObstruction(content=15, m_power=0, modulus=3, residues=(2, 1, 2))
    assert verify_certificate(poly, bad) == (
        False,
        "residue at 1 mod 3 is 2, certificate claims 1",
    )


def _poly(*desc):
    return IntPoly.from_desc(list(desc))


_R1 = fact_case(Geometry("rank1", (15,)), 1, Fraction(2, 3))
_R3 = fact_case(Geometry("rank1", (15,)), 3, Fraction(2, 3))

# Each certificate is sound but for one flaw, which only the reason's
# check catches. With that check taken out, ten of them verify; the
# zero polynomial and the missing fact raise, and the understated m power
# fails later for another reason.
TAMPERED = [
    pytest.param(
        IntPoly(()),
        ModularObstruction(content=1, m_power=0, modulus=2, residues=(1, 1)),
        "zero polynomial has every positive integer as a root",
        id="zero-polynomial",
    ),
    pytest.param(
        _poly(1, 1, 1),  # reduced by -1 to -(m^2 + m + 1): residues 1, 1 mod 2
        ModularObstruction(content=-1, m_power=0, modulus=2, residues=(1, 1)),
        "content -1 is not positive",
        id="negative-content",
    ),
    pytest.param(
        _poly(1, 0, -1),  # m^2 - 1; m power -1 would leave the constant 1
        ModularObstruction(content=1, m_power=-1, modulus=2, residues=(1, 1)),
        "m power -1 out of range",
        id="m-power-out-of-range",
    ),
    pytest.param(
        _poly(1, 1, -2),  # (m + 2)(m - 1) claimed at m^1 reduces to m + 1
        ConstantDivisorTest(content=1, m_power=1, divisors=(1,), values=(2,)),
        "coefficients below m^1 are not all zero",
        id="overstated-m-power",
    ),
    pytest.param(
        _poly(1, 1, 0),  # m(m + 1) claimed at m^0
        ConstantDivisorTest(content=1, m_power=0, divisors=(1,), values=(0,)),
        "reduced polynomial still divisible by m",
        id="understated-m-power",
    ),
    pytest.param(
        _poly(1, 1),
        RootFound(m=-1),
        "root -1 is not a positive integer",
        id="non-positive-root",
    ),
    pytest.param(
        _poly(1, -1),  # no residue class left to vanish at the root 1
        ModularObstruction(content=1, m_power=0, modulus=0, residues=()),
        "modulus 0 is too small",
        id="modulus-zero",
    ),
    pytest.param(
        _poly(1, 1, 1),  # m^2 + m + 1 is odd, so no residue mod 722 vanishes
        ModularObstruction(
            content=1,
            m_power=0,
            modulus=722,
            residues=tuple(_poly(1, 1, 1).evaluate_mod(t, 722) for t in range(722)),
        ),
        "modulus 722 is above the cap of 720",
        id="modulus-above-cap",
    ),
    pytest.param(
        _poly(1, -2),  # vanishes at the residue left out, 2 mod 3
        ModularObstruction(content=1, m_power=0, modulus=3, residues=(1, 2)),
        "expected 3 residues, got 2",
        id="short-residues",
    ),
    pytest.param(
        _poly(1, -2),  # the value at the root 2 is left out
        ConstantDivisorTest(content=1, m_power=0, divisors=(1, 2), values=(-1,)),
        "one value per divisor required",
        id="value-omitted",
    ),
    pytest.param(
        _poly(1, -2),
        ConstantDivisorTest(content=1, m_power=0, divisors=(1, 2), values=(-1, 0)),
        "divisor 2 is a root",
        id="value-zero",
    ),
    pytest.param(
        CharNumbers(c1_4=3, c1c3=0, c1_2c2=6, c2_2=0, c4=0),
        CongruenceMod12(value=12, residue=0),
        "12 is divisible by 12",
        id="mod12-zero",
    ),
    pytest.param(
        (_R3, FACTS),
        external_fact_filter((_R1, FACTS)),
        "no fact applies to r = 3",
        id="no-fact",
    ),
]


@pytest.mark.parametrize("subject, cert, reason", TAMPERED)
def test_verifier_names_the_one_flaw_of_a_tampered_certificate(subject, cert, reason):
    assert verify_certificate(subject, cert) == (False, reason)
