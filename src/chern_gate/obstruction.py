"""The elimination engine: the search for a certificate.

A candidate surface class is ruled out by showing that its embedding
polynomial has no positive integer root: eliminate returns a
ModularObstruction or a ConstantDivisorTest, or a RootFound witness
when a root exists. The cheaper filters certify with CongruenceMod12,
AhatNonIntegral and ExternalFactCertificate. Each engine takes the one
subject verify_certificate checks its certificate against. The records
and their checks live in verify, which imports nothing of this module.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm, prod

from .exact import _primes_upto, _primorial, divisors
from .ring import CharNumbers, ChernCase, normal_c4_polynomial
from .riemann_roch import pontryagin_numbers
from .verify import (
    MAX_MODULUS,
    AhatNonIntegral,
    CongruenceMod12,
    ConstantDivisorTest,
    ExternalFactCertificate,
    IntPoly,
    ModularObstruction,
    RootFound,
    _check_reduction,
)

__all__ = [
    "build_embedding_polynomial",
    "eliminate",
    "mod12_filter",
    "ahat_filter",
    "external_fact_filter",
]


def build_embedding_polynomial(case: ChernCase) -> IntPoly:
    """P(m) = scale * (d^2 m^8 - c4(N)(m)) with integer coefficients.

    The self-intersection formula evaluates the Euler characteristic of
    the normal bundle of an embedding with hyperplane multiple m as
    d^2 m^8; the bundle-decomposition route evaluates it as c4(N)(m).
    Both compute the same number, so P must vanish at the (positive
    integer) m of any actual embedding. scale is the least common
    denominator of the c4(N) coefficients (1 for every shipped case).
    """
    c4 = normal_c4_polynomial(case)
    d = case.geometry.degree
    scale = lcm(*(c.denominator for c in c4))
    coeffs = [-c.numerator * (scale // c.denominator) for c in c4]
    return IntPoly((*coeffs, 0, 0, 0, d * d * scale), scale)


def _reduce(poly: IntPoly) -> tuple[int, int, IntPoly]:
    """Split off content and the power of m dividing the polynomial.

    Returns (content, m_power, reduced) with poly == +-content * m^m_power
    * reduced, reduced primitive with positive lead and nonzero constant
    term. Positive integer roots are preserved by the reduction.
    """
    if poly.is_zero:
        raise ValueError("zero polynomial: every m is a root")
    content = gcd(*poly.coeffs)
    m_power = next(i for i, c in enumerate(poly.coeffs) if c)
    reduced, _ = _check_reduction(poly, content, m_power)
    return content, m_power, reduced


@lru_cache(maxsize=8)
def _prime_powers(limit: int) -> tuple[int, ...]:
    """The prime powers 2, 3, 4, 5, 7, 8, 9, ... up to limit, ascending."""
    powers = []
    for p in _primes_upto(limit):
        q = p
        while q <= limit:
            powers.append(q)
            q *= p
    return tuple(sorted(powers))


def eliminate(poly: IntPoly, max_modulus: int = MAX_MODULUS):
    """Certify that poly has no positive integer root, or find one.

    Tries the cheapest certificate first: reduce by content and powers
    of m, look for a modulus at most max_modulus where no residue class
    vanishes, then fall back to the divisor test on the constant term.
    A nonzero constant reduces to 1, which modulus 2 certifies.
    max_modulus may not exceed MAX_MODULUS, the most a check accepts.

    Only prime-power moduli are scanned, in ascending order. That finds
    the modulus a scan of every modulus 2..max_modulus finds. Suppose no
    residue vanishes mod M. If each prime power q exactly dividing M had
    a residue t_q vanishing mod q, the Chinese remainder theorem would
    give a t congruent to every t_q, and t would vanish mod M. So some
    prime power q <= M has no vanishing residue, and the smallest
    modulus that works is a prime power.

    Each residue t is evaluated once, exactly, for all moduli, and no
    value past the current modulus is computed. The values are also
    multiplied into one running product, kept mod the product of the
    primes up to max_modulus. A prime q divides a product exactly when
    it divides one of its factors (Euclid's lemma), so q has a vanishing
    residue exactly when it divides the product of p(0), ..., p(q - 1),
    and one remainder of the running product decides it. A prime power
    q = p^k with k >= 2 keeps the test of every residue: it can divide
    a product of values none of which it divides (m^2 + 2 takes the
    values 2, 3, 2, 3 mod 4, and 4 divides their product). The
    certificate's residues are read from the values. verify_certificate
    shares none of this; it recomputes every residue with Horner's rule
    mod M.

    The scan stops at the first integer root it meets, since a root
    vanishes mod every modulus and no later modulus can certify. After
    a modulus fails, its new values are searched for a zero: the first
    is the least positive root, as every smaller t was evaluated and
    was nonzero, and that is the root the divisor test would return.
    Each new t that divides the constant term is then tried as -t; a
    negative root sends the scan straight to the divisor test. Neither
    check runs before a modulus has failed, so a modular certificate
    pays for them only on the moduli that failed before it. The divisor
    test takes p(t) from the scan for every divisor t the scan reached.
    """
    if max_modulus > MAX_MODULUS:
        raise ValueError(f"max_modulus {max_modulus} is above the cap of {MAX_MODULUS}")
    content, m_power, reduced = _reduce(poly)
    constant = abs(reduced.coeffs[0])
    primorial = _primorial(max_modulus)
    exact: list[int] = []  # reduced(t) for t = 0, 1, ..., each computed once
    product = 1  # the product of exact, mod primorial
    for modulus in _prime_powers(max_modulus):
        start = len(exact)
        values = list(map(reduced.evaluate, range(start, modulus)))
        exact += values
        product = product * prod(values) % primorial
        if primorial % modulus == 0:  # a prime, as primorial is squarefree
            rootless = product % modulus != 0
        else:  # p^k with k >= 2
            rootless = all(v % modulus for v in exact)
        if rootless:
            return ModularObstruction(
                content=content,
                m_power=m_power,
                modulus=modulus,
                residues=tuple(v % modulus for v in exact),
            )
        if 0 in values:
            return RootFound(m=start + values.index(0))
        negatives = range(max(start, 1), modulus)
        if any(constant % t == 0 and reduced.evaluate(-t) == 0 for t in negatives):
            break
    candidates = divisors(constant)
    scanned = len(exact)
    values = tuple(
        exact[m] if m < scanned else reduced.evaluate(m) for m in candidates
    )
    for m, value in zip(candidates, values):
        if value == 0:
            return RootFound(m=m)
    return ConstantDivisorTest(
        content=content, m_power=m_power, divisors=candidates, values=values
    )


def mod12_filter(cn: CharNumbers) -> CongruenceMod12 | None:
    """Eliminate when <c1^2 c2> + 2 <c1^4> is not a multiple of 12.

    On a smooth fourfold, chi(-K) - chi(O) = (<c1^2 c2> + 2<c1^4>)/12
    by Riemann-Roch, and both Euler characteristics are integers. A
    nonzero residue mod 12 therefore rules the candidate out before
    any polynomial work.
    """
    value = cn.c1_2c2 + 2 * cn.c1_4
    residue = value % 12
    if residue == 0:
        return None
    return CongruenceMod12(value=value, residue=residue)


def ahat_filter(case: ChernCase) -> AhatNonIntegral | None:
    """Eliminate spin cases (even r) whose A-hat genus is fractional."""
    data = pontryagin_numbers(case)
    if not data.spin_applicable:
        return None
    if data.a_hat.denominator == 1:
        return None
    return AhatNonIntegral(value=data.a_hat)


def external_fact_filter(subject) -> ExternalFactCertificate | None:
    """Apply the first fact whose r matches the case in subject = (case, facts)."""
    case, facts = subject
    fact = next((f for f in facts if f.r == case.r), None)
    if fact is None or fact.admits(case.geometry.degree):
        return None
    cited = dict(index=fact.index, constraint=fact.constraint, citation=fact.citation)
    if fact.kind == "concludes":
        return ExternalFactCertificate(
            **cited, outcome="concluded", conclusion=fact.value
        )
    return ExternalFactCertificate(
        **cited, outcome="eliminated", violated_by=case.geometry.degree
    )
