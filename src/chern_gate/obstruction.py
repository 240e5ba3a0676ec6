"""Integer-root obstructions with replayable certificates.

A candidate surface class is ruled out by showing that its embedding
polynomial has no positive integer root. The engine produces one of
two self-contained certificates for that claim, or a RootFound witness
when a root exists:

  ModularObstruction   the reduced polynomial is nonzero in Z/M for
                       every residue class, so it has no integer roots
                       at all (M is the smallest such modulus, always a
                       prime power; see eliminate);
  ConstantDivisorTest  every positive divisor of the constant term is
                       evaluated and none is a root (by the rational
                       root theorem this covers every candidate).

The cheaper filters certify with CongruenceMod12, AhatNonIntegral and
ExternalFactCertificate. Every certificate carries the data needed to
re-check it without rerunning the search, and verify_certificate is the
one place that re-checks any of them: it recomputes every claimed value
from the data the filter consumed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .exact import PSI_13, divisors, is_probable_prime, polynomial_content
from .exact import _primes_upto, _primorial
from .ring import CharNumbers, ChernCase, normal_c4_polynomial
from .riemann_roch import pontryagin_numbers

__all__ = [
    "IntPoly",
    "ModularObstruction",
    "ConstantDivisorTest",
    "RootFound",
    "CongruenceMod12",
    "AhatNonIntegral",
    "ExternalFact",
    "ExternalFactCertificate",
    "build_embedding_polynomial",
    "eliminate",
    "verify_certificate",
    "verify_certificate_detailed",
    "mod12_filter",
    "ahat_filter",
    "external_fact_filter",
]


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial, coefficients ascending by degree.

    Trailing zero coefficients are stripped on construction; the zero
    polynomial is kept as a single zero coefficient. scale records the
    denominator LCM that was cleared to reach integer coefficients (1
    when the source was already integral); it does not participate in
    evaluation since scaling never moves a root. A coefficient that is
    not an integer (a float or a Fraction) raises TypeError, and so does
    such a scale.
    """

    coeffs: tuple[int, ...]
    scale: int = 1

    def __post_init__(self):
        cs = tuple(operator.index(c) for c in self.coeffs)
        top = next((i for i in reversed(range(len(cs))) if cs[i]), 0)
        object.__setattr__(self, "coeffs", cs[: top + 1])
        if operator.index(self.scale) < 1:
            raise ValueError("scale must be a positive integer")

    @classmethod
    def from_desc(cls, desc, scale: int = 1) -> "IntPoly":
        return cls(tuple(reversed(tuple(desc))), scale)

    @property
    def desc_coeffs(self) -> tuple[int, ...]:
        return tuple(reversed(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def evaluate(self, m):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * m + c
        return acc

    def evaluate_mod(self, m: int, modulus: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * m + c) % modulus
        return acc


@dataclass(frozen=True)
class ModularObstruction:
    content: int
    m_power: int
    modulus: int
    residues: tuple[int, ...]


@dataclass(frozen=True)
class ConstantDivisorTest:
    content: int
    m_power: int
    divisors: tuple[int, ...]
    values: tuple[int, ...]


@dataclass(frozen=True)
class RootFound:
    """Witness that elimination fails: m is a positive integer root."""

    m: int


@dataclass(frozen=True)
class CongruenceMod12:
    """<c1^2 c2> + 2 <c1^4> is not divisible by 12."""

    value: int
    residue: int


@dataclass(frozen=True)
class AhatNonIntegral:
    """A spin case whose A-hat genus is not an integer."""

    value: Fraction


# Fact kind -> the field that carries its data, and that data's type.
FACT_KINDS = {
    "degree-in": ("degrees", tuple),
    "degree-max": ("max_degree", int),
    "concludes": ("conclusion", str),
}


@dataclass(frozen=True)
class ExternalFact:
    """A classification fact imported from the literature, keyed by r.

    kind is one of degree-in (admissible degrees form a finite set),
    degree-max (degrees are bounded), concludes (the case is a known
    variety and the run may close it out instead of eliminating it).
    The field FACT_KINDS names for the kind must be set and nonempty.
    """

    index: int
    r: int
    kind: str
    citation: str
    degrees: tuple[int, ...] = ()
    max_degree: int | None = None
    conclusion: str | None = None

    def __post_init__(self):
        if self.kind not in FACT_KINDS:
            raise ValueError(f"unknown fact kind {self.kind!r}")
        name, kind_type = FACT_KINDS[self.kind]
        value = getattr(self, name)
        if not isinstance(value, kind_type) or value in ((), ""):
            raise ValueError(f"{self.kind} fact needs a nonempty {name}")

    @property
    def constraint(self) -> str:
        if self.kind == "degree-in":
            inside = ", ".join(str(d) for d in self.degrees)
            return f"degree in {{{inside}}}"
        if self.kind == "degree-max":
            return f"degree <= {self.max_degree}"
        return f"classified as {self.conclusion}"

    def admits(self, degree: int) -> bool:
        """Whether a case of this degree passes the fact untouched; a
        concludes fact never does, it closes the case out."""
        if self.kind == "degree-in":
            return degree in self.degrees
        return self.kind == "degree-max" and degree <= self.max_degree


@dataclass(frozen=True)
class ExternalFactCertificate:
    index: int
    constraint: str
    citation: str
    outcome: str  # "eliminated" or "concluded"
    violated_by: int | None = None
    conclusion: str | None = None


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
    content = polynomial_content(poly.coeffs)
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


def eliminate(poly: IntPoly, max_modulus: int = 720):
    """Certify that poly has no positive integer root, or find one.

    Tries the cheapest certificate first: reduce by content and powers
    of m, look for a modulus at most max_modulus where no residue class
    vanishes, then fall back to the divisor test on the constant term.
    A nonzero constant reduces to 1, which modulus 2 certifies.

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


def _check_reduction(poly: IntPoly, content: int, m_power: int):
    """Re-divide poly by the certificate's claimed content and m power.

    The claimed content need not be the full content, only a common
    divisor; any exact reduction preserves positive integer roots.
    """
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


def _root_flaw(poly: IntPoly, cert: RootFound) -> str:
    if cert.m < 1:
        return f"root {cert.m} is not a positive integer"
    if poly.evaluate(cert.m) != 0:
        return f"claimed root {cert.m} does not vanish"
    return ""


def _modular_flaw(reduced: IntPoly, cert: ModularObstruction) -> str:
    if cert.modulus < 2:
        return f"modulus {cert.modulus} is too small"
    if len(cert.residues) != cert.modulus:
        return f"expected {cert.modulus} residues, got {len(cert.residues)}"
    for t, claimed in enumerate(cert.residues):
        actual = reduced.evaluate_mod(t, cert.modulus)
        if actual != claimed:
            return (
                f"residue at {t} mod {cert.modulus} is {actual}, "
                f"certificate claims {claimed}"
            )
        if claimed == 0:
            return f"residue class {t} mod {cert.modulus} vanishes"
    return ""


def _divisor_flaw(reduced: IntPoly, cert: ConstantDivisorTest) -> str:
    """Prove the list is every positive divisor of n, without factoring n.

    n is |constant term|. The list must ascend strictly from 1 and each
    entry must divide n. Its entries that Miller-Rabin accepts below
    PSI_13, where the test is a proof, must account for all of n, say
    n = prod p^e_p, and then n has prod (e_p + 1) divisors: a list of
    that many distinct divisors is all of them.
    """
    divs, n = cert.divisors, abs(reduced.coeffs[0])
    if not divs or divs[0] != 1 or any(a >= b for a, b in zip(divs, divs[1:])):
        return f"divisor list {divs} does not ascend strictly from 1"
    for d in divs:
        if n % d:
            return f"{d} does not divide {n}"
    rest, count = n, 1
    for p in divs:
        if p < PSI_13 and is_probable_prime(p):
            e = 0
            while rest % p == 0:
                rest, e = rest // p, e + 1
            count *= e + 1
    if rest != 1:
        for d in divs:
            if d >= PSI_13 and is_probable_prime(d):
                return f"divisor {d} is at least psi_13, so its primality is unproven"
        return f"the listed primes leave {rest} of {n} unfactored"
    if len(divs) != count:
        return f"{n} has {count} divisors, the list has {len(divs)}"
    if len(cert.values) != len(divs):
        return "one value per divisor required"
    for m, claimed in zip(divs, cert.values):
        actual = reduced.evaluate(m)
        if actual != claimed:
            return f"value at {m} is {actual}, certificate claims {claimed}"
        if claimed == 0:
            return f"divisor {m} is a root"
    return ""


def _mod12_flaw(cn: CharNumbers, cert: CongruenceMod12) -> str:
    value = cn.c1_2c2 + 2 * cn.c1_4
    if cert.value != value:
        return f"<c1^2 c2> + 2<c1^4> is {value}, certificate claims {cert.value}"
    if cert.residue != value % 12:
        return f"{value} is {value % 12} mod 12, certificate claims {cert.residue}"
    if cert.residue == 0:
        return f"{value} is divisible by 12"
    return ""


def _ahat_flaw(case: ChernCase, cert: AhatNonIntegral) -> str:
    data = pontryagin_numbers(case)
    if not data.spin_applicable:
        return f"r = {case.r} is odd, so the A-hat genus need not be integral"
    if data.a_hat != cert.value:
        return f"A-hat genus is {data.a_hat}, certificate claims {cert.value}"
    if data.a_hat.denominator == 1:
        return f"A-hat genus {data.a_hat} is an integer"
    return ""


def _fact_flaw(subject, cert: ExternalFactCertificate) -> str:
    case, facts = subject
    fact = next((f for f in facts if f.r == case.r), None)
    if fact is None:
        return f"no fact applies to r = {case.r}"
    quoted = (cert.index, cert.constraint, cert.citation)
    if quoted != (fact.index, fact.constraint, fact.citation):
        return (
            f"certificate quotes fact {cert.index}, the fact for r = {case.r} "
            f"is {fact.index}: {fact.constraint} ({fact.citation})"
        )
    if fact.kind == "concludes":
        if (cert.outcome, cert.conclusion) != ("concluded", fact.conclusion):
            return f"fact {fact.index} concludes {fact.conclusion}"
        return ""
    degree = case.geometry.degree
    if (cert.outcome, cert.violated_by) != ("eliminated", degree):
        return f"the case has degree {degree}, certificate says {cert.violated_by}"
    if fact.admits(degree):
        return f"degree {degree} satisfies {fact.constraint}"
    return ""


# Certificate class -> the check that finds its first flaw. The two
# polynomial obstructions are checked against the polynomial reduced by
# their claimed content and m power.
_CHECKS = {
    RootFound: _root_flaw,
    ModularObstruction: _modular_flaw,
    ConstantDivisorTest: _divisor_flaw,
    CongruenceMod12: _mod12_flaw,
    AhatNonIntegral: _ahat_flaw,
    ExternalFactCertificate: _fact_flaw,
}
_REDUCED = (ModularObstruction, ConstantDivisorTest)


def verify_certificate_detailed(subject, cert) -> tuple[bool, str]:
    """Re-derive every claim a certificate makes about its subject.

    The subject is the data the filter consumed: the IntPoly for
    modular, divisor and root certificates, the CharNumbers row for
    CongruenceMod12, the ChernCase for AhatNonIntegral, and the pair
    (ChernCase, facts) for ExternalFactCertificate. Returns
    (True, "") when the certificate is sound, otherwise (False, reason).
    RootFound verifies as a valid witness that a root exists, i.e. that
    elimination legitimately failed.
    """
    check = _CHECKS.get(type(cert))
    if check is None:
        raise TypeError(f"not a certificate: {type(cert).__name__}")
    if isinstance(cert, _REDUCED):
        subject, reason = _check_reduction(subject, cert.content, cert.m_power)
        if subject is None:
            return False, reason
    reason = check(subject, cert)
    return not reason, reason


def verify_certificate(subject, cert) -> bool:
    ok, _ = verify_certificate_detailed(subject, cert)
    return ok


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


def external_fact_filter(case: ChernCase, facts) -> ExternalFactCertificate | None:
    """Apply the first literature fact whose r matches the case."""
    fact = next((f for f in facts if f.r == case.r), None)
    if fact is None or fact.admits(case.geometry.degree):
        return None
    cited = dict(index=fact.index, constraint=fact.constraint, citation=fact.citation)
    if fact.kind == "concludes":
        return ExternalFactCertificate(
            **cited, outcome="concluded", conclusion=fact.conclusion
        )
    return ExternalFactCertificate(
        **cited, outcome="eliminated", violated_by=case.geometry.degree
    )
