"""The certificate checks: what makes an elimination sound.

Three certificates speak about an embedding polynomial (IntPoly):

  ModularObstruction   the reduced polynomial is nonzero in Z/M for
                       every residue class, so it has no integer roots;
  ConstantDivisorTest  every positive divisor of the constant term is
                       evaluated and none is a root (by the rational
                       root theorem this covers every candidate);
  RootFound            a positive integer root: elimination fails.

CongruenceMod12 speaks about a row of Chern numbers, AhatNonIntegral a
Chern case, ExternalFactCertificate a case and the literature facts
(ExternalFact). verify_certificate re-checks all of them, the engine's
and a baseline's printed ones alike, by recomputing every claimed
value from that data. Only ring and riemann_roch are imported, and
Miller-Rabin below PSI_13 proves a prime, so a check never factors and
never runs the search or the engine whose output it checks.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .ring import CharNumbers, ChernCase, record
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
    "verify_certificate",
    "is_probable_prime",
]


@record
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
        cs = tuple(map(operator.index, self.coeffs))
        if cs and not cs[-1]:
            top = next((i for i in reversed(range(len(cs))) if cs[i]), 0)
            cs = cs[: top + 1]
        object.__setattr__(self, "coeffs", cs)
        if operator.index(self.scale) < 1:
            raise ValueError("scale must be a positive integer")

    @classmethod
    def from_desc(cls, desc) -> "IntPoly":
        return cls(tuple(reversed(tuple(desc))))

    @property
    def desc_coeffs(self) -> tuple[int, ...]:
        return tuple(reversed(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

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


@record
class ModularObstruction:
    content: int
    m_power: int
    modulus: int
    residues: tuple[int, ...]


@record
class ConstantDivisorTest:
    content: int
    m_power: int
    divisors: tuple[int, ...]
    values: tuple[int, ...]


@record
class RootFound:
    """Witness that elimination fails: m is a positive integer root."""

    m: int


@record
class CongruenceMod12:
    """<c1^2 c2> + 2 <c1^4> is not divisible by 12."""

    value: int
    residue: int


@record
class AhatNonIntegral:
    """A spin case whose A-hat genus is not an integer."""

    value: Fraction


# Fact kind -> the scenario key that carries its data, and that data's type.
FACT_KINDS = {
    "degree-in": ("degrees", tuple),
    "degree-max": ("max_degree", int),
    "concludes": ("conclusion", str),
}


@record
class ExternalFact:
    """A classification fact imported from the literature, keyed by r.

    kind is one of degree-in (admissible degrees form a finite set),
    degree-max (degrees are bounded), concludes (the case is a known
    variety and the run may close it out instead of eliminating it).
    value holds the data, nonempty and of the type FACT_KINDS gives the kind.
    """

    index: int
    r: int
    kind: str
    citation: str
    value: tuple[int, ...] | int | str | None = None

    def __post_init__(self):
        if self.kind not in FACT_KINDS:
            raise ValueError(f"unknown fact kind {self.kind!r}")
        name, kind_type = FACT_KINDS[self.kind]
        if not isinstance(self.value, kind_type) or self.value in ((), ""):
            raise ValueError(f"{self.kind} fact needs a nonempty {name}")

    @property
    def constraint(self) -> str:
        if self.kind == "degree-in":
            return f"degree in {{{', '.join(map(str, self.value))}}}"
        if self.kind == "degree-max":
            return f"degree <= {self.value}"
        return f"classified as {self.value}"

    def admits(self, degree: int) -> bool:
        """Whether a case of this degree passes the fact untouched; a
        concludes fact never does, it closes the case out."""
        if self.kind == "degree-in":
            return degree in self.value
        return self.kind == "degree-max" and degree <= self.value


@record
class ExternalFactCertificate:
    index: int
    constraint: str
    citation: str
    outcome: str  # "eliminated" or "concluded"
    violated_by: int | None = None
    conclusion: str | None = None


# Miller-Rabin to the first thirteen prime bases is deterministic below
# PSI_13, the least strong pseudoprime to all of them (Sorenson & Webster,
# Math. Comp. 86, 2017).
# The first thirteen primes: the Miller-Rabin witnesses.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981  # = 1287836182261 * 2575672364521


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_reduction(poly: IntPoly, content: int, m_power: int):
    """Re-divide poly by the certificate's claimed content and m power.

    The claimed content need not be the full content, only a common
    divisor; any exact reduction preserves positive integer roots. A
    reduction that divides nothing (content 1, m power 0, positive lead,
    nonzero constant term, scale 1) returns poly itself, which is equal
    to the polynomial the division would build.
    """
    if poly.is_zero:
        return None, "zero polynomial has every positive integer as a root"
    cs = poly.coeffs
    if content == 1 and m_power == 0 and poly.scale == 1 and cs[-1] > 0 and cs[0]:
        return poly, ""
    if content < 1:
        return None, f"content {content} is not positive"
    cs = list(cs)
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


# The largest modulus a modular certificate may name: a check evaluates
# once per residue class, so no printed certificate can cost more than this.
MAX_MODULUS = 720


def _root_flaw(poly: IntPoly, cert: RootFound) -> str:
    if cert.m < 1:
        return f"root {cert.m} is not a positive integer"
    if poly.evaluate(cert.m) != 0:
        return f"claimed root {cert.m} does not vanish"
    return ""


def _modular_flaw(reduced: IntPoly, cert: ModularObstruction) -> str:
    if cert.modulus < 2:
        return f"modulus {cert.modulus} is too small"
    if cert.modulus > MAX_MODULUS:
        return f"modulus {cert.modulus} is above the cap of {MAX_MODULUS}"
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
        if (cert.outcome, cert.conclusion) != ("concluded", fact.value):
            return f"fact {fact.index} concludes {fact.value}"
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


def verify_certificate(subject, cert) -> tuple[bool, str]:
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
