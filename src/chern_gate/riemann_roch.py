"""Hodge diamond bookkeeping and the Riemann-Roch-type identities.

For a compact Kaehler fourfold the inputs are the Hodge numbers h^{p,q}
(0 <= p, q <= 4). Three alternating sums fall out directly:

    chi   = sum (-1)^(p+q) h^{p,q}          (topological Euler number)
    chi_O = sum_q (-1)^q h^{0,q}            (chi of the structure sheaf)
    chi^1 = sum_q (-1)^q h^{1,q}            (chi of the cotangent sheaf)

and the signature via the Hodge index theorem,

    sigma = sum_{p,q} (-1)^q h^{p,q}.

Riemann-Roch in dimension four gives 720*chi_O = <-c4 + c3c1 + 3c2^2 +
4c2c1^2 - c1^4> and 12*(4*chi_O - chi^1) = <2c4 + c1c3>, which the
elimination argument folds into two derived integers:

    c1c3   = 12*(4*chi_O - chi^1) - 2*chi
    target = 720*chi_O + chi - c1c3

so that every admissible case satisfies (3k^2 + 4k - 1) <c1^4> = target.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .ring import ChernCase, Geometry, GradedClass

__all__ = [
    "HodgeDiamond",
    "DerivedInvariants",
    "PontryaginData",
    "invariants_from_diamond",
    "complete_invariants",
    "chi_O_from_class",
    "pontryagin_numbers",
    "l_genus_signature",
]


@dataclass(frozen=True)
class HodgeDiamond:
    """Hodge numbers h^{p,q} of a fourfold, as a 5x5 grid symmetric under
    h^{p,q} = h^{q,p} and Serre duality h^{p,q} = h^{4-p,4-q}."""

    h: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.h) != 5 or any(len(row) != 5 for row in self.h):
            raise ValueError("expected a 5x5 grid of Hodge numbers")
        for p in range(5):
            for q in range(5):
                if self.h[p][q] < 0:
                    raise ValueError(f"h[{p}][{q}] is negative")
                if self.h[p][q] != self.h[q][p]:
                    raise ValueError(f"h[{p}][{q}] != h[{q}][{p}]: not symmetric")
                if self.h[p][q] != self.h[4 - p][4 - q]:
                    raise ValueError(
                        f"h[{p}][{q}] != h[{4 - p}][{4 - q}]: not Serre-dual"
                    )
        if self.h[0][0] != 1 or self.h[4][4] != 1:
            raise ValueError("a connected fourfold needs h[0][0] == h[4][4] == 1")

    @staticmethod
    def from_rows(rows) -> "HodgeDiamond":
        return HodgeDiamond(tuple(tuple(map(operator.index, row)) for row in rows))


@dataclass(frozen=True)
class DerivedInvariants:
    chi: int
    chi_O: int
    chi1: int
    signature: int
    c1c3: int | None = None
    target: int | None = None


def invariants_from_diamond(hd: HodgeDiamond) -> DerivedInvariants:
    chi = sum((-1) ** (p + q) * hd.h[p][q] for p in range(5) for q in range(5))
    chi_o = sum((-1) ** q * hd.h[0][q] for q in range(5))
    chi1 = sum((-1) ** q * hd.h[1][q] for q in range(5))
    sigma = sum((-1) ** q * hd.h[p][q] for p in range(5) for q in range(5))
    return DerivedInvariants(chi=chi, chi_O=chi_o, chi1=chi1, signature=sigma)


def complete_invariants(inv: DerivedInvariants) -> DerivedInvariants:
    """inv with <c1 c3> and target set, as the two Riemann-Roch identities
    pin them."""
    c1c3 = 12 * (4 * inv.chi_O - inv.chi1) - 2 * inv.chi
    target = 720 * inv.chi_O + inv.chi - c1c3
    return replace(inv, c1c3=c1c3, target=target)


def chi_O_from_class(c: GradedClass, geom: Geometry) -> Fraction:
    """chi of the structure sheaf from a total Chern class, exactly.

    (-<c4> + <c3 c1> + 3<c2^2> + 4<c2 c1^2> - <c1^4>) / 720. Every class
    here is a power of the generator, so pairings are coefficient
    products times the degree. With L the lcm of the coefficients'
    denominators, Qi = L qi are integers and the sum is one fraction
    over 720 L^4.
    """
    _, *coeffs = c.coeffs
    den = lcm(*(x.denominator for x in coeffs))
    q1, q2, q3, q4 = (x.numerator * (den // x.denominator) for x in coeffs)
    paired = (
        (-q4 * den + q3 * q1 + 3 * q2 * q2) * den * den
        + 4 * q2 * q1 * q1 * den
        - q1**4
    )
    return Fraction(paired * geom.degree, 720 * den**4)


@dataclass(frozen=True)
class PontryaginData:
    p1_sq: Fraction  # <p1^2>
    p2: Fraction  # <p2>
    a_hat: Fraction
    spin_applicable: bool  # r even forces c1 even, hence spin


def pontryagin_numbers(case: ChernCase) -> PontryaginData:
    """<p1^2> and <p2> of a case.

    p1 = c1^2 - 2c2 = (1 - 2k) r^2 g^2, so <p1^2> = (1-2k)^2 r^4 d; and
    <p2> = <c2^2 - 2 c1c3 + 2 c4> = k^2 r^4 d - 2 c1c3 + 2 euler. With
    k = p/q each is an integer over q^2, and A-hat = (7 p1^2 - 4 p2) / 5760
    one over 5760 q^2.
    """
    r4d = case.r**4 * case.geometry.degree
    p, q = case.k.numerator, case.k.denominator
    q2 = q * q
    p1_sq = (q - 2 * p) ** 2 * r4d
    p2 = p * p * r4d + 2 * (case.euler - case.c1c3) * q2
    return PontryaginData(
        p1_sq=Fraction(p1_sq, q2),
        p2=Fraction(p2, q2),
        a_hat=Fraction(7 * p1_sq - 4 * p2, 5760 * q2),
        spin_applicable=case.r % 2 == 0,
    )


def l_genus_signature(pd: PontryaginData) -> Fraction:
    """(7 <p2> - <p1^2>) / 45, as one fraction over 45 times the lcm of
    the two denominators."""
    p1_sq, p2 = pd.p1_sq, pd.p2
    den = lcm(p1_sq.denominator, p2.denominator)
    num = 7 * p2.numerator * (den // p2.denominator)
    num -= p1_sq.numerator * (den // p1_sq.denominator)
    return Fraction(num, 45 * den)


# Anchor check for the signature convention: the formula above must give
# 1 on the diagonal diamond of P^4 and 2 on the diamond with middle row
# 0 0 2 0 0. Evaluated at import so a convention slip cannot go quiet;
# it raises rather than asserts so that python -O keeps it.

def _signature_anchor_check() -> None:
    p4 = HodgeDiamond.from_rows(
        [[1 if p == q else 0 for q in range(5)] for p in range(5)]
    )
    mid2 = HodgeDiamond.from_rows(
        [
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 2, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
        ]
    )
    for diamond, expected in ((p4, 1), (mid2, 2)):
        if invariants_from_diamond(diamond).signature != expected:
            raise ArithmeticError(f"signature anchor: expected {expected}")


_signature_anchor_check()
