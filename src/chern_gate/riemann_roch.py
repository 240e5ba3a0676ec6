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

from fractions import Fraction
from math import lcm

from .ring import CharNumbers, ChernCase, record, replace

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


@record
class HodgeDiamond:
    """Hodge numbers h^{p,q} of a fourfold, as a 5x5 grid symmetric under
    h^{p,q} = h^{q,p} and Serre duality h^{p,q} = h^{4-p,4-q}."""

    h: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        h = self.h
        rows = len(h) == 5 and all(type(row) is tuple and len(row) == 5 for row in h)
        if type(h) is not tuple or not rows:
            raise ValueError("expected a 5x5 grid of Hodge numbers")
        # One pass accepts a good grid; only a bad one is explained.
        serre = tuple(row[::-1] for row in h[::-1])
        if not (
            all(type(x) is int for row in h for x in row)
            and h == tuple(zip(*h))
            and h == serre
            and min(map(min, h)) >= 0
            and h[0][0] == 1
        ):
            raise ValueError(_diamond_fault(h)[1])


def _diamond_fault(h) -> tuple[str, str]:
    """The path and the reason of the first fault of a grid HodgeDiamond
    refuses: in row order, a cell that is not an int, is negative, or differs
    from its transpose or Serre mirror; else a fourfold not connected, at ""."""
    for p, row in enumerate(h):
        for q, x in enumerate(row):
            where = f"[{p}][{q}]"
            if type(x) is not int:
                return where, f"h{where} is not an integer"
            if x < 0:
                return where, f"h{where} is negative"
            for s, t, why in ((q, p, ""), (4 - p, 4 - q, " (Serre duality)")):
                if x != h[s][t]:
                    mirror = f"h[{s}][{t}]={h[s][t]}{why}"
                    return where, f"h{where}={x} is not matched by {mirror}"
    return "", "a connected fourfold needs h[0][0] == h[4][4] == 1"


@record
class DerivedInvariants:
    chi: int
    chi_O: int
    chi1: int
    signature: int
    c1c3: int | None = None
    target: int | None = None


def invariants_from_diamond(hd: HodgeDiamond) -> DerivedInvariants:
    """The four sums from the row sums rho_p = sum_q (-1)^q h^{p,q}:
    chi_O = rho_0, chi^1 = rho_1, sigma = sum rho_p, chi = sum (-1)^p rho_p."""
    rho = [h0 - h1 + h2 - h3 + h4 for h0, h1, h2, h3, h4 in hd.h]
    chi = rho[0] - rho[1] + rho[2] - rho[3] + rho[4]
    return DerivedInvariants(chi=chi, chi_O=rho[0], chi1=rho[1], signature=sum(rho))


def complete_invariants(inv: DerivedInvariants) -> DerivedInvariants:
    """inv with <c1 c3> and target set, as the two Riemann-Roch identities
    pin them."""
    c1c3 = 12 * (4 * inv.chi_O - inv.chi1) - 2 * inv.chi
    target = 720 * inv.chi_O + inv.chi - c1c3
    return replace(inv, c1c3=c1c3, target=target)


def chi_O_from_class(cn: CharNumbers) -> Fraction:
    """chi of the structure sheaf from a case's Chern numbers, by
    Riemann-Roch: (-<c4> + <c1 c3> + 3<c2^2> + 4<c1^2 c2> - <c1^4>) / 720."""
    return Fraction(-cn.c4 + cn.c1c3 + 3 * cn.c2_2 + 4 * cn.c1_2c2 - cn.c1_4, 720)


@record
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
