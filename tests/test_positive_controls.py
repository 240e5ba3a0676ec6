"""Positive controls: real fourfolds in P^8 survive every filter.

The smooth complete intersection X of multidegree (a1, a2, a3, a4) in
P^8, 1 <= a1 <= ... <= a4 <= 7, is an actual fourfold embedded in P^8.
By Lefschetz H^2(X) = Z h for the hyperplane class h, so g = h and the
embedding has m = 1. Its total Chern class is (1+h)^9 prod (1 + ai h)^-1
and its degree is d = prod ai (Hirzebruch, Topological Methods in
Algebraic Geometry, 1966, section 22). The self-intersection formula
(Fulton, Intersection Theory, Cor. 6.3) makes its embedding polynomial
vanish at m = 1, and no filter may eliminate it. chi(O_X) comes from
the Koszul resolution of O_X, the alternating sum over subsets S of the
ai of chi(O_P8(-sum_S ai)), and on a spin case (r even) the A-hat genus
is chi(K^(1/2)) = chi(O_X(-r/2 h)), from the same resolution twisted.

Of the 210 multidegrees, six have c1 = 0 (Calabi-Yau, such as
(2, 2, 2, 3)). ChernCase refuses r = 0, so they are left out and the
corpus is the other 204.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, prod

from chern_gate.obstruction import (
    ahat_filter,
    build_embedding_polynomial,
    eliminate,
    mod12_filter,
)
from chern_gate.riemann_roch import chi_O_from_class, pontryagin_numbers
from chern_gate.ring import CharNumbers, ChernCase, Geometry
from chern_gate.verify import RootFound, verify_certificate

MULTIDEGREES = tuple(combinations_with_replacement(range(1, 8), 4))


def chern_coefficients(degrees) -> list[int]:
    """c1..c4 of (1+h)^9 prod (1 + a h)^-1, truncated past h^4."""
    c = [1, 9, 36, 84, 126]
    for a in degrees:
        # Times (1 + a h)^-1 = sum (-a h)^n: c_n -= a c_(n-1), ascending.
        for n in range(1, 5):
            c[n] -= a * c[n - 1]
    return c[1:]


def binomial_8(n: int) -> int:
    """C(n, 8) as the polynomial n (n-1) ... (n-7) / 8!, for any integer n."""
    return prod(n - j for j in range(8)) // factorial(8)


def koszul_chi(degrees, t: int) -> int:
    """chi(O_X(t h)) = sum_S (-1)^|S| chi(O_P8(t - sum_S a)), where
    chi(O_P8(n)) = C(n + 8, 8)."""
    return sum(
        (-1) ** size * binomial_8(t - sum(subset) + 8)
        for size in range(5)
        for subset in combinations(degrees, size)
    )


def corpus():
    """(multidegree, case, c1..c4) for every multidegree with c1 != 0."""
    out = []
    for degrees in MULTIDEGREES:
        c1, c2, c3, c4 = chern_coefficients(degrees)
        if c1 == 0:
            continue
        d = prod(degrees)
        case = ChernCase(
            r=c1,
            k=Fraction(c2, c1 * c1),
            c1c3=c1 * c3 * d,
            euler=c4 * d,
            geometry=Geometry("free", (d,)),
        )
        out.append((degrees, case, (c1, c2, c3, c4)))
    return out


CORPUS = corpus()


def test_the_corpus_leaves_out_exactly_the_calabi_yau_multidegrees():
    assert len(MULTIDEGREES) == 210
    left_out = [a for a in MULTIDEGREES if sum(a) == 9]
    assert left_out == [
        (1, 1, 1, 6),
        (1, 1, 2, 5),
        (1, 1, 3, 4),
        (1, 2, 2, 4),
        (1, 2, 3, 3),
        (2, 2, 2, 3),
    ]
    assert len(CORPUS) == 204
    assert all(case.r == 9 - sum(a) for a, case, _ in CORPUS)


def test_the_embedding_polynomial_has_the_root_m_equals_1():
    for degrees, case, _ in CORPUS:
        poly = build_embedding_polynomial(case)
        assert poly.evaluate(1) == 0, degrees
        cert = eliminate(poly)
        assert cert == RootFound(1), degrees
        assert verify_certificate(poly, cert), degrees


def char_numbers(case, c1, c2, c3, c4) -> CharNumbers:
    """The Chern numbers of a complete intersection, each a product of
    its Chern coefficients times the degree."""
    d = case.geometry.degree
    return CharNumbers(
        c1_4=c1**4 * d,
        c1c3=c1 * c3 * d,
        c1_2c2=c1 * c1 * c2 * d,
        c2_2=c2 * c2 * d,
        c4=c4 * d,
    )


def test_no_filter_eliminates_a_complete_intersection():
    for degrees, case, coefficients in CORPUS:
        assert mod12_filter(char_numbers(case, *coefficients)) is None, degrees
        assert ahat_filter(case) is None, degrees


def test_chi_O_from_the_class_is_the_koszul_value():
    for degrees, case, coefficients in CORPUS:
        chi_O = chi_O_from_class(char_numbers(case, *coefficients))
        assert chi_O == koszul_chi(degrees, 0), degrees


def test_a_hat_of_a_spin_case_is_the_koszul_chi_of_a_root_of_k():
    # For even r, K_X = O(-r h) has the square root O(-r/2 h), and the
    # A-hat genus is the index of the Dirac operator, chi(K^(1/2)).
    spin = [(a, case) for a, case, _ in CORPUS if case.r % 2 == 0]
    assert len(spin) == 94
    for degrees, case in spin:
        a_hat = pontryagin_numbers(case).a_hat
        assert a_hat == koszul_chi(degrees, -case.r // 2), degrees
