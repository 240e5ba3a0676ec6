from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chern_gate import exact
from chern_gate.exact import divisors, factorize, integer_sqrt_exact
from chern_gate.obstruction import _reduce
from chern_gate.search import solve_quadratic_rational
from chern_gate.verify import IntPoly, is_probable_prime


def test_integer_sqrt_exact_squares_and_non_squares():
    for k in range(0, 200):
        assert integer_sqrt_exact(k * k) == k
    assert integer_sqrt_exact(2) is None
    assert integer_sqrt_exact(-4) is None
    big = 10**40 + 1
    assert integer_sqrt_exact(big * big) == big
    assert integer_sqrt_exact(big * big + 1) is None


def test_solve_quadratic_known_roots():
    # (3k^2 + 4k - 1) c14 == target. c14 = 1, target = 3 is 3k^2 + 4k - 4 = 0,
    # the index equation of the degree-225 case
    assert solve_quadratic_rational(1, 3) == (Fraction(-2), Fraction(2, 3))
    # c14 = 25, target = 27 is 75k^2 + 100k - 52 = 0, from the degree-625
    # positive-index case
    assert solve_quadratic_rational(25, 27) == (Fraction(-26, 15), Fraction(2, 5))


def test_solve_quadratic_degenerate_cases():
    # c14 (7 c14 + 3 target) is 10 and 58, not squares: irrational pairs
    assert solve_quadratic_rational(1, 1) == ()
    assert solve_quadratic_rational(2, 5) == ()
    # 1 * (7 - 9) < 0: a complex pair
    assert solve_quadratic_rational(1, -3) == ()


@given(
    st.fractions(max_denominator=50),
    st.integers(min_value=1, max_value=1_000),
)
def test_solve_quadratic_roots_actually_solve(k, m):
    # c14 = q^2 m makes target = (3k^2 + 4k - 1) c14 an integer.
    c14 = k.denominator**2 * m
    target = (3 * k * k + 4 * k - 1) * c14
    assume(target >= 1)
    roots = solve_quadratic_rational(c14, int(target))
    assert k in roots
    assert len(roots) == 2 and roots[0] < roots[1]
    for x in roots:
        assert (3 * x * x + 4 * x - 1) * c14 == target


def test_polynomial_content():
    # _reduce takes the gcd of the coefficients as the content
    for coeffs, content in (
        ((50625, -28350, -18900, -2700, 225, 30), 15),
        ((-4, 8), 4),
        ((7,), 7),
    ):
        assert _reduce(IntPoly(coeffs))[0] == content
    with pytest.raises(ValueError, match="zero polynomial"):
        _reduce(IntPoly((0, 0)))


def test_is_probable_prime_small_and_large():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_probable_prime(n) == (n in primes)
    assert is_probable_prime(561) is False  # Carmichael number
    assert is_probable_prime(2**61 - 1) is True
    assert is_probable_prime((2**61 - 1) * (2**31 - 1)) is False


def is_prime_by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_primes_upto_is_the_trial_division_list():
    primes = [n for n in range(2_001) if is_prime_by_trial_division(n)]
    for n in range(2_001):
        assert exact._primes_upto(n) == tuple(p for p in primes if p <= n)


def test_prime_powers_and_primorial_up_to_the_default_modulus_cap():
    from chern_gate.obstruction import _prime_powers

    powers = _prime_powers(720)
    assert len(powers) == 150
    primes = [q for q in powers if is_prime_by_trial_division(q)]
    assert powers == tuple(
        q
        for q in range(2, 721)
        if any(q == p**e for p in primes for e in range(1, 10))
    )
    assert exact._primorial(720) == prod(primes)


def test_factorize_round_trip():
    assert factorize(1) == {}
    assert factorize(2**5 * 3 * 7**2) == {2: 5, 3: 1, 7: 2}
    assert factorize(2**61 - 1) == {2**61 - 1: 1}
    with pytest.raises(ValueError, match="factorize needs a positive integer"):
        factorize(0)


# Trial division runs over every prime below 10,000, so factors are
# drawn from both sides of 10_000. Rho takes about the square root of a
# composite's least prime factor in steps, so the other primes above
# 10_000 stay below 2^32 and 2^61 - 1 comes at most once: it is never
# the least.
SMALL_PRIMES = tuple(p for p in range(2, 10_000) if is_probable_prime(p))
MEDIUM_PRIMES = (10_007, 10_009, 65_537, 1_000_003, 2**31 - 1)
M61 = 2**61 - 1


def trial_division(n: int, candidates) -> tuple[dict[int, int], int]:
    """n divided by each candidate in turn, as often as it goes: the
    multiplicities found, and what is left of n."""
    out: dict[int, int] = {}
    for d in candidates:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    return out, n


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(SMALL_PRIMES), st.integers(1, 3)), max_size=4),
    st.lists(st.tuples(st.sampled_from(MEDIUM_PRIMES), st.integers(1, 2)), max_size=2),
    st.booleans(),
)
@example(small=[(43, 3), (9973, 2)], medium=[], with_m61=True)
def test_factorize_across_the_trial_bound(small, medium, with_m61):
    n = M61 if with_m61 else 1
    for p, mult in small + medium:
        n *= p**mult
    below, rest = trial_division(n, range(2, 10_000))
    above, rest = trial_division(rest, (*MEDIUM_PRIMES, M61))
    assert rest == 1
    calls = []

    def counting_rho(m, plain=exact._pollard_rho):
        calls.append(m)
        return plain(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_pollard_rho", counting_rho)
        assert factorize(n) == {**below, **above}
    # Trial division removes every prime below 10_000, so rho splits only
    # what lies above it: one split fewer than it has prime factors.
    assert len(calls) == max(sum(above.values()) - 1, 0)


def test_a_rest_that_trial_division_proves_prime_is_not_tested(monkeypatch):
    calls = []

    def counting(m, plain=exact.is_probable_prime):
        calls.append(m)
        return plain(m)

    monkeypatch.setattr(exact, "is_probable_prime", counting)
    # Trial division stops at 101, past the square root of 10007, so the
    # rest is prime with no Miller-Rabin test.
    assert factorize(2 * 10007) == {2: 1, 10007: 1}
    assert calls == []
    # No prime below 10_000 divides 10007 * 10009: the gcd skips trial
    # division, so Miller-Rabin decides.
    assert factorize(10007 * 10009) == {10007: 1, 10009: 1}
    assert calls


def test_factorize_splits_a_semiprime_of_32_bit_primes():
    assert factorize(3137564039 * 3642977969) == {3137564039: 1, 3642977969: 1}


def test_divisors_known_values():
    assert divisors(1) == (1,)
    assert divisors(7) == (1, 7)
    assert divisors(116) == (1, 2, 4, 29, 58, 116)
    assert divisors(28) == (1, 2, 4, 7, 14, 28)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**6))
def test_divisors_and_factorize_agree(n):
    fac = factorize(n)
    prod = 1
    for p, mult in fac.items():
        assert is_probable_prime(p)
        prod *= p**mult
    assert prod == n
    divs = divisors(n)
    assert divs[0] == 1 and divs[-1] == n
    assert list(divs) == sorted(divs)
    for d in divs:
        assert n % d == 0
    # the divisor count is forced by the factorization
    count = 1
    for mult in fac.values():
        count *= mult + 1
    assert len(divs) == count


@given(st.integers(min_value=0, max_value=10**12))
def test_integer_sqrt_matches_isqrt(n):
    r = integer_sqrt_exact(n)
    if isqrt(n) ** 2 == n:
        assert r == isqrt(n)
    else:
        assert r is None


@given(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1))
def test_content_divides_everything(coeffs):
    # _reduce splits off the gcd of the coefficients as the content and a
    # power of m, and leaves a primitive polynomial with a positive lead
    # and a nonzero constant term.
    if all(c == 0 for c in coeffs):
        return
    poly = IntPoly(tuple(coeffs))
    content, m_power, reduced = _reduce(poly)
    assert content == gcd(*coeffs) > 0
    assert gcd(*reduced.coeffs) == 1
    assert reduced.coeffs[-1] > 0 and reduced.coeffs[0] != 0
    back = (0,) * m_power + tuple(content * c for c in reduced.coeffs)
    assert poly.coeffs in (back, tuple(-c for c in back))
