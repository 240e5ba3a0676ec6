"""Exact integer and rational arithmetic helpers.

Python integers are arbitrary precision already, and fractions.Fraction
gives canonical reduced rationals, so this module is a thin layer: the
few operations the rest of the package needs, stated once, with exact
semantics and no floats anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "integer_sqrt_exact",
    "solve_quadratic_rational",
    "polynomial_content",
    "is_probable_prime",
    "factorize",
    "divisors",
]


def integer_sqrt_exact(n: int) -> int | None:
    """The exact square root of a non-negative integer, or None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def solve_quadratic_rational(
    a: Fraction | int, b: Fraction | int, c: Fraction | int
) -> tuple[Fraction, ...]:
    """All rational roots of a*x^2 + b*x + c = 0, ascending.

    Irrational roots are dropped entirely: a non-square discriminant
    yields (). A vanishing discriminant yields the double root once.
    The denominators are cleared once, to A x^2 + B x + C with A > 0,
    so the discriminant is an integer and each root one Fraction.
    """
    if a == 0:
        raise ValueError("leading coefficient must be nonzero")
    den = math.lcm(a.denominator, b.denominator, c.denominator)
    if a.numerator < 0:
        den = -den
    A = a.numerator * (den // a.denominator)
    B = b.numerator * (den // b.denominator)
    C = c.numerator * (den // c.denominator)
    s = integer_sqrt_exact(B * B - 4 * A * C)
    if s is None:
        return ()
    if s == 0:
        return (Fraction(-B, 2 * A),)
    return (Fraction(-B - s, 2 * A), Fraction(-B + s, 2 * A))


def polynomial_content(coeffs) -> int:
    """Positive gcd of a nonzero integer coefficient list."""
    g = 0
    for c in coeffs:
        g = math.gcd(g, abs(c))
    if g == 0:
        raise ValueError("zero polynomial has no content")
    return g


# Factoring support for the constant-divisor root test. Miller-Rabin to
# the first thirteen prime bases is deterministic below PSI_13, the least
# strong pseudoprime to all of them (Sorenson & Webster, Math. Comp. 86,
# 2017); Brent-Pollard rho with a fixed parameter schedule runs above
# trial division, so the divisor list for a given integer never varies
# between runs.

# The first thirteen primes: the Miller-Rabin witnesses.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981  # = 1287836182261 * 2575672364521


@lru_cache(maxsize=8)
def _primes_upto(limit: int) -> tuple[int, ...]:
    """The primes up to limit, ascending, by the sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for p in range(2, math.isqrt(max(limit, 0)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, len(sieve), p)))
    return tuple(p for p in range(2, limit + 1) if sieve[p])


@lru_cache(maxsize=8)
def _primorial(limit: int) -> int:
    """The product of the primes up to limit."""
    return math.prod(_primes_upto(limit))


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


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; n must be odd, composite, > 1.
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    # Trial division by the primes below 10_000. One gcd tells whether any
    # of them divides n; when none does, the loop would divide nothing.
    # Past p^2 > n, what is left of n is 1 or a prime.
    if math.gcd(n, _primorial(10_000)) > 1:
        for p in _primes_upto(10_000):
            if p * p > n:
                break
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, mult in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(mult + 1)]
    return tuple(sorted(divs))
