"""Exact integer arithmetic helpers.

Python integers are arbitrary precision already, so this module is a
thin layer: the few operations the rest of the package needs, stated
once, with exact semantics and no floats anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .verify import is_probable_prime

__all__ = [
    "integer_sqrt_exact",
    "factorize",
    "divisors",
]


def integer_sqrt_exact(n: int) -> int | None:
    """The exact square root of a non-negative integer, or None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


# Factoring support for the constant-divisor root test. Primality is
# decided by verify.is_probable_prime; Brent-Pollard rho with a fixed
# parameter schedule runs above trial division, so the divisor list for
# a given integer never varies between runs. Its loops reduce once per
# two squarings and once per four differences in the product; every
# iterate is still reduced mod n and the product is the same residue at
# each 128-step gcd checkpoint, so the grouping keeps every checkpoint
# and the divisor list still never varies.


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


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; n must be odd, composite, > 1.
    for c in range(1, 1000):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r >> 1):
                t = y * y + c
                y = (t * t + c) % n
            if r & 1:
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                m = min(128, r - k)
                for _ in range(m >> 2):
                    y1 = (y * y + c) % n
                    y2 = (y1 * y1 + c) % n
                    y3 = (y2 * y2 + c) % n
                    y = (y3 * y3 + c) % n
                    q = q * ((x - y1) * (x - y2)) * ((x - y3) * (x - y)) % n
                for _ in range(m & 3):
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
    # Past p^2 > n, what is left of n is 1 or a prime, so it needs no test.
    if math.gcd(n, _primorial(10_000)) > 1:
        for p in _primes_upto(10_000):
            if p * p > n:
                if n > 1:
                    out[n] = 1
                return out
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
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
