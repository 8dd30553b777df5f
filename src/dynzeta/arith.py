"""Exact integer arithmetic: factorization, p-adic valuations, the Moebius
function, divisor and prime enumeration.

Everything runs on plain Python integers, so all values are arbitrary
precision. Factorization is trial division, which stops once the cofactor
is prime. The primality test is Miller-Rabin to the prime bases up to 41,
proven correct only below psi_13 = 3317044064679887385961981.
"""

from __future__ import annotations

from itertools import chain, count
from math import isqrt

__all__ = [
    "is_prime",
    "factorize",
    "valuation",
    "moebius",
    "divisors",
    "primes_up_to",
]

# The primes up to 41: is_prime's trial divisors and its Miller-Rabin bases
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Primality of n >= 0: trial division, then strong probable-prime
    tests, both by the primes up to 41. Proven only below psi_13 =
    3317044064679887385961981, the least strong pseudoprime to them all."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs.

    factorize(1) is the empty list.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}; expected a positive integer")
    pairs, m = _trial_division(n, n)
    if m > 1:
        pairs.append((m, 1))
    return pairs


def _trial_division(n: int, bound: int) -> tuple[list[tuple[int, int]], int]:
    """(pairs, rest) for n >= 1: the primes p <= bound of n with their
    exponents, ascending, and the cofactor rest = n / prod p**e. Division
    stops once rest is prime (is_prime), or at the first candidate d above
    bound or with d * d > rest, so rest is 1, a prime, or a number whose
    primes all exceed bound."""
    pairs = []
    m = n
    prime = is_prime(m)
    # candidates 2, 3, then the numbers 6k +/- 1
    for d in chain((2, 3), (d for k in count(6, 6) for d in (k - 1, k + 1))):
        if prime or d > bound or d * d > m:
            break
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            pairs.append((d, e))
            prime = is_prime(m)
    return pairs, m


def valuation(p: int, n: int) -> int:
    """Largest e such that p**e divides n, for prime p and n >= 1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"valuation undefined for {n}; expected n >= 1")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def moebius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)**(prime count)."""
    if n < 1:
        raise ValueError(f"moebius undefined for {n}; expected n >= 1")
    pairs = factorize(n)
    if any(e > 1 for _, e in pairs):
        return 0
    return -1 if len(pairs) % 2 else 1


def divisors(n: int) -> list[int]:
    """All divisors of n >= 1 in ascending order, including 1 and n."""
    if n < 1:
        raise ValueError(f"divisors undefined for {n}; expected n >= 1")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (empty for bound < 2)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, bound + 1) if sieve[p]]
