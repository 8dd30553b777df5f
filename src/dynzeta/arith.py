"""Exact integer arithmetic: factorization, p-adic valuations, the Moebius
function, divisor and prime enumeration.

Everything runs on plain Python integers, so all values are arbitrary
precision. Factorization is trial division, which stops once the cofactor
is prime. The primality test is Miller-Rabin to the prime bases up to 41,
which is proven correct below psi_13 = 3317044064679887385961981; from
psi_13 on, a strong Lucas test follows, which makes it the Baillie-PSW
test: no composite is known to pass it, though none is proven not to.
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
# The least strong pseudoprime to all of them (= 1287836182261 * 2575672364521)
_PSI_13 = 3317044064679887385961981


def _check_int(value, field: str) -> None:
    """Reject anything but a plain int: int() would truncate 1.5 to 1 and
    so silently describe a different map."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an integer, got {value!r}")


def is_prime(n: int) -> bool:
    """Primality of n >= 0: trial division, then strong probable-prime
    tests, both by the primes up to 41, which decide every n below psi_13
    = 3317044064679887385961981; from psi_13 on, also the strong Lucas
    test (Baillie-PSW)."""
    _check_int(n, "n")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    r, d = _split(n - 1, 2)
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
    return n < _PSI_13 or _strong_lucas(n)


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test of an odd n > 41 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with Jacobi symbol
    (D/n) = -1, P = 1 and Q = (1 - D) / 4. With n + 1 = d * 2**s, d odd, n
    passes when U_d = 0 or V_(d * 2**r) = 0 for some 0 <= r < s (mod n).
    A square has no such D, and is composite."""
    if isqrt(n) ** 2 == n:
        return False
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s, k = _split(n + 1, 2)

    def half(x: int) -> int:
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_m, V_m and Q**m mod n for m = the leading bits of k, from m = 1
    u, v, qm = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n  # m -> 2m
        if bit == "1":
            u, v, qm = half(u + v), half(d * u + v), qm * q % n  # m -> m + 1
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qm = (v * v - 2 * qm) % n, qm * qm % n
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        twos, a = _split(a, 2)
        if twos % 2 and n % 8 in (3, 5):
            sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs.

    factorize(1) is the empty list.
    """
    _check_int(n, "n")
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
            e, m = _split(m, d)
            pairs.append((d, e))
            prime = is_prime(m)
    return pairs, m


def valuation(p: int, n: int) -> int:
    """Largest e such that p**e divides n, for prime p and n >= 1."""
    _check_int(p, "p")
    _check_int(n, "n")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"valuation undefined for {n}; expected n >= 1")
    return _split(n, p)[0]


def _split(n: int, p: int) -> tuple[int, int]:
    """(v, n // p**v) for n >= 1 and p >= 2, v the largest e such that p**e
    divides n: the p-part of n and the rest."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


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
    _check_int(n, "n")
    if n < 1:
        raise ValueError(f"divisors undefined for {n}; expected n >= 1")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def primes_up_to(bound: int) -> list[int]:
    """All primes <= bound, ascending (empty for bound < 2)."""
    _check_int(bound, "bound")
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, bound + 1) if sieve[p]]
