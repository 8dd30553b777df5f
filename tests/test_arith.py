from math import prod

import pytest
from hypothesis import given, strategies as st

from dynzeta.arith import (
    _strong_lucas,
    _trial_division,
    divisors,
    factorize,
    is_prime,
    moebius,
    primes_up_to,
    valuation,
)

from oracles import mu


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, []),
        (12, [(2, 2), (3, 1)]),
        (46656, [(2, 6), (3, 6)]),
        (97, [(97, 1)]),
        (2**20, [(2, 20)]),
    ],
)
def test_factorize_examples(n, expected):
    assert factorize(n) == expected


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reconstructs_everything_up_to_10k():
    for n in range(1, 10001):
        pairs = factorize(n)
        product = 1
        for p, e in pairs:
            assert is_prime(p)
            assert e >= 1
            product *= p**e
        assert product == n
        assert [p for p, _ in pairs] == sorted(p for p, _ in pairs)


@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_round_trip(n):
    product = 1
    for p, e in factorize(n):
        product *= p**e
    assert product == n


@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=2000))
def test_trial_division_stops_at_its_bound(n, bound):
    # the primes <= bound of n in full, and a rest that is 1, a prime, or
    # has every prime above bound
    pairs, rest = _trial_division(n, bound)
    assert pairs == [(p, e) for p, e in factorize(n) if p <= bound and p != rest]
    assert n == rest * prod(p**e for p, e in pairs)
    assert rest == 1 or is_prime(rest) or factorize(rest)[0][0] > bound


def test_trial_division_never_divides_past_its_bound():
    assert _trial_division(10007 * 10009, 100) == ([], 10007 * 10009)
    assert _trial_division(12 * 10007 * 10009, 3) == ([(2, 2), (3, 1)], 10007 * 10009)
    assert _trial_division(10007 * 10009, 10007) == ([(10007, 1)], 10009)


def test_trial_division_stops_at_a_prime_cofactor():
    # a prime cofactor of any size ends the division at once, far below
    # the bound
    c = 10**25 + 13
    assert _trial_division(c, 10**12) == ([], c)
    assert _trial_division(12 * c, 10**12) == ([(2, 2), (3, 1)], c)
    assert factorize(12 * c) == [(2, 2), (3, 1), (c, 1)]


@pytest.mark.parametrize("p, n, expected", [(2, 8, 3), (3, 8, 0), (2, 46656, 6)])
def test_valuation_examples(p, n, expected):
    assert valuation(p, n) == expected


@pytest.mark.parametrize(
    "call, message",
    [
        # a float or a bool was read as the number it stands for: is_prime(7.0)
        # was True, divisors(6.0) gave floats and factorize(True) the
        # factorization of 1; primes_up_to(10.5) raised TypeError
        (lambda: is_prime(7.0), "n must be an integer, got 7.0"),
        (lambda: factorize(True), "n must be an integer, got True"),
        (lambda: valuation(2, 8.0), "n must be an integer, got 8.0"),
        (lambda: valuation(2.0, 8), "p must be an integer, got 2.0"),
        (lambda: divisors(6.0), "n must be an integer, got 6.0"),
        (lambda: primes_up_to(10.5), "bound must be an integer, got 10.5"),
    ],
)
def test_argument_errors(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_valuation_domain_errors():
    with pytest.raises(ValueError):
        valuation(4, 8)
    with pytest.raises(ValueError):
        valuation(2, 0)


def test_valuation_exactness_sweep():
    for p in primes_up_to(50):
        for n in range(1, 10001):
            e = valuation(p, n)
            assert n % p**e == 0
            assert n % p ** (e + 1) != 0


@pytest.mark.parametrize("n, expected", [(1, 1), (12, 0), (30, -1), (2, -1), (6, 1)])
def test_moebius_examples(n, expected):
    assert moebius(n) == expected


def test_moebius_matches_recursive_definition():
    for n in range(1, 2001):
        assert moebius(n) == mu(n)


def test_moebius_divisor_sum_identity():
    for n in range(1, 10001):
        total = sum(moebius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


@pytest.mark.parametrize(
    "n, expected",
    [(1, [1]), (6, [1, 2, 3, 6]), (8, [1, 2, 4, 8]), (36, [1, 2, 3, 4, 6, 9, 12, 18, 36])],
)
def test_divisors_examples(n, expected):
    assert divisors(n) == expected


def test_divisors_brute_force_agreement():
    for n in range(1, 500):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize(
    "bound, expected",
    [(1, []), (2, [2]), (10, [2, 3, 5, 7]), (30, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])],
)
def test_primes_up_to_examples(bound, expected):
    assert primes_up_to(bound) == expected


def test_primes_up_to_matches_primality():
    assert primes_up_to(1000) == [n for n in range(2, 1001) if is_prime(n)]


def test_is_prime_brute_force_agreement():
    def naive(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in range(0, 2000):
        assert is_prime(n) == naive(n)


def test_is_prime_rejects_the_strong_pseudoprime_to_the_bases_up_to_37():
    # psi_12 passes the strong test to every prime base up to 37; base 41
    # exposes it, and the primes up to 41 are still prime
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert [p for p in range(2, 44) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


def test_is_prime_rejects_the_strong_pseudoprime_to_the_bases_up_to_41():
    # psi_13 passes the strong test to every prime base up to 41; the strong
    # Lucas test that follows from psi_13 on exposes it
    psi_13 = 3317044064679887385961981
    assert psi_13 == 1287836182261 * 2575672364521
    assert not is_prime(psi_13)
    assert is_prime(1287836182261) and is_prime(2575672364521)


@pytest.mark.parametrize(
    "n, expected",
    [
        (2**89 - 1, True),
        (2**107 - 1, True),
        (2**127 - 1, True),
        (2**521 - 1, True),
        (10**25 + 13, True),
        (2**89 + 1, False),
        (2**127 + 1, False),
        ((2**89 - 1) * (2**107 - 1), False),
        ((2**61 - 1) ** 2, False),  # a square, which has no Lucas parameter
    ],
)
def test_is_prime_above_psi_13(n, expected):
    assert is_prime(n) is expected


def test_strong_lucas_pseudoprimes_below_100000():
    # the strong Lucas test alone, with Selfridge's parameters, passes every
    # odd prime above 41 and, below 100000, exactly these composites (OEIS
    # A217255)
    passing = {n for n in range(43, 100000, 2) if _strong_lucas(n)}
    primes = set(primes_up_to(100000)) - set(primes_up_to(41))
    assert passing - primes == {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
                                58519, 75077, 97439}
    assert primes <= passing
