"""random_word against the public draws of its seed.

random_word takes its draws straight from getrandbits with the rejection rule
of CPython's choice and randint, so its words must stay the ones that
Random(seed).choice((BUMP, CAP)), .choice(primes) and .randint(0, max_level)
give, on every supported CPython. n = 1 and powers of two are the rule's edge
cases: max_prime 2 gives one prime and max_level 0 one level, max_prime 13
gives 6 primes, max_prime 100 gives 25, and max_level 3, 7 and 31 give 4, 8
and 32 levels.

Needs only the standard library, so it also runs without pytest:

    PYTHONPATH=src python3 tests/test_random_word_stream.py
"""

from dynzeta.words import random_word

from oracles import public_random_word

SEEDS = (0, 1, -1, -7, 12345, -(2**40) - 3, 2**64 + 1, -(10**30), 10**40 + 7)
MAX_PRIMES = (2, 3, 13, 100)
MAX_LEVELS = (0, 1, 3, 4, 7, 8, 31)


def test_random_word_matches_the_public_draws():
    for seed in SEEDS:
        for max_prime in MAX_PRIMES:
            for max_level in MAX_LEVELS:
                for length in range(31):
                    word = random_word(seed, length, max_prime, max_level)
                    got = [(g.kind, g.prime, g.level) for g in word]
                    expected = public_random_word(seed, length, max_prime, max_level)
                    assert got == expected, (seed, length, max_prime, max_level)


def test_consecutive_seeds_match_the_public_draws():
    # relation-search draws its words at seed, seed + 1, ...
    for seed in range(-200, 200):
        got = [(g.kind, g.prime, g.level) for g in random_word(seed, 8, 7, 4)]
        assert got == public_random_word(seed, 8, 7, 4), seed


def test_negative_max_level_is_rejected_when_drawing():
    for length in (1, 5):
        try:
            random_word(3, length, 7, -1)
        except ValueError as err:
            assert str(err) == "max_level must be >= 0"
        else:
            raise AssertionError("max_level -1 was accepted")
    assert random_word(3, 0, 7, -1).gens == ()


if __name__ == "__main__":
    import sys

    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} random_word stream checks passed on Python {sys.version.split()[0]}")
