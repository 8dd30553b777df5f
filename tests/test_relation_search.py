"""relation-search against the fingerprint search it replaced.

The CLI groups the normal forms by their exact per-prime exponent tables on
1..max_n; the reference (tests/oracles.py) draws through the public Random
API, reads each word's canonical form off its images, buckets by 64 range
values and splits each bucket into groups by scanning the whole prefix. Both
report every pair of each group, groups in order of first sighting. Exit
code, stdout and stderr must agree byte for byte. Small max_n, few primes
and low levels make coincidences common.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from dynzeta import words
from dynzeta.cli import main
from dynzeta.words import random_word

from oracles import (
    fingerprint_relation_search,
    generator_pass_eval_range,
    naive_canonical_form,
    per_generator_tables,
    public_random_word,
    scan_equal_upto,
)

# 1, 2, both sides of the 64-point fingerprint, and p**k - 1, p**k, p**k + 1
PRIME_POWERS = {p**k for p in (2, 3, 5, 7) for k in range(1, 12) if p**k <= 2200}
EDGE_MAX_N = sorted({1, 2, 63, 64, 65} | {q + d for q in PRIME_POWERS for d in (-1, 0, 1)})


def cli(seed, count, length, max_prime, max_level, max_n):
    argv = ["relation-search", "--seed", str(seed), "--count", str(count),
            "--length", str(length), "--max-prime", str(max_prime),
            "--max-level", str(max_level), "--max-n", str(max_n)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def groups(out):
    """The groups of the reported pairs, one per pair, as the set of words
    that agree with its left word; a group is every pair of its words."""
    pairs = [(json.dumps(pair["left"]), json.dumps(pair["right"]))
             for pair in json.loads(out)["coincidences"]]
    partners = {}
    for left, right in pairs:
        partners.setdefault(left, {left}).add(right)
        partners.setdefault(right, {right}).add(left)
    return [frozenset(partners[left]) for left, _ in pairs]


def check(*args):
    got = cli(*args)
    assert got == fingerprint_relation_search(*args), args
    if got[0] == 0:
        # each group's pairs come out contiguous
        found = groups(got[1])
        assert len([g for g, _ in itertools.groupby(found)]) == len(set(found)), args
    return got


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=-(2**70), max_value=2**70),
    count=st.integers(min_value=0, max_value=40),
    length=st.integers(min_value=0, max_value=9),
    max_prime=st.sampled_from([2, 3, 5, 7, 13]),
    max_level=st.integers(min_value=0, max_value=5),
    max_n=st.sampled_from(EDGE_MAX_N),
)
def test_matches_the_fingerprint_search(seed, count, length, max_prime, max_level, max_n):
    check(seed, count, length, max_prime, max_level, max_n)


@pytest.mark.parametrize(
    "max_n", [1, 2, 3, 4, 7, 8, 9, 26, 27, 28, 63, 64, 65, 127, 128, 129, 10000]
)
def test_coincidences_match_at_the_edges(max_n):
    # levels up to log2(max_n), so that some bump or cap acts only past the
    # prefix: distinct maps then agree on it
    found = 0
    for seed in (0, 1000, -5):
        code, out, _ = check(seed, 60, 5, 3, max(3, max_n.bit_length() - 1), max_n)
        assert code == 0
        found += len(json.loads(out)["coincidences"])
    assert found > 0  # the comparison is not vacuous at any edge


@pytest.mark.parametrize("max_level, max_n", [(6, 64), (6, 100), (7, 128), (7, 200)])
def test_bucket_order_around_the_cut(max_level, max_n):
    # one prime and levels up to 6 or 7: normal forms that agree on 1..63
    # but not at 64, or on 1..64 but not at 128, share the reference's
    # 64-point bucket or not, and the coincidences must come out in order of
    # first sighting all the same
    for seed in range(30):
        check(seed, 80, 2, 2, max_level, max_n)


@pytest.mark.parametrize(
    "seed, count, length, max_prime, max_level, max_n",
    [(1000, 60, 5, 3, 13, 10000), (78835, 256, 5, 5, 3, 100), (624235, 257, 3, 7, 4, 100)],
)
def test_groups_that_share_a_bucket(seed, count, length, max_prime, max_level, max_n):
    # searches whose pairs came out in another order when they were listed
    # by 64-point bucket: a group's bucket also holds forms that agree with
    # it on 1..64 but not on 1..max_n, and each group's pairs still come out
    # together, in order of first sighting
    code, out, _ = check(seed, count, length, max_prime, max_level, max_n)
    assert code == 0
    buckets = {}
    for i in range(count):
        form = naive_canonical_form(public_random_word(seed + i, length, max_prime, max_level))
        word = json.dumps({"gens": [{"kind": k, "p": p, "t": t} for k, p, t in form]})
        buckets.setdefault(tuple(generator_pass_eval_range(form, 64)), set()).add(word)
    found = set(groups(out))
    assert found
    assert any(group < bucket for group in found for bucket in buckets.values())


def test_default_arguments_match():
    check(1, 100, 8, 7, 4, 10000)


def test_identity_acting_generators_coincide():
    # caps and bumps at levels 11..20 act as the identity on 1..2000, so
    # normal forms that differ only in them coincide there
    code, out, _ = check(7, 40, 3, 2, 20, 2000)
    assert code == 0 and json.loads(out)["coincidences"]


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 5, 3, 7, 4, 0), "max_n must be >= 1"),
        ((1, 5, 0, 7, 4, 0), "max_n must be >= 1"),
        ((1, 5, 3, 7, 4, -9), "max_n must be >= 1"),
        ((1, 5, 3, 1, 4, 100), "no primes <= 1"),
        ((1, 5, 3, 1, 4, 0), "no primes <= 1"),
        ((1, 5, -1, 7, 4, 100), "length must be >= 0"),
        ((1, 5, -1, 1, 4, 0), "length must be >= 0"),
        ((1, 5, 3, 7, -1, 100), "max_level must be >= 0"),
        ((1, 5, 3, 1, -1, 100), "no primes <= 1"),
        ((1, -3, 3, 7, 4, 100), "--count must be >= 0, got -3"),
        ((1, -1, -1, 1, -1, 0), "--count must be >= 0, got -1"),
    ],
)
def test_usage_errors(args, message):
    assert check(*args) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "args",
    [(1, 0, 3, 7, 4, 0), (1, 0, -1, 1, -1, -5), (1, 3, 0, 1, -1, 10), (4, 3, 0, 7, -2, 1)],
)
def test_accepted_edge_arguments(args):
    code, _, err = check(*args)
    assert code == 0 and err == ""


def test_count_must_be_an_integer():
    code, out, err = cli(1, "x", 3, 7, 4, 100)
    assert (code, out, err) == (2, "", "error: --count must be an integer, got 'x'\n")


def test_random_word_rejects_a_negative_max_level():
    with pytest.raises(ValueError, match=r"^max_level must be >= 0$"):
        random_word(1, 3, 7, -1)
    assert random_word(1, 0, 7, -1).gens == ()


def test_primes_are_sieved_once_per_search(monkeypatch):
    calls, primes_up_to = [], words.primes_up_to

    def counting_primes_up_to(bound):
        calls.append(bound)
        return primes_up_to(bound)

    monkeypatch.setattr(words, "primes_up_to", counting_primes_up_to)
    code, out, _ = cli(1, 40, 8, 1000, 4, 10000)
    assert code == 0 and json.loads(out)["count"] == 40
    assert calls == [1000]


@pytest.mark.parametrize("seed", [0, 1, -(2**40) - 3, 987654321])
@pytest.mark.parametrize("count, max_n", [(100, 10000), (400, 10000), (100, 64), (400, 64)])
def test_benchmark_shapes_match(seed, count, max_n):
    # the monoid workload's requests: default length, max prime and max
    # level; at max_n 64 a search of 400 words finds coincidences
    code, out, _ = check(seed, count, 8, 7, 4, max_n)
    assert code == 0
    if (count, max_n) == (400, 64):
        assert json.loads(out)["coincidences"]


@pytest.mark.parametrize("seed, max_n", [(1, 64), (2, 64), (3, 10000)])
def test_generators_are_built_only_for_reported_words(monkeypatch, seed, max_n):
    # the search draws, normalizes and keys plain values; a Generator is
    # built only for the words of the reported pairs, once per word
    built, generator = [], words._generator

    def counting_generator(kind, prime, level):
        built.append((kind, prime, level))
        return generator(kind, prime, level)

    monkeypatch.setattr(words, "_generator", counting_generator)
    code, out, _ = cli(seed, 400, 8, 7, 4, max_n)
    assert code == 0
    reported = {
        json.dumps(pair[side], sort_keys=True)
        for pair in json.loads(out)["coincidences"]
        for side in ("left", "right")
    }
    assert reported or max_n == 10000  # coincidences are rare at max_n 10000
    assert sorted(built) == sorted(
        (g["kind"], g["p"], g["t"]) for word in reported for g in json.loads(word)["gens"]
    )


@pytest.mark.parametrize("seed, max_n", [(5, 1), (1, 64), (7, 2000)])
def test_every_hit_is_a_prefix_coincidence(seed, max_n):
    # normal forms are canonical, so the two words of a hit are distinct
    # maps: they agree on 1..max_n and differ at some p**v beyond it, which
    # the tables on v <= max_level + 2 show
    pairs = words._coincidences(seed, 200, 6, 3, 5, max_n)
    assert pairs
    for left, right in pairs:
        gens = [[(g.kind, g.prime, g.level) for g in word] for word in (left, right)]
        assert scan_equal_upto(*gens, max_n) is None
        tables = [per_generator_tables(g, 1, {p: list(range(8)) for p in (2, 3)}) for g in gens]
        assert tables[0] != tables[1]
