import random

import pytest
from hypothesis import given, settings, strategies as st

from dynzeta.sequences import (
    DOLD,
    SIGN,
    RealizabilityError,
    RealizabilityVerdict,
    check_realizable,
    disjoint_union,
    fix_from_orbits,
    hadamard,
    mobius_transform,
    orbit_counts,
    reg,
)

from oracles import (
    binary_orbit_count,
    divisor_sum_transform,
    greedy_orbit_counts,
    random_orbit_counts,
)

counts_lists = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=24)


def test_mobius_transform_one_fixed_point():
    assert mobius_transform([1, 1, 1, 1]) == [1, 0, 0, 0]


def test_mobius_transform_full_shift_prefix():
    entries = [2, 4, 8, 16]
    assert mobius_transform(entries) == divisor_sum_transform(entries) == [2, 2, 6, 12]


def test_mobius_transform_idempotent_looking_example():
    entries = [0, 0, 0, 8, 0, 8]
    assert mobius_transform(entries) == divisor_sum_transform(entries) == [0, 0, 0, 8, 0, 8]


@given(counts_lists)
def test_mobius_transform_matches_oracle(entries):
    assert mobius_transform(entries) == divisor_sum_transform(entries)


def _long_huge_entries(seed: int, length: int) -> list[int]:
    rng = random.Random(seed)
    return [(1 << 10000) + rng.getrandbits(10000) for _ in range(length)]


def test_mobius_sieve_matches_oracle_long_and_huge():
    entries = _long_huge_entries(3, 1105)
    assert mobius_transform(entries) == divisor_sum_transform(entries)


@settings(max_examples=5, deadline=None)
@given(st.integers(min_value=1001, max_value=1300), st.integers(min_value=0, max_value=2**32))
def test_mobius_sieve_matches_oracle_above_1000_terms(length, seed):
    entries = _long_huge_entries(seed, length)
    assert mobius_transform(entries) == divisor_sum_transform(entries)


def test_mobius_transform_leaves_input_alone():
    entries = [2, 4, 8, 16]
    mobius_transform(entries)
    assert entries == [2, 4, 8, 16]


def test_check_realizable_dold_failure():
    assert check_realizable([0, 0, 0, 8, 0, 8]) == RealizabilityVerdict(DOLD, 6, 8)


def test_check_realizable_full_shift_prefix():
    assert check_realizable([2**n for n in range(1, 17)]).passed


def test_check_realizable_sign_failure():
    assert check_realizable([1, 0]) == RealizabilityVerdict(SIGN, 2, -1)


def test_sign_reported_before_dold_at_equal_index():
    # b_2 = -3 is both negative and not divisible by 2
    verdict = check_realizable([3, 0])
    assert verdict == RealizabilityVerdict(SIGN, 2, -3)


def test_failure_carries_smallest_index():
    # fails at n=2 and n=4; only the smaller index is reported
    verdict = check_realizable([1, 0, 1, 0])
    assert verdict.index == 2


@given(counts_lists)
def test_realizability_matches_orbit_construction_oracle(entries):
    counts = greedy_orbit_counts(entries)
    verdict = check_realizable(entries)
    assert verdict.passed == (counts is not None)
    if counts is not None:
        assert orbit_counts(entries) == counts


def test_orbit_counts_single_orbit():
    assert orbit_counts(reg(8, 8)) == [0] * 7 + [1]


def test_orbit_counts_full_shift_matches_necklace_enumeration():
    entries = [2**n for n in range(1, 9)]
    expected = [binary_orbit_count(n) for n in range(1, 9)]
    assert orbit_counts(entries) == expected
    assert expected[:4] == [2, 1, 2, 3]


def test_orbit_counts_trivial():
    assert orbit_counts([1, 1]) == [1, 0]


def test_orbit_counts_rejects_unrealizable_with_verdict():
    with pytest.raises(RealizabilityError) as err:
        orbit_counts([0, 0, 0, 8, 0, 8])
    assert err.value.verdict == RealizabilityVerdict(DOLD, 6, 8)


@given(counts_lists)
def test_orbit_counts_verdict_is_check_realizable(entries):
    verdict = check_realizable(entries)
    if verdict.passed:
        assert [n * c for n, c in enumerate(orbit_counts(entries), start=1)] == (
            mobius_transform(entries)
        )
    else:
        with pytest.raises(RealizabilityError) as err:
            orbit_counts(entries)
        assert err.value.verdict == verdict


@given(st.lists(st.integers(min_value=0, max_value=2**70), min_size=1, max_size=60))
def test_fix_from_orbits_matches_divisor_sum(counts):
    expected = [
        sum(d * counts[d - 1] for d in range(1, n + 1) if n % d == 0)
        for n in range(1, len(counts) + 1)
    ]
    assert fix_from_orbits(counts) == expected


def test_fix_from_orbits_single_orbit_is_reg():
    counts = [0] * 7 + [1]
    assert fix_from_orbits(counts) == reg(8, 8)


def test_fix_from_orbits_zero():
    assert fix_from_orbits([0, 0, 0]) == [0, 0, 0]


def test_fix_from_orbits_inverts_necklace_counts():
    assert fix_from_orbits([2, 1, 2, 3]) == [2, 4, 8, 16]


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=32))
def test_round_trip_orbits_to_fix_and_back(counts):
    entries = fix_from_orbits(counts)
    assert check_realizable(entries).passed
    assert orbit_counts(entries) == counts


@pytest.mark.parametrize(
    "k, n, expected",
    [
        (2, 5, [0, 2, 0, 2, 0]),
        (1, 3, [1, 1, 1]),
        (8, 8, [0, 0, 0, 0, 0, 0, 0, 8]),
    ],
)
def test_reg_examples(k, n, expected):
    assert reg(k, n) == expected


def test_reg_rejects_zero():
    with pytest.raises(ValueError):
        reg(0, 5)


@pytest.mark.parametrize(
    "call, message",
    [
        # reg(True, 3) gave [True, True, True]; a float length raised TypeError
        (lambda: reg(True, 3), "orbit length must be an integer, got True"),
        (lambda: reg(2, 3.5), "prefix length must be an integer, got 3.5"),
    ],
)
def test_reg_argument_errors(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_disjoint_union_examples():
    assert disjoint_union(reg(2, 6), reg(3, 6)) == [0, 2, 3, 2, 0, 5]
    assert disjoint_union([1, 1], [1, 1]) == [2, 2]
    a = [3, 5, 9]
    assert disjoint_union(a, [0, 0, 0]) == a


def test_hadamard_examples():
    assert hadamard(reg(2, 6), reg(3, 6)) == [0, 0, 0, 0, 0, 6]
    a = [3, 5, 9]
    assert hadamard(a, [1, 1, 1]) == a
    assert hadamard([2, 4, 8], [2, 4, 8]) == [4, 16, 64]


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        disjoint_union([1], [1, 1])
    with pytest.raises(ValueError):
        hadamard([1], [1, 1])


def test_closure_under_union_and_product_500_trials():
    rng = random.Random(20240917)
    for _ in range(500):
        length = rng.randint(1, 64)
        a = fix_from_orbits(random_orbit_counts(rng, length))
        b = fix_from_orbits(random_orbit_counts(rng, length))
        assert check_realizable(disjoint_union(a, b)).passed
        assert check_realizable(hadamard(a, b)).passed


def test_entries_validated():
    with pytest.raises(ValueError):
        mobius_transform([])
    with pytest.raises(ValueError):
        mobius_transform([1, -1])
