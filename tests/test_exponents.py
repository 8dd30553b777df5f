import random

import pytest
from hypothesis import given, strategies as st

from dynzeta.exponents import (
    ExponentFunction,
    ExponentSpec,
    TableRangeError,
    apply_spec,
    check_divisibility_properties,
    membership_test,
    preimage_structure,
    spec_from_word,
    validate_spec,
)
from dynzeta.sequences import DOLD, SIGN, RealizabilityVerdict
from dynzeta.arith import valuation
from dynzeta.words import Generator, Word, eval_generator, eval_range, eval_word, random_word

from oracles import divisibility_counterexamples, random_valid_spec_tables

B, C = Generator.bump, Generator.cap


def build_spec(tables):
    return ExponentSpec(
        {p: ExponentFunction(shape, tuple(values)) for p, (shape, values) in tables.items()}
    )


SQUARING = ExponentSpec({p: ExponentFunction.unbounded([0, 2, 4, 6, 8]) for p in (2, 3, 5)})
CONSTANT2 = ExponentSpec(
    {2: ExponentFunction.bounded([1]), 3: ExponentFunction.bounded([0]), 5: ExponentFunction.bounded([0])}
)


class TestValidation:
    def test_squaring_tables_are_valid(self):
        assert validate_spec(SQUARING) == []

    def test_constant_two_is_valid(self):
        # d_2(0) = 1 > 0 is legal for a mapped prime
        assert validate_spec(CONSTANT2) == []

    def test_unbounded_lower_bound_violation(self):
        spec = build_spec({2: ("unbounded", [0, 0, 2])})
        violations = validate_spec(spec)
        assert len(violations) == 1
        v = violations[0]
        assert (v.prime, v.condition, v.index) == (2, "exponent-lower-bound", 1)

    def test_monotonicity_violation(self):
        spec = build_spec({3: ("bounded", [2, 1, 1])})
        assert any(v.condition == "non-decreasing" and v.index == 1 for v in validate_spec(spec))

    def test_bounded_lower_bound_only_up_to_eventual_value(self):
        # values (0, 1, 1): beyond the eventual value 1 no bound applies
        assert validate_spec(build_spec({2: ("bounded", [0, 1, 1])})) == []
        # but d(1) = 0 with eventual value 2 is a violation at index 1
        bad = build_spec({2: ("bounded", [0, 0, 2])})
        assert any(v.index == 1 for v in validate_spec(bad))

    def test_rejects_non_prime_keys_and_negative_values(self):
        with pytest.raises(ValueError):
            build_spec({4: ("bounded", [0])})
        with pytest.raises(ValueError):
            ExponentFunction.bounded([-1])
        with pytest.raises(ValueError):
            ExponentFunction.bounded([])

    def test_violations_in_index_order(self):
        # a drop at index 3 comes after the lower-bound violation at 1, and
        # at equal index (2) the drop comes first
        spec = build_spec({2: ("unbounded", [0, 0, 5, 4]), 3: ("unbounded", [0, 2, 1])})
        got = validate_spec(spec)
        assert [(v.prime, v.condition, v.index) for v in got] == [
            (2, "exponent-lower-bound", 1),
            (2, "non-decreasing", 3),
            (3, "non-decreasing", 2),
            (3, "exponent-lower-bound", 2),
        ]

    @pytest.mark.parametrize(
        "values, bad", [([1.5, 2.9], "1.5"), ([0, True], "True"), ([0, "1"], "'1'")]
    )
    def test_rejects_non_integer_values(self, values, bad):
        with pytest.raises(ValueError) as err:
            ExponentFunction.bounded(values)
        assert str(err.value) == f"exponent value must be an integer, got {bad}"

    def test_rejects_non_integer_prime_keys(self):
        # 2.0 passed the primality test and compiled to generators of prime 2.0
        with pytest.raises(ValueError) as err:
            build_spec({2.0: ("bounded", [1])})
        assert str(err.value) == "prime must be an integer, got 2.0"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: apply_spec(SQUARING, 0), "the map acts on n >= 1, got 0"),
        (lambda: ExponentFunction.bounded([1]).value(-1), "exponents are >= 0, got -1"),
        (lambda: ExponentFunction.unbounded([0, 1]).value(5),
         "table covers exponents 0..1, asked for 5"),
        (lambda: ExponentFunction.unbounded([1]).eventual,
         "only bounded functions have an eventual value"),
        (lambda: spec_from_word(Word(()), 5, max_level=-1), "max_level must be >= 0"),
        (lambda: preimage_structure(lambda n: n, 0, 5), "k must be >= 1"),
    ],
)
def test_argument_errors(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestApply:
    def test_squaring(self):
        assert apply_spec(SQUARING, 12) == 144

    def test_constant_two(self):
        assert apply_spec(CONSTANT2, 15) == 2
        assert apply_spec(CONSTANT2, 1) == 2

    def test_prime_multiplier_table(self):
        spec = build_spec({2: ("unbounded", [0, 2, 3, 4, 5])})
        assert apply_spec(spec, 6) == 12

    def test_unmapped_primes_pass_through(self):
        assert apply_spec(SQUARING, 11) == 11
        assert apply_spec(SQUARING, 22) == 44

    def test_table_range_is_a_hard_error(self):
        spec = build_spec({2: ("unbounded", [0, 2])})
        with pytest.raises(TableRangeError) as err:
            apply_spec(spec, 4)
        assert err.value.prime == 2 and err.value.exponent == 2

    def test_table_range_without_a_prime_names_none(self):
        with pytest.raises(TableRangeError) as err:
            ExponentFunction.unbounded([0, 1]).value(5)
        assert (err.value.prime, err.value.exponent, err.value.bound) == (None, 5, 1)

    def test_identity_spec(self):
        spec = ExponentSpec({})
        assert [apply_spec(spec, n) for n in range(1, 8)] == list(range(1, 8))


class TestSpecFromWord:
    def test_empty_word_tabulates_identities(self):
        spec = spec_from_word(Word(), 5, 4)
        assert sorted(spec.functions) == [2, 3, 5]
        assert all(fn.is_identity_table() for fn in spec.functions.values())

    def test_doubling_word_table(self):
        word = Word((B(2, 2), B(2, 1), B(2, 0)))
        spec = spec_from_word(word, 2, 2)
        assert spec.functions[2].values == (1, 2, 3)

    def test_constant_word_tables(self):
        word = Word((B(2, 0), C(2, 1), C(3, 0), C(5, 0)))
        spec = spec_from_word(word, 5, 3)
        assert spec.functions[2].values == (1, 1, 1, 1)
        assert spec.functions[3].values == (0, 0, 0, 0)
        assert spec.functions[5].values == (0, 0, 0, 0)

    def test_rejects_primes_beyond_bound(self):
        with pytest.raises(ValueError):
            spec_from_word(Word((B(11, 0),)), 7, 3)

    def test_tables_are_non_decreasing(self):
        for seed in range(60):
            word = random_word(seed, seed % 13, 7, 4)
            spec = spec_from_word(word, 7, 8)
            for fn in spec.functions.values():
                assert list(fn.values) == sorted(fn.values)

    @given(st.integers(0, 10**6), st.integers(0, 14), st.integers(0, 6))
    def test_tables_are_valuations_of_prime_power_images(self, seed, length, max_level):
        word = random_word(seed, length, 11, 5)
        spec = spec_from_word(word, 11, max_level)
        for p, fn in spec.functions.items():
            assert fn.shape == "unbounded"
            assert fn.values == tuple(
                valuation(p, eval_word(word, p**v)) for v in range(max_level + 1)
            )

    def test_consistency_with_word_evaluation(self):
        for seed in range(40):
            word = random_word(seed, seed % 13, 7, 4)
            spec = spec_from_word(word, 7, 8)
            values = eval_range(word, 10000)
            for n in range(1, 10001):
                try:
                    expected = apply_spec(spec, n)
                except TableRangeError:
                    continue  # exponent beyond table range, no claim there
                assert values[n - 1] == expected, (seed, n)


class TestPreimageStructure:
    def test_cap_with_high_k_power_is_empty(self):
        cap = lambda n: eval_generator(C(2, 1), n)
        assert preimage_structure(cap, 8, 400).outcome == "empty"

    def test_bump_divides_step_when_level_matches(self):
        bump = lambda n: eval_generator(B(2, 1), n)
        got = preimage_structure(bump, 4, 400)
        assert (got.outcome, got.step) == ("progression", 2)

    def test_identity_progression(self):
        got = preimage_structure(lambda n: n, 6, 300)
        assert (got.outcome, got.step) == ("progression", 6)

    def test_violation_detected_for_non_member(self):
        got = preimage_structure(lambda n: n + 1, 3, 60)
        assert got.outcome == "violation"

    def test_structure_carries_precision(self):
        assert preimage_structure(lambda n: n, 5, 77).max_n == 77

    def test_requires_max_n_at_least_k(self):
        with pytest.raises(ValueError):
            preimage_structure(lambda n: n, 10, 5)


class TestMembership:
    def test_tower_map_refuted(self):
        report = membership_test(lambda n: n**n, 8, 6)
        assert report.refuted
        assert report.witness.k == 8
        assert report.witness.verdict == RealizabilityVerdict(DOLD, 6, 8)

    def test_bump_generator_not_refuted(self):
        report = membership_test(lambda n: eval_generator(B(2, 0), n), 20, 200)
        assert not report.refuted
        assert "inconclusive" in report.describe()

    def test_successor_refuted_at_smallest_k(self):
        # k = 2 already fails: the probe counts (2, 0) lose a fixed point
        report = membership_test(lambda n: n + 1, 3, 2)
        assert report.witness.k == 2
        assert report.witness.verdict == RealizabilityVerdict(SIGN, 2, -2)

    def test_describe_names_the_witness(self):
        report = membership_test(lambda n: n + 1, 3, 2)
        assert report.describe() == (
            f"refuted by orbit length k=2: {report.witness.verdict.describe()}"
        )

    def test_report_never_claims_membership(self):
        report = membership_test(lambda n: n, 5, 50)
        assert not hasattr(report, "is_member")
        assert not report.refuted


class TestDivisibilityClaims:
    def test_prime_multiplier_map_passes(self):
        f = lambda n: 2 * n if n % 2 == 0 else n
        assert check_divisibility_properties(f, 100).all_hold

    def test_tower_map_fails_coprime_lcm(self):
        report = check_divisibility_properties(lambda n: n**n, 6)
        assert not report.coprime_lcm.holds
        assert report.coprime_lcm.counterexample == (2, 3)

    def test_identity_passes(self):
        assert check_divisibility_properties(lambda n: n, 60).all_hold

    def test_successor_fails_divides(self):
        report = check_divisibility_properties(lambda n: n + 1, 10)
        assert not report.divides.holds


def _counterexamples(values):
    report = check_divisibility_properties(lambda n: values[n - 1], len(values))
    claims = {
        "divides": report.divides,
        "coprime_lcm": report.coprime_lcm,
        "prime_support": report.prime_support,
    }
    for claim in claims.values():
        assert claim.holds == (claim.counterexample is None)
    return {name: claim.counterexample for name, claim in claims.items()}


class TestDivisibilityAgainstQuadraticScan:
    @pytest.mark.parametrize(
        "f, law, witness",
        [
            (lambda n: n + 1, "divides", (1, 2)),
            (lambda n: 7 if n == 6 else n, "divides", (2, 6)),
            (lambda n: n**n, "coprime_lcm", (2, 3)),
            (lambda n: 3 * n if n > 1 else 1, "prime_support", (3, 2)),
        ],
    )
    def test_each_law_violated(self, f, law, witness):
        values = [f(n) for n in range(1, 41)]
        got = _counterexamples(values)
        assert got == divisibility_counterexamples(values)
        assert got[law] == witness

    def test_only_prime_support_fails(self):
        values = [3 * n if n > 1 else 1 for n in range(1, 61)]
        assert _counterexamples(values) == {
            "divides": None, "coprime_lcm": None, "prime_support": (3, 2)
        }

    @given(st.lists(st.integers(min_value=1, max_value=24), min_size=1, max_size=60))
    def test_random_maps(self, values):
        assert _counterexamples(values) == divisibility_counterexamples(values)

    @given(st.integers(min_value=2, max_value=300), st.integers(min_value=1, max_value=7))
    def test_one_corrupted_value_of_identity(self, where, factor):
        values = [n * factor if n == where else n for n in range(1, 301)]
        assert _counterexamples(values) == divisibility_counterexamples(values)


class TestValidSpecsBehaveLikeMembers:
    """Random valid specs satisfy the divisibility laws and survive
    membership probing; tables are sized so the probed range never falls
    off an unbounded table."""

    def test_claims_and_probes(self):
        rng = random.Random(555)
        built = 0
        while built < 40:
            tables = random_valid_spec_tables(
                rng, (2, 3, 5, 7), max_len=9, unbounded_min_len=9
            )
            spec = build_spec(tables)
            assert validate_spec(spec) == []
            f = lambda n: apply_spec(spec, n)
            assert check_divisibility_properties(f, 60).all_hold
            assert not membership_test(f, 24, 200).refuted
            built += 1
