import random
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import dynzeta.exponents as exponents
from dynzeta.cli import parse_map
from dynzeta.compiler import InvalidSpecError, compile_spec
from dynzeta.exponents import (
    ExponentFunction,
    ExponentSpec,
    PreimageStructure,
    TableRangeError,
    apply_spec,
    check_divisibility_properties,
    membership_test,
    preimage_structure,
    spec_from_word,
    validate_spec,
)
from dynzeta.sequences import DOLD, SIGN, RealizabilityVerdict
from dynzeta.series import FixSource, time_change_fix
from dynzeta.arith import divisors, valuation
from dynzeta.words import Generator, Word, eval_generator, eval_range, eval_word, random_word

from oracles import (
    divisibility_counterexamples,
    has_member_shape,
    pointwise_membership,
    pointwise_preimage,
    pointwise_values,
    random_valid_spec_tables,
    spec_tables_upto,
)

B, C = Generator.bump, Generator.cap
PRIMES_7 = (2, 3, 5, 7)


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


def unread(n):
    raise AssertionError("the map was read")


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
        (lambda: SQUARING._maps(-1), "the map acts on n >= 1, got -1"),
        # a function that is not an ExponentFunction failed later, in
        # apply_spec and validate_spec, with AttributeError
        (lambda: ExponentSpec({2: (1, 2)}), "prime 2: (1, 2) is not an ExponentFunction"),
        (lambda: ExponentSpec({3: ExponentFunction.bounded([1]), 2: [0, 1]}),
         "prime 2: [0, 1] is not an ExponentFunction"),
        # a float k was reported as a violation with k = 2.5, True served as
        # a bound of 1, and a float max_n raised TypeError; each is checked
        # before the map is read
        (lambda: preimage_structure(unread, 2.5, 10), "k must be an integer, got 2.5"),
        (lambda: preimage_structure(unread, 2, 10.0), "max_n must be an integer, got 10.0"),
        (lambda: membership_test(unread, True, 10), "max_k must be an integer, got True"),
        (lambda: membership_test(unread, 5, 10.0), "max_n must be an integer, got 10.0"),
        (lambda: check_divisibility_properties(unread, True),
         "max_n must be an integer, got True"),
        (lambda: check_divisibility_properties(unread, 10.0),
         "max_n must be an integer, got 10.0"),
        (lambda: time_change_fix(unread, FixSource.constant(1), 3.0),
         "length must be an integer, got 3.0"),
        (lambda: time_change_fix(unread, FixSource.constant(1), False),
         "length must be an integer, got False"),
        # spec_from_word tabulated to max_level True, a float max_prime raised
        # TypeError, and apply_spec gave a float
        (lambda: spec_from_word(Word(()), 5, True), "max_level must be an integer, got True"),
        (lambda: spec_from_word(Word(()), 5.5, 2), "max_prime must be an integer, got 5.5"),
        (lambda: apply_spec(SQUARING, 4.0), "n must be an integer, got 4.0"),
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
        capped = {g.prime for g in word.gens if g.kind == "h"}
        for p, fn in spec.functions.items():
            # a capped prime is bounded, read on to its table's end, and
            # constant past it; any other is unbounded on 0..max_level
            assert fn.shape == ("bounded" if p in capped else "unbounded")
            assert len(fn.values) == max_level + 1 or p in capped and len(fn.values) > max_level
            size = len(fn.values) + (2 if p in capped else 0)
            assert tuple(fn.value(v) for v in range(size)) == tuple(
                valuation(p, eval_word(word, p**v)) for v in range(size)
            )

    def test_a_capped_word_compiles_only_when_read_as_bounded(self):
        # the cap drops the table of 2 below its index at 2: (0, 1, 1, 1, 1),
        # which only the bounded shape allows, and spec_from_word stores it so
        spec = spec_from_word(Word((C(2, 1),)), 3, 4)
        assert spec.functions[2] == ExponentFunction.bounded((0, 1, 1, 1, 1))
        assert spec.functions[3] == ExponentFunction.unbounded((0, 1, 2, 3, 4))
        # exact at every n on 2, and on 3 up to 3**4
        result = compile_spec(spec)
        assert (result.word, result.agreement) == (Word((C(2, 1),)), {3: 4})
        unbounded = ExponentSpec({**spec.functions, 2: ExponentFunction.unbounded((0, 1, 1, 1, 1))})
        with pytest.raises(InvalidSpecError, match="value 1 at index 2 is below the index"):
            compile_spec(unbounded)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 14), st.integers(0, 4),
           st.sampled_from([None, *PRIMES_7]), st.integers(0, 4))
    def test_spec_of_a_word_compiles_back_to_the_word(self, seed, length, max_level, cap_prime,
                                                      cap_level):
        word = random_word(seed, length, 7, 4)
        if cap_prime is not None:
            word = Word((*word.gens, C(cap_prime, cap_level)))
        result = compile_spec(spec_from_word(word, 7, max_level))
        # 1..300, and each prime's powers far past every table, times the rest
        points = [*range(1, 301)]
        points += [p**e * 2310 // p for p in PRIMES_7 for e in range(max_level + 9)]
        for n in filter(result.admits, points):
            assert eval_word(result.word, n) == eval_word(word, n), (word, n)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 14), st.integers(0, 4),
           st.sampled_from([None, *PRIMES_7]), st.integers(0, 4))
    def test_bounded_reading_compiles_to_the_word(self, seed, length, max_level, cap_prime,
                                                  cap_level):
        word = random_word(seed, length, 7, 4)
        if cap_prime is not None:
            word = Word((*word.gens, C(cap_prime, cap_level)))
        spec = spec_from_word(word, 7, max_level)
        bounded = ExponentSpec({p: ExponentFunction.bounded(fn.values)
                                for p, fn in spec.functions.items()})
        compiled = compile_spec(bounded).word
        # every n whose exponents are at most max_level, an untouched prime included
        for es in product(range(max_level + 1), repeat=len(PRIMES_7)):
            n = prod(p**e for p, e in zip(PRIMES_7, es)) * 11 ** (sum(es) % 2)
            assert eval_word(compiled, n) == eval_word(word, n), (word, n)

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


class TestSpecCut:
    # a spec's value carries a constant tail when bounded and none when
    # unbounded; cut to 1..max_n it must give the reference's per-N
    # reading, whatever the shape or order of the values
    @given(
        st.dictionaries(
            st.sampled_from([2, 3, 5, 7, 11, 101, 10007]),
            st.tuples(st.sampled_from(["bounded", "unbounded"]),
                      st.lists(st.integers(0, 40), min_size=1, max_size=10)),
        ),
        st.one_of(st.integers(1, 3000), st.sampled_from([10**12, 10**30])),
    )
    @settings(max_examples=300, deadline=None)
    def test_cut_matches_the_per_n_reading(self, functions, max_n):
        maps = build_spec(functions)._maps
        assert maps.cut(max_n) == spec_tables_upto(functions, max_n)


# members of the monoid on 1..max_n: C * n**b, words, and valid specs whose
# unbounded tables cover every exponent below 2**8
member_maps = st.one_of(
    st.builds(lambda c, b: lambda n: c * n**b, st.integers(1, 6), st.integers(0, 3)),
    st.builds(lambda seed, length: random_word(seed, length, 13, 4).as_map(),
              st.integers(0, 10**6), st.integers(0, 12)),
    st.integers(0, 10**6).map(lambda seed: build_spec(random_valid_spec_tables(
        random.Random(seed), (2, 3, 5, 7, 11), max_len=8, unbounded_min_len=8))._maps),
)


class TestLawsAlongPrimeSteps:
    """The laws are tested along prime steps, and a failing one is named
    by the pairwise rule: checked against the quadratic scan on members
    whose value at one late n is changed, so that divides and coprime_lcm
    fail far from n = 2."""

    @settings(max_examples=300, deadline=None)
    @given(member_maps, st.integers(2, 150), st.data())
    def test_members_with_one_late_value_changed(self, f, max_n, data):
        values = pointwise_values(f, max_n)
        assert _counterexamples(values) == divisibility_counterexamples(values)
        n0 = data.draw(st.integers(max_n // 2 + 1, max_n))
        old = values[n0 - 1]
        values[n0 - 1] = data.draw(st.one_of(
            st.integers(2, 7).map(lambda k: old * k),
            st.sampled_from(divisors(old)).map(lambda d: old // d),
            st.integers(1, 2 * old),
        ))
        assert _counterexamples(values) == divisibility_counterexamples(values)

    @pytest.mark.parametrize(
        "change, law, witness",
        [
            # f(90) = 30: the failing steps are 18 and 45, the smallest m is 9
            (lambda v: v // 3, "divides", (9, 90)),
            (lambda v: v * 7, "coprime_lcm", (2, 45)),  # 90 = 2 * 45, smallest m first
            (lambda v: v * 7, "prime_support", (7, 90)),
        ],
    )
    def test_late_failure_of_the_identity(self, change, law, witness):
        values = list(range(1, 101))
        values[89] = change(90)
        got = _counterexamples(values)
        assert got == divisibility_counterexamples(values)
        assert got[law] == witness


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


# -- the table path ---------------------------------------------------------

# primes above every max_n tested among them, and the empty word
TABLE_PRIMES = (2, 3, 5, 7, 11, 101, 10007)
table_word_maps = st.builds(
    Word,
    st.lists(
        st.builds(Generator, st.sampled_from("gh"), st.sampled_from(TABLE_PRIMES),
                  st.integers(0, 6)),
        max_size=10,
    ).map(tuple),
).map(Word.as_map)
# valid specs, and raw tables: invalid, non-monotone, sorted, and unbounded
# ones that end short of max_n
raw_function = st.builds(
    lambda shape, values, ordered: ExponentFunction(shape, sorted(values) if ordered else values),
    st.sampled_from(["bounded", "unbounded"]),
    st.lists(st.integers(0, 8), min_size=1, max_size=8),
    st.booleans(),
)
table_spec_maps = st.one_of(
    st.integers(0, 10**6).map(
        lambda seed: build_spec(
            random_valid_spec_tables(random.Random(seed), TABLE_PRIMES, max_len=8)
        )
    ),
    st.dictionaries(st.sampled_from(TABLE_PRIMES), raw_function, max_size=3).map(ExponentSpec),
).map(lambda spec: spec._maps)


@st.composite
def sorted_tables_and_max_n(draw):
    """A max_n <= 2000 and non-decreasing tables for 1-3 of the primes 2,
    3, 5 and 7, each of 1-12 entries with values 0-14 and of either shape,
    an unbounded one long enough to cover the exponents on 1..max_n."""
    max_n = draw(st.integers(1, 2000))
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=3, unique=True))
    functions = {}
    for p in primes:
        shape = draw(st.sampled_from(["bounded", "unbounded"]))
        covered = len([v for v in range(12) if p**v <= max_n])
        size = draw(st.integers(covered if shape == "unbounded" else 1, 12))
        values = draw(st.lists(st.integers(0, 14), min_size=size, max_size=size))
        functions[p] = (shape, sorted(values))
    return functions, max_n


def outcome(thunk):
    """("ok", result) or ("raised", exception class, message)."""
    try:
        return "ok", thunk()
    except ValueError as err:
        return "raised", type(err), str(err)


def preimage_tuple(s):
    return s.outcome, s.step, s.witness


def membership_tuple(report):
    w = report.witness
    return None if w is None else (w.k, w.verdict.failure, w.verdict.index, w.verdict.value)


def divisibility_dict(report):
    return {
        "divides": report.divides.counterexample,
        "coprime_lcm": report.coprime_lcm.counterexample,
        "prime_support": report.prime_support.counterexample,
    }


class TestTablePath:
    """Word, spec and generator maps answer from their exponent tables when
    these cover 1..max_n and are non-decreasing. Each answer is checked
    against the per-n oracles and against the value path, both on a plain
    callable of the same map, errors included."""

    @settings(max_examples=250, deadline=None)
    @given(st.one_of(table_word_maps, table_spec_maps), st.integers(1, 150),
           st.one_of(st.integers(1, 40), st.sampled_from([101, 202, 10007])), st.integers(1, 40))
    def test_against_the_value_path_and_the_oracles(self, f, max_n, k, max_k):
        plain = lambda n: f(n)

        got = outcome(lambda: preimage_structure(f, k, max_n))
        assert got == outcome(lambda: preimage_structure(plain, k, max_n))
        if k <= max_n:
            assert outcome(lambda: preimage_tuple(preimage_structure(f, k, max_n))) == outcome(
                lambda: pointwise_preimage(plain, k, max_n)
            )

        got = outcome(lambda: membership_test(f, max_k, max_n))
        assert got == outcome(lambda: membership_test(plain, max_k, max_n))
        assert outcome(lambda: membership_tuple(membership_test(f, max_k, max_n))) == outcome(
            lambda: pointwise_membership(plain, max_k, max_n)
        )
        if got[0] == "ok" and got[1].certificate is not None:
            # read as bounded, the certificate compiles to a word equal to f on 1..max_n
            bounded = {p: ExponentFunction.bounded(fn.values)
                       for p, fn in got[1].certificate.functions.items()}
            word = compile_spec(ExponentSpec(bounded)).word
            assert eval_range(word, max_n) == pointwise_values(plain, max_n)

        got = outcome(lambda: divisibility_dict(check_divisibility_properties(f, max_n)))
        assert got == outcome(
            lambda: divisibility_dict(check_divisibility_properties(plain, max_n))
        )
        assert got == outcome(lambda: divisibility_counterexamples(pointwise_values(plain, max_n)))

    @settings(max_examples=100, deadline=None)
    @given(sorted_tables_and_max_n())
    def test_certified_exactly_on_the_member_shape(self, case):
        # beyond the box: a certificate exactly when every table on 1..max_n
        # has the member shape, and the probes of a plain callable agree
        functions, max_n = case
        spec = build_spec(functions)
        report = membership_test(spec._maps, 24, max_n)
        shape = all(map(has_member_shape, spec_tables_upto(functions, max_n).values()))
        assert (report.certificate is not None) == shape
        assert report == membership_test(lambda n: apply_spec(spec, n), 24, max_n)

    def test_no_value_is_read(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("read the map's values")

        monkeypatch.setattr(exponents, "_map_values", refuse)
        monkeypatch.setattr(exponents, "_map_residues", refuse)
        maps = [random_word(seed, seed % 15, 13, 4).as_map() for seed in range(20)]
        maps += [Word().as_map(), parse_map("gen:h:3:1", 31), CONSTANT2._maps, SQUARING._maps]
        for f in maps:
            assert membership_test(f, 24, 31).certificate is not None
            assert check_divisibility_properties(f, 31).all_hold
            for k in range(1, 32):
                assert preimage_tuple(preimage_structure(f, k, 31)) == pointwise_preimage(f, k, 31)

    def test_generator_maps_answer_at_a_trillion(self):
        big = 10**12
        got = preimage_structure(parse_map("gen:g:2:1", big), 4, big)
        assert got == PreimageStructure.progression(4, big, 2)
        assert check_divisibility_properties(parse_map("gen:h:3:1", big), big).all_hold
        report = membership_test(parse_map("gen:g:2:0", big), 24, big)
        assert not report.refuted and report.certificate is not None

    def test_certificate_holds_the_tables(self):
        report = membership_test(Word((B(2, 0),)).as_map(), 20, 200)
        # 2**7 <= 200 < 2**8; the bump sends exponent 0 to 1
        tables = {2: ExponentFunction.unbounded([1, 1, 2, 3, 4, 5, 6, 7])}
        assert report.certificate == ExponentSpec(tables)
        assert report.describe() == "no violation for any k on 1..200"
        # a certificate backs the verdict and is not part of it
        assert report == membership_test(lambda n: eval_generator(B(2, 0), n), 20, 200)

    def test_preimage_violation_from_the_tables(self):
        # 2 | f(n) from v_2(n) = 2 on: step 4 does not divide k = 2
        f = build_spec({2: ("bounded", [0, 0, 1])})._maps
        got = preimage_structure(f, 2, 64)
        assert got == PreimageStructure.violation(2, 64, 4)
        assert preimage_tuple(got) == pointwise_preimage(lambda n: f(n), 2, 64)

    def test_no_certificate_without_the_shape(self):
        # non-decreasing, but it rises again after dropping below its index
        f = build_spec({2: ("bounded", [0, 0, 1])})._maps
        report = membership_test(f, 24, 64)
        assert report.certificate is None
        assert report == membership_test(lambda n: f(n), 24, 64)
        assert membership_test(lambda n: n, 5, 50).certificate is None
