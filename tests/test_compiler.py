import random

import pytest
from hypothesis import given, settings, strategies as st

from dynzeta.compiler import (
    CompileResult,
    InvalidSpecError,
    Mismatch,
    block_gadget,
    compile_spec,
    verify_compile,
)
from dynzeta.exponents import ExponentFunction, ExponentSpec, TableRangeError, apply_spec
from dynzeta.sequences import check_realizable
from dynzeta.series import FixSource, time_change_fix
from dynzeta.words import Generator, Word, eval_word, is_normal_shape, normal_form

from oracles import (
    block_compile,
    pointwise_verify_compile,
    random_orbit_counts,
    random_valid_spec_tables,
)

B, C = Generator.bump, Generator.cap


def build_spec(tables):
    return ExponentSpec(
        {p: ExponentFunction(shape, tuple(values)) for p, (shape, values) in tables.items()}
    )


DOUBLING = build_spec({2: ("unbounded", [1, 2, 3])})
CONSTANT2 = build_spec({2: ("bounded", [1]), 3: ("bounded", [0]), 5: ("bounded", [0])})


@pytest.mark.parametrize(
    "call, message",
    [
        # verify_compile on "1..2.5" or "1..True" answered None, admits(2.5)
        # answered True, and a float level raised TypeError
        (lambda: verify_compile(compile_spec(DOUBLING), DOUBLING, 2.5),
         "max_n must be an integer, got 2.5"),
        (lambda: verify_compile(compile_spec(DOUBLING), DOUBLING, True),
         "max_n must be an integer, got True"),
        (lambda: CompileResult(Word(), {2: 1}).admits(2.5), "n must be an integer, got 2.5"),
        (lambda: block_gadget(2, 0.5, 2), "level must be an integer, got 0.5"),
        (lambda: block_gadget(2.0, 0, 2), "prime must be an integer, got 2.0"),
        (lambda: block_gadget(2, 0, True), "target must be an integer, got True"),
    ],
)
def test_argument_errors(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestBlockGadget:
    def test_single_step(self):
        assert block_gadget(2, 1, 2).gens == (B(2, 1),)

    def test_empty_when_target_equals_level(self):
        assert block_gadget(5, 3, 3).gens == ()

    def test_two_steps_ascending_levels(self):
        assert block_gadget(2, 2, 4).gens == (B(2, 2), B(2, 3))

    def test_rejects_shrinking_target(self):
        with pytest.raises(ValueError):
            block_gadget(2, 3, 1)

    def test_multiplies_by_the_gap_exactly_on_its_level(self):
        word = block_gadget(3, 1, 4)
        assert eval_word(word, 3) == 3 * 3**3  # valuation 1 raised to 4
        assert eval_word(word, 1) == 1  # valuation 0 untouched
        assert eval_word(word, 81) == 81  # valuation 4 untouched


class TestCompile:
    def test_doubling_blocks_descend(self):
        result = compile_spec(DOUBLING)
        assert result.word.gens == (B(2, 2), B(2, 1), B(2, 0))
        assert result.agreement == {2: 2}
        assert [eval_word(result.word, n) for n in range(1, 8)] == [2 * n for n in range(1, 8)]

    def test_constant_two_word(self):
        result = compile_spec(CONSTANT2)
        assert result.word.gens == (B(2, 0), C(2, 1), C(3, 0), C(5, 0))
        assert result.agreement == {}
        assert all(eval_word(result.word, n) == 2 for n in range(1, 7))

    def test_identity_spec_compiles_to_empty_word(self):
        result = compile_spec(ExponentSpec({}))
        assert result.word.gens == ()
        assert result.agreement == {}
        assert result.admits(10**9)

    def test_rejects_invalid_spec(self):
        with pytest.raises(InvalidSpecError):
            compile_spec(build_spec({2: ("unbounded", [0, 0, 2])}))

    def test_word_mentions_only_spec_primes(self):
        spec = build_spec({3: ("unbounded", [0, 2]), 7: ("bounded", [1])})
        result = compile_spec(spec)
        assert {g.prime for g in result.word.gens} <= {3, 7}

    def test_caps_come_after_all_bumps(self):
        spec = build_spec(
            {2: ("bounded", [1, 2]), 3: ("unbounded", [0, 1, 3]), 5: ("bounded", [0])}
        )
        result = compile_spec(spec)
        assert is_normal_shape(result.word)


class TestVerify:
    def test_doubling_verifies_everywhere_admitted(self):
        assert verify_compile(compile_spec(DOUBLING), DOUBLING, 10000) is None

    def test_constant_two_verifies(self):
        assert verify_compile(compile_spec(CONSTANT2), CONSTANT2, 5000) is None

    def test_tampered_word_yields_smallest_defect(self):
        result = compile_spec(DOUBLING)
        tampered = CompileResult(Word(result.word.gens[:-1]), result.agreement)
        mismatch = verify_compile(tampered, DOUBLING, 100)
        assert mismatch is not None
        assert mismatch.n == 1  # dropping bump(2, 0) breaks odd n first
        assert (mismatch.got, mismatch.expected) == (1, 2)

    def test_table_range_error_at_first_admitted_exponent_beyond_the_table(self):
        result = compile_spec(DOUBLING)
        dropped = CompileResult(result.word, {})
        assert verify_compile(dropped, DOUBLING, 7) is None
        with pytest.raises(TableRangeError, match=r"covers exponents 0\.\.2, asked for 3"):
            verify_compile(dropped, DOUBLING, 8)

    def test_mismatch_before_the_table_range_error_wins(self):
        result = compile_spec(DOUBLING)
        tampered = CompileResult(Word(result.word.gens[:-1]), {})
        assert verify_compile(tampered, DOUBLING, 10**6) == Mismatch(1, 1, 2)

    def test_rejects_empty_prefix(self):
        with pytest.raises(ValueError, match=r"^max_n must be >= 1$"):
            verify_compile(compile_spec(DOUBLING), DOUBLING, 0)

    def test_rejects_composite_agreement_key(self):
        result = compile_spec(DOUBLING)
        with pytest.raises(ValueError, match="4 is not prime"):
            verify_compile(CompileResult(result.word, {4: 1}), DOUBLING, 100)

    def test_huge_prefix(self):
        spec = build_spec({2: ("bounded", [1, 3, 3]), 3: ("unbounded", [0, 2, 2, 3])})
        result = compile_spec(spec)
        assert verify_compile(result, spec, 10**30) is None
        tampered = CompileResult(result.word, {2: 3, 3: 3, 5: 1})
        assert verify_compile(tampered, spec, 10**30) is None


class TestAdmits:
    def test_divisibility_matches_valuations(self):
        result = CompileResult(Word(), {2: 2, 3: 0, 7: 1})
        for n in range(1, 3000):
            expected = n % 8 != 0 and n % 3 != 0 and n % 49 != 0
            assert result.admits(n) is expected

    def test_rejects_non_positive(self):
        for agreement in ({}, {2: 1}):
            with pytest.raises(ValueError):
                CompileResult(Word(), agreement).admits(0)

    def test_negative_bound_admits_nothing(self):
        result = CompileResult(Word((B(3, 0),)), {2: -1, 3: 5})
        assert not any(result.admits(n) for n in range(1, 50))
        assert verify_compile(result, DOUBLING, 1000) is None


def tamper(rng, result, primes):
    """A copy of a compile result with one generator dropped, inserted or
    mutated, or one agreement entry dropped, widened or added."""
    gens = list(result.word.gens)
    agreement = dict(result.agreement)
    choice = rng.randrange(6)
    if choice == 0 and gens:
        del gens[rng.randrange(len(gens))]
    elif choice == 1:
        gen = Generator(rng.choice("gh"), rng.choice(primes), rng.randint(0, 5))
        gens.insert(rng.randint(0, len(gens)), gen)
    elif choice == 2 and gens:
        i = rng.randrange(len(gens))
        old = gens[i]
        gens[i] = rng.choice((
            Generator(old.kind, old.prime, old.level + rng.choice((-1, 1)) if old.level else 1),
            Generator("h" if old.kind == "g" else "g", old.prime, old.level),
            Generator(old.kind, rng.choice(primes), old.level),
        ))
    elif choice == 3 and agreement:
        del agreement[rng.choice(sorted(agreement))]
    elif choice == 4 and agreement:
        p = rng.choice(sorted(agreement))
        agreement[p] += rng.randint(1, 3)
    else:
        agreement[rng.choice(primes)] = rng.randint(0, 4)
    return CompileResult(Word(tuple(gens)), agreement)


def verify_outcome(result, spec, max_n):
    try:
        mismatch = verify_compile(result, spec, max_n)
    except TableRangeError as err:
        return ("table-range", str(err))
    return None if mismatch is None else ("mismatch", mismatch.n, mismatch.got, mismatch.expected)


class TestVerifyAgainstPointwise:
    PRIMES = (2, 3, 5, 7)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 1200), st.integers(1, 3))
    def test_tampered_results(self, seed, max_n, rounds):
        rng = random.Random(seed)
        tables = random_valid_spec_tables(rng, self.PRIMES)
        spec = build_spec(tables)
        result = compile_spec(spec)
        for _ in range(rounds):
            result = tamper(rng, result, self.PRIMES)
        triples = [(g.kind, g.prime, g.level) for g in result.word]
        expected = pointwise_verify_compile(triples, result.agreement, tables, max_n)
        assert verify_outcome(result, spec, max_n) == expected

    def test_every_tampering_kind_is_caught_somewhere(self):
        rng = random.Random(404)
        kinds = set()
        for _ in range(300):
            tables = random_valid_spec_tables(rng, self.PRIMES)
            spec = build_spec(tables)
            result = tamper(rng, compile_spec(spec), self.PRIMES)
            triples = [(g.kind, g.prime, g.level) for g in result.word]
            expected = pointwise_verify_compile(triples, result.agreement, tables, 800)
            got = verify_outcome(result, spec, 800)
            assert got == expected
            kinds.add(None if got is None else got[0])
        assert kinds == {None, "mismatch", "table-range"}


class TestBlockOrderRegression:
    """Pinned: with targets (0, 3, 5) on one prime, ascending block
    application lets the level-1 block push n = 2 into the level-2 block's
    range and overshoot; descending application is exact."""

    SPEC = build_spec({2: ("unbounded", [0, 3, 5])})

    def test_descending_is_exact_at_2(self):
        result = compile_spec(self.SPEC)
        assert eval_word(result.word, 2) == 8 == apply_spec(self.SPEC, 2)
        assert verify_compile(result, self.SPEC, 4000) is None

    def test_ascending_overshoots_at_2(self):
        ascending = Word(
            block_gadget(2, 0, 0).gens
            + block_gadget(2, 1, 3).gens
            + block_gadget(2, 2, 5).gens
        )
        assert eval_word(ascending, 2) == 32


class TestBoundedCapPlacement:
    """The cap for a bounded prime sits after the bumps, at the eventual
    value. Capping at the stabilization index instead destroys exponents the
    bumps just raised."""

    SINGLE = build_spec({2: ("bounded", [1])})

    def test_cap_at_eventual_value_is_exact(self):
        result = compile_spec(self.SINGLE)
        assert result.word.gens == (B(2, 0), C(2, 1))
        assert verify_compile(result, self.SINGLE, 2000) is None

    def test_cap_at_stabilization_index_after_bumps_fails(self):
        broken = Word((B(2, 0), C(2, 0)))
        assert eval_word(broken, 1) == 1 != apply_spec(self.SINGLE, 1)

    def test_cap_at_stabilization_index_before_bumps_also_works(self):
        alternative = Word((C(2, 0), B(2, 0)))
        assert all(
            eval_word(alternative, n) == apply_spec(self.SINGLE, n) for n in range(1, 2001)
        )

    def test_exactness_between_stabilization_and_eventual_value(self):
        # targets (0, 5, 5): exponents 2, 3, 4 lie strictly between
        spec = build_spec({2: ("bounded", [0, 5, 5])})
        result = compile_spec(spec)
        for v in range(0, 9):
            n = 3 * 2**v
            assert eval_word(result.word, n) == apply_spec(spec, n)


class TestSoundnessSweep:
    def test_random_valid_specs_verify(self):
        rng = random.Random(101)
        for _ in range(500):
            spec = build_spec(random_valid_spec_tables(rng, (2, 3, 5, 7)))
            result = compile_spec(spec)
            assert verify_compile(result, spec, 5000) is None

    def test_compiled_words_are_normal_forms(self):
        rng = random.Random(303)
        for _ in range(300):
            spec = build_spec(random_valid_spec_tables(rng, (2, 3, 5, 7, 11)))
            word = compile_spec(spec).word
            assert normal_form(word) == word
            assert is_normal_shape(word)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32))
    def test_no_longer_than_the_per_index_blocks(self, seed):
        # the per-index blocks realize the spec too; the compiled word has
        # one run per value the table reaches, and is never longer
        tables = random_valid_spec_tables(random.Random(seed), (2, 3, 5, 7), max_len=6)
        result = compile_spec(build_spec(tables))
        gens = [(g.kind, g.prime, g.level) for g in result.word]
        blocks = block_compile(tables)
        for word in (gens, blocks):
            assert pointwise_verify_compile(word, result.agreement, tables, 500) is None
        assert len(gens) <= len(blocks)
        assert normal_form(result.word) == result.word

    def test_a_repeated_value_shares_one_run(self):
        spec = build_spec({2: ("unbounded", [2, 2]), 3: ("bounded", [1, 3, 3, 4])})
        assert compile_spec(spec).word.gens == (
            B(2, 0), B(2, 1), B(3, 3), B(3, 1), B(3, 2), B(3, 0), C(3, 4)
        )
        assert len(block_compile({2: ("unbounded", [2, 2]), 3: ("bounded", [1, 3, 3, 4])})) == 9

    def test_normalized_compiled_words_still_verify(self):
        rng = random.Random(202)
        for _ in range(60):
            spec = build_spec(random_valid_spec_tables(rng, (2, 3, 5, 7)))
            result = compile_spec(spec)
            reduced = CompileResult(normal_form(result.word), result.agreement)
            assert verify_compile(reduced, spec, 2000) is None


class TestMembershipPreservation:
    def test_time_changed_counts_stay_realizable(self):
        rng = random.Random(303)
        for _ in range(60):
            source = FixSource.from_orbit_counts(random_orbit_counts(rng, 64))
            spec = build_spec(random_valid_spec_tables(rng, (2, 3, 5)))
            word = compile_spec(spec).word
            moved = time_change_fix(lambda n: eval_word(word, n), source, 64)
            assert check_realizable(moved).passed
