import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

import dynzeta.words as words
from dynzeta.arith import valuation
from dynzeta.cli import parse_map
from dynzeta.compiler import block_gadget, compile_spec
from dynzeta.exponents import ExponentFunction, ExponentSpec
from dynzeta.jsonio import word_from_json
from dynzeta.words import (
    Generator,
    Witness,
    Word,
    equal_upto,
    eval_generator,
    eval_range,
    eval_word,
    is_normal_shape,
    normal_form,
    random_word,
)

from oracles import (
    generator_pass_eval_range,
    per_generator_tables,
    scan_equal_upto,
)

B, C = Generator.bump, Generator.cap

gen_strategy = st.builds(
    Generator,
    kind=st.sampled_from("gh"),
    prime=st.sampled_from([2, 3, 5, 7]),
    level=st.integers(min_value=0, max_value=5),
)
word_strategy = st.builds(Word, st.lists(gen_strategy, max_size=12).map(tuple))
# primes beyond every prefix tested, and levels up to 2**9 <= max_n
wide_gen_strategy = st.builds(
    Generator,
    kind=st.sampled_from("gh"),
    prime=st.sampled_from([2, 3, 5, 7, 11, 101, 10007]),
    level=st.integers(min_value=0, max_value=9),
)
wide_word_strategy = st.builds(Word, st.lists(wide_gen_strategy, max_size=16).map(tuple))
# max_n around a prime power: p**k - 1, p**k and p**k + 1
edge_max_n = st.builds(
    lambda q, d: max(1, q + d),
    st.sampled_from(sorted({p**k for p in (2, 3, 5, 7, 11) for k in range(12) if p**k <= 2500})),
    st.sampled_from([-1, 0, 1]),
)
# two words over few generators, so equal and unequal pairs both occur
small_gen_strategy = st.builds(
    Generator,
    kind=st.sampled_from("gh"),
    prime=st.sampled_from([2, 3]),
    level=st.integers(min_value=0, max_value=3),
)
small_word_strategy = st.builds(Word, st.lists(small_gen_strategy, max_size=5).map(tuple))


def triples(word):
    return [(g.kind, g.prime, g.level) for g in word]


def map_key(gens, primes, top):
    """The word's exponent tables on v = 0..top for each of primes, by the
    per-generator reference: with every level below top - 1, they fix its
    map, tails included."""
    tables = per_generator_tables(gens, 1, {p: list(range(top + 1)) for p in primes})
    return tuple(tuple(tables[p]) for p in primes)


class TestGenerator:
    def test_bump_fires_on_matching_valuation(self):
        assert eval_generator(B(2, 0), 3) == 6

    def test_bump_identity_on_mismatch(self):
        assert eval_generator(B(2, 0), 4) == 4

    def test_cap_reduces_p_part(self):
        assert eval_generator(C(2, 1), 8) == 2

    def test_cap_identity_below_level(self):
        assert eval_generator(C(3, 2), 5) == 5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Generator("x", 2, 0)
        with pytest.raises(ValueError):
            B(4, 0)
        with pytest.raises(ValueError):
            C(2, -1)
        with pytest.raises(ValueError):
            eval_generator(B(2, 0), 0)

    @pytest.mark.parametrize(
        "kind, prime, level, message",
        [
            ("g", 2, 1.5, "level must be an integer, got 1.5"),
            ("g", 2.0, 1, "prime must be an integer, got 2.0"),
            ("h", True, 1, "prime must be an integer, got True"),
            ("h", 3, False, "level must be an integer, got False"),
        ],
    )
    def test_rejects_non_integer_fields(self, kind, prime, level, message):
        with pytest.raises(ValueError) as err:
            Generator(kind, prime, level)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "gens, message",
        [
            ((1, 2), "word entry 0 is 1, not a Generator"),
            ([Generator.bump(2, 0), ("h", 3, 1)], "word entry 1 is ('h', 3, 1), not a Generator"),
        ],
    )
    def test_words_reject_entries_that_are_not_generators(self, gens, message):
        # such a word failed later, in eval_word, with AttributeError
        with pytest.raises(ValueError) as err:
            Word(gens)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "build, p",
        [
            (lambda: B(4, 0), 4),
            (lambda: Generator("h", 9, 1), 9),
            (lambda: block_gadget(1, 0, 2), 1),
            (lambda: word_from_json({"gens": [{"kind": "g", "p": 15, "t": 0}]}), 15),
            (lambda: parse_map("gen:h:6:1", 10), 6),
        ],
    )
    def test_public_construction_rejects_composites(self, build, p):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"{p} is not prime"

    def test_internal_rebuilds_check_each_distinct_generator_once(self, monkeypatch):
        calls = []
        real = words.is_prime
        monkeypatch.setattr(words, "is_prime", lambda p: calls.append(p) or real(p))
        words._generator.cache_clear()
        word = random_word(7, 40, 13, 4)
        nf = normal_form(word)
        spec = ExponentSpec(
            {2: ExponentFunction.bounded([1, 3, 3]), 5: ExponentFunction.unbounded([2, 2, 4])}
        )
        compiled = compile_spec(spec).word
        distinct = {(g.kind, g.prime, g.level) for w in (word, nf, compiled) for g in w}
        assert sorted(calls) == sorted(p for _, p, _ in distinct)
        calls.clear()
        assert normal_form(word) == nf and compile_spec(spec).word == compiled
        assert calls == []  # rebuilt from the shared, already checked generators
        for w in (word, nf, compiled):
            assert w == Word(tuple(Generator(g.kind, g.prime, g.level) for g in w.gens))
        assert calls  # public construction checks every time

    def test_internal_constructor_is_checked_and_bounded(self):
        with pytest.raises(ValueError) as err:
            words._generator("g", 4, 0)
        assert str(err.value) == "4 is not prime"
        maxsize = words._generator.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0
        assert words._generator("h", 3, 2) is words._generator("h", 3, 2)

    @given(gen_strategy, st.integers(min_value=1, max_value=50000))
    def test_valuation_postconditions(self, gen, n):
        result = eval_generator(gen, n)
        if gen.kind == "h":
            assert valuation(gen.prime, result) == min(gen.level, valuation(gen.prime, n))
        else:
            assert valuation(gen.prime, result) != gen.level


class TestEvalWord:
    def test_empty_word_is_identity(self):
        for n in (1, 7, 10**12):
            assert eval_word(Word(), n) == n

    def test_doubling_word(self):
        # highest level first: each n below 2**3 meets exactly its own level
        word = Word((B(2, 2), B(2, 1), B(2, 0)))
        assert eval_word(word, 5) == 10
        assert [eval_word(word, n) for n in range(1, 8)] == [2 * n for n in range(1, 8)]
        assert eval_word(word, 8) == 8

    def test_constant_word(self):
        word = Word((B(2, 0), C(2, 1), C(3, 0), C(5, 0)))
        assert eval_word(word, 6) == 2
        assert all(eval_word(word, n) == 2 for n in range(1, 7))

    @given(word_strategy, st.integers(min_value=1, max_value=64))
    def test_eval_range_matches_pointwise_eval(self, word, max_n):
        assert eval_range(word, max_n) == [eval_word(word, n) for n in range(1, max_n + 1)]

    @settings(max_examples=300)
    @given(wide_word_strategy, st.one_of(edge_max_n, st.integers(min_value=1, max_value=3000)))
    def test_eval_range_matches_generator_passes(self, word, max_n):
        assert eval_range(word, max_n) == generator_pass_eval_range(triples(word), max_n)

    def test_eval_range_edges(self):
        words = [
            Word((B(10007, 0),)),  # prime above max_n, bump at level 0: every n moves
            Word((B(10007, 0), C(10007, 0), B(2, 0))),
            Word((C(2, 0), B(3, 0), B(3, 1), C(3, 1))),  # caps divide, bumps multiply
            Word((B(2, 3), C(2, 5), B(5, 0), B(5, 1))),
            Word(),
        ]
        for word in words:
            for max_n in (1, 2, 3, 4, 7, 8, 9, 24, 25, 26, 1023, 1024, 1025):
                assert eval_range(word, max_n) == generator_pass_eval_range(
                    triples(word), max_n
                ), (word, max_n)

    def test_eval_range_rejects_empty_range(self):
        with pytest.raises(ValueError):
            eval_range(Word((B(2, 0),)), 0)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: eval_word(Word((B(2, 0),)), 0), "words act on n >= 1, got 0"),
            (lambda: equal_upto(Word(), Word(), 0), "max_n must be >= 1"),
        ],
    )
    def test_rejects_n_below_one(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "call, message",
        [
            # a float or a bool was read as the number it stands for:
            # equal_upto(w, w, 2.5) agreed on "1..2.5", eval_range(w, True)
            # gave [2], and eval_word and a table map's point rule gave floats;
            # a float range or length raised TypeError
            (lambda: equal_upto(Word(), Word(), 2.5), "max_n must be an integer, got 2.5"),
            (lambda: eval_range(Word((B(2, 0),)), True), "max_n must be an integer, got True"),
            (lambda: eval_range(Word((B(2, 0),)), 3.5), "max_n must be an integer, got 3.5"),
            (lambda: eval_word(Word((B(2, 0),)), 2.0), "n must be an integer, got 2.0"),
            (lambda: eval_generator(B(2, 0), 2.0), "n must be an integer, got 2.0"),
            (lambda: Word((B(2, 0),)).as_map()(2.0), "n must be an integer, got 2.0"),
            (lambda: random_word(1, 2.5, 5, 2), "length must be an integer, got 2.5"),
            (lambda: random_word(1, 2, 5.0, 2), "max_prime must be an integer, got 5.0"),
            (lambda: random_word(1, 2, 5, True), "max_level must be an integer, got True"),
            (lambda: random_word(1.5, 2, 5, 2), "seed must be an integer, got 1.5"),
        ],
    )
    def test_rejects_non_integer_arguments(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


class TestPrimeMapTables:
    # a word's tables are folded from its generators; the reference
    # rewrites them one generator at a time
    @given(wide_word_strategy, st.one_of(st.sampled_from([1, 10**12, 10**30]), edge_max_n))
    @example(Word((B(2, 0), B(2, 1), C(2, 1), B(10007, 0), C(3, 5))), 1)
    @settings(max_examples=300, deadline=None)
    def test_from_word_matches_per_generator_rewrite(self, word, max_n):
        tables = word._maps.cut(max_n)
        assert tables == per_generator_tables(triples(word), max_n)

    @given(wide_word_strategy, st.integers(min_value=0, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_tabulate_matches_per_generator_rewrite(self, word, max_level):
        primes = sorted(word.primes() | {2, 13})
        expected = per_generator_tables(
            triples(word), 1, {p: list(range(max_level + 1)) for p in primes}
        )
        maps = word._maps
        assert {p: maps.read(p, max_level + 1) for p in primes} == expected


class TestPartsCache:
    # Word._maps folds a word into its per-prime tables once; normal_form
    # seeds the form with them, which must read as the form's own fold

    @given(wide_word_strategy)
    @settings(max_examples=200, deadline=None)
    def test_cache_is_the_fold(self, word):
        reduced = normal_form(word)
        assert "_maps" in vars(reduced) and reduced._maps is word._maps
        fold = Word(reduced.gens)._maps
        for p in word.primes() | reduced.primes():
            assert reduced._maps.read(p, 12) == fold.read(p, 12)  # levels are <= 9

    def test_each_word_is_folded_once(self, monkeypatch):
        calls = []
        fold = words._fold
        monkeypatch.setattr(words, "_fold",
                            lambda gens, identity: calls.append(gens) or fold(gens, identity))
        word = Word((B(2, 0), C(2, 1), B(3, 2), C(2, 0)))
        for max_n in (10, 100, 1000):
            eval_range(word, max_n)
            equal_upto(word, word, max_n)
            equal_upto(word, normal_form(word), max_n)
        assert calls == [triples(word)]

    def test_cache_is_not_a_field(self):
        word, twin = Word((B(2, 0), C(3, 1))), Word((B(2, 0), C(3, 1)))
        assert word._maps == words._PrimeMaps({2: ([1, 1, 2], 1), 3: ([0, 1, 1], 0)})
        assert "_maps" not in vars(twin)
        assert word == twin and hash(word) == hash(twin)
        assert repr(word) == repr(twin) == "Word[g(2,0) h(3,1)]"


class TestEqualUpto:
    def test_word_equals_itself(self):
        word = random_word(3, 9, 7, 4)
        assert equal_upto(word, word, 500) is None

    def test_same_prime_bumps_do_not_commute(self):
        witness = equal_upto(Word((B(2, 0), B(2, 1))), Word((B(2, 1), B(2, 0))), 4)
        assert witness == Witness(1, 4, 2)

    def test_cap_bump_exchange_relation(self):
        assert equal_upto(Word((C(2, 0), B(2, 0))), Word((B(2, 0), C(2, 1))), 10000) is None

    @settings(max_examples=300)
    @given(small_word_strategy, small_word_strategy, st.one_of(edge_max_n, st.integers(1, 600)))
    def test_witness_matches_scan(self, w1, w2, max_n):
        witness = equal_upto(w1, w2, max_n)
        expected = scan_equal_upto(triples(w1), triples(w2), max_n)
        assert (None if witness is None else (witness.n, witness.left, witness.right)) == expected

    @given(wide_word_strategy, wide_word_strategy, st.integers(1, 1500))
    def test_witness_matches_scan_on_wide_words(self, w1, w2, max_n):
        witness = equal_upto(w1, w2, max_n)
        expected = scan_equal_upto(triples(w1), triples(w2), max_n)
        assert (None if witness is None else (witness.n, witness.left, witness.right)) == expected

    def test_empty_words(self):
        assert equal_upto(Word(), Word(), 1) is None
        assert equal_upto(Word(), Word((C(2, 3),)), 7) is None
        assert equal_upto(Word(), Word((C(2, 3),)), 16) == Witness(16, 16, 8)
        assert equal_upto(Word((B(10007, 0),)), Word(), 1) == Witness(1, 10007, 1)

    def test_witness_at_one(self):
        assert equal_upto(Word((B(3, 0),)), Word((B(2, 0),)), 1) == Witness(1, 3, 2)
        assert equal_upto(Word((C(2, 0),)), Word((B(5, 1),)), 1) is None
        assert equal_upto(Word((C(2, 0),)), Word((B(5, 1),)), 2) == Witness(2, 1, 2)

    def test_huge_prefix_gives_the_small_prefix_witness(self):
        w1 = Word((B(2, 2), B(3, 1), C(5, 2)))
        w2 = Word((B(3, 1), C(5, 2), B(2, 3)))
        assert equal_upto(w1, w2, 10**18) == equal_upto(w1, w2, 100) == Witness(4, 8, 4)
        word = random_word(3, 9, 7, 4)
        assert equal_upto(word, normal_form(word), 10**18) is None

    def test_huge_prefix_finds_a_witness_beyond_any_range(self):
        far = Word((B(2, 40),))
        assert equal_upto(far, Word(), 2**40 - 1) is None
        assert equal_upto(far, Word(), 10**18) == Witness(2**40, 2**41, 2**40)


class TestCommutationRelations:
    """Exhaustive at small scale; the full sweep runs in the acceptance suite."""

    PRIMES = (2, 3)
    LEVELS = (0, 1, 2)
    MAX_N = 500

    def commutes(self, x, y):
        return equal_upto(Word((x, y)), Word((y, x)), self.MAX_N) is None

    def test_bump_and_cap_commute_across_primes(self):
        for t1, t2 in itertools.product(self.LEVELS, repeat=2):
            assert self.commutes(B(2, t1), C(3, t2))
            assert self.commutes(B(3, t1), C(2, t2))

    def test_bump_and_cap_commute_same_prime_distinct_levels(self):
        for p in self.PRIMES:
            for t1, t2 in itertools.product(self.LEVELS, repeat=2):
                if t1 != t2:
                    assert self.commutes(B(p, t1), C(p, t2))

    def test_bumps_commute_across_primes(self):
        for t1, t2 in itertools.product(self.LEVELS, repeat=2):
            assert self.commutes(B(2, t1), B(3, t2))

    def test_caps_commute(self):
        for p1, p2 in itertools.product(self.PRIMES, repeat=2):
            for t1, t2 in itertools.product(self.LEVELS, repeat=2):
                assert self.commutes(C(p1, t1), C(p2, t2))

    def test_same_level_exchange(self):
        for p in self.PRIMES:
            for t in self.LEVELS:
                left = Word((B(p, t), C(p, t + 1)))
                right = Word((C(p, t), B(p, t)))
                assert equal_upto(left, right, self.MAX_N) is None

    def test_same_prime_same_level_do_not_commute(self):
        assert not self.commutes(B(2, 0), C(2, 0))


class TestNormalForm:
    def test_cap_moves_past_matching_bump_with_level_raise(self):
        assert normal_form(Word((C(2, 0), B(2, 0)))).gens == (B(2, 0), C(2, 1))

    def test_distinct_primes_swap_freely(self):
        assert normal_form(Word((C(3, 1), B(2, 4)))).gens == (B(2, 4), C(3, 1))

    def test_caps_collapse_to_minimum_level(self):
        assert normal_form(Word((C(2, 3), C(2, 1)))).gens == (C(2, 1),)

    def test_collapse_rule_verified_by_evaluation(self):
        for t1, t2 in itertools.product(range(4), repeat=2):
            pair = Word((C(2, t1), C(2, t2)))
            single = Word((C(2, min(t1, t2)),))
            assert equal_upto(pair, single, 10000) is None

    def test_empty_word(self):
        assert normal_form(Word()).gens == ()
        assert is_normal_shape(Word())

    def test_bump_relative_order_per_prime_is_preserved(self):
        word = Word((B(3, 2), B(2, 1), B(3, 0), B(2, 0)))
        assert normal_form(word).gens == (B(2, 1), B(2, 0), B(3, 2), B(3, 0))

    def test_shape_predicate(self):
        assert is_normal_shape(Word((B(2, 0), B(3, 1), C(2, 1), C(5, 0))))
        assert not is_normal_shape(Word((C(2, 1), B(2, 0))))
        assert not is_normal_shape(Word((B(3, 0), B(2, 0))))
        assert not is_normal_shape(Word((C(2, 1), C(2, 2))))

    def test_normal_form_preserves_semantics_sample(self):
        for seed in range(100):
            word = random_word(seed, seed % 21, 7, 5)
            reduced = normal_form(word)
            assert is_normal_shape(reduced)
            assert equal_upto(word, reduced, 2000) is None

    def test_normal_form_is_idempotent(self):
        for seed in range(40):
            word = random_word(seed, 12, 7, 5)
            once = normal_form(word)
            assert normal_form(once) == once

    def test_normal_form_matches_single_swap_rewriting(self):
        # the single-swap rewriting keeps the map; the canonical form has the
        # same map and is never longer
        from oracles import naive_normal_form

        for seed in range(300):
            word = random_word(seed, seed % 16, 7, 5)
            rewritten = naive_normal_form(triples(word))
            got = normal_form(word)
            assert map_key(triples(got), (2, 3, 5, 7), 7) == map_key(rewritten, (2, 3, 5, 7), 7)
            assert len(got) <= len(rewritten), (seed, word)

    def test_map_equal_words_share_one_form(self):
        # the bump at or above its prime's cap level is erased by the cap
        left, right = Word((B(3, 2), C(3, 0), C(5, 1))), Word((C(3, 0), C(5, 1)))
        assert equal_upto(left, right, 10**30) is None
        assert normal_form(left) == normal_form(right) == right

    def test_forms_are_canonical_in_the_box(self):
        # every word of length <= 3 over g/h, primes {2, 3} and levels <= 2:
        # forms are identical exactly when the maps are, which the tables on
        # v <= 4 (one past every table's tail) decide
        gens = [(k, p, t) for k in "gh" for p in (2, 3) for t in range(3)]
        forms: dict[tuple, set] = {}
        count = 0
        for length in range(4):
            for word in itertools.product(gens, repeat=length):
                form = normal_form(Word(tuple(Generator(*g) for g in word)))
                forms.setdefault(map_key(word, (2, 3), 4), set()).add(form)
                count += 1
        assert count == 1885 and len(forms) == 193
        assert all(len(group) == 1 for group in forms.values())
        assert len({form for group in forms.values() for form in group}) == len(forms)

    @given(wide_word_strategy)
    @settings(max_examples=300, deadline=None)
    def test_forms_match_the_canonical_reference(self, word):
        from oracles import naive_canonical_form

        assert triples(normal_form(word)) == naive_canonical_form(triples(word))

    @given(small_word_strategy, small_word_strategy)
    @settings(max_examples=300, deadline=None)
    def test_forms_decide_equality(self, w1, w2):
        same = map_key(triples(w1), (2, 3), 5) == map_key(triples(w2), (2, 3), 5)
        assert (normal_form(w1) == normal_form(w2)) == same

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_forms_decide_equality_on_wide_words(self, data):
        # a reordering of a word's generators is often, not always, the same
        # map: generators of distinct primes commute, most of one prime not
        word = data.draw(wide_word_strategy)
        other = Word(tuple(data.draw(st.permutations(word.gens))))
        primes = tuple(sorted(word.primes()))
        same = map_key(triples(word), primes, 11) == map_key(triples(other), primes, 11)
        assert (normal_form(word) == normal_form(other)) == same

    def test_forms_are_shortest(self):
        # every word of length <= 5 on prime 2 with levels <= 3: no word with
        # the same map is shorter than its normal form
        gens = [(k, 2, t) for k in "gh" for t in range(4)]
        shortest: dict[tuple, int] = {}
        count = 0
        for length in range(6):
            for word in itertools.product(gens, repeat=length):
                shortest.setdefault(map_key(word, (2,), 5), length)
                count += 1
        assert count == 37449
        for length in range(6):
            for word in itertools.product(gens, repeat=length):
                form = normal_form(Word(tuple(Generator(*g) for g in word)))
                assert len(form) <= shortest[map_key(word, (2,), 5)], word


class TestRandomWord:
    def test_zero_length(self):
        assert random_word(1, 0, 7, 5).gens == ()

    def test_deterministic_for_fixed_seed(self):
        assert random_word(42, 20, 7, 5) == random_word(42, 20, 7, 5)
        assert random_word(42, 20, 7, 5) != random_word(43, 20, 7, 5)

    def test_respects_bounds(self):
        word = random_word(9, 20, 7, 5)
        assert len(word) == 20
        assert all(g.prime <= 7 and 0 <= g.level <= 5 for g in word)
