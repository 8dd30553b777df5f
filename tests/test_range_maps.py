"""Word, spec and generator maps take their values on 1..max_n in one pass.

Every consumer of a map (membership probes, preimage structure, the
divisibility laws, time-changed counts) is checked against the per-n
reference in oracles.py, on the same map as a range map and as a plain
callable, including the errors and the order in which they surface. The
power maps' residue paths are checked against their full values, and the
packed membership probes, with their prefix pass, against the per-probe
loop, report for report and byte for byte on the CLI.
"""

import json
import random
from math import lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dynzeta.exponents as exponents
from dynzeta.cli import main, parse_map
from dynzeta.compiler import compile_spec
from dynzeta.exponents import (
    ExponentFunction,
    ExponentSpec,
    MembershipReport,
    MembershipWitness,
    PreimageStructure,
    TableRangeError,
    _LANES,
    _PREFIX,
    apply_spec,
    check_divisibility_properties,
    membership_test,
    preimage_structure,
)
from dynzeta.sequences import RealizabilityVerdict
from dynzeta.series import FixSource, SourceRangeError, time_change_fix
from dynzeta.words import (
    Generator,
    Word,
    _map_residues,
    _map_values,
    _PrimeMaps,
    _ResidueMap,
    eval_word,
    random_word,
)

from oracles import (
    MAP_VALUE,
    divisibility_counterexamples,
    per_probe_membership,
    pointwise_membership,
    pointwise_preimage,
    pointwise_time_change_fix,
    pointwise_values,
    random_valid_spec_tables,
)

B, C = Generator.bump, Generator.cap
PRIMES = (2, 3, 5, 7, 11, 13)
SPEC_DIR = Path(__file__).resolve().parent.parent / "demos" / "specs"


def build_spec(tables):
    return ExponentSpec(
        {p: ExponentFunction(shape, tuple(values)) for p, (shape, values) in tables.items()}
    )


def outcome(thunk):
    """("ok", result) or ("raised", exception class, message)."""
    try:
        return "ok", thunk()
    except ValueError as err:
        return "raised", type(err), str(err)


def prefix_then_error(values):
    """The values an iterator yields before it raises, and what it raised."""
    out = []
    try:
        for v in values:
            out.append(v)
    except ValueError as err:
        return out, (type(err), str(err))
    return out, None


def pointwise_prefix(f, max_n):
    out = []
    for n in range(1, max_n + 1):
        try:
            out.append(f(n))
        except ValueError as err:
            return out, (type(err), str(err))
    return out, None


def membership_tuple(report):
    w = report.witness
    if w is None:
        return None
    return w.k, w.verdict.failure, w.verdict.index, w.verdict.value


def preimage_tuple(s):
    return s.outcome, s.step, s.witness


def divisibility_dict(report):
    return {
        "divides": report.divides.counterexample,
        "coprime_lcm": report.coprime_lcm.counterexample,
        "prime_support": report.prime_support.counterexample,
    }


def random_spec(rng, primes=PRIMES, **kw):
    return build_spec(random_valid_spec_tables(rng, primes, **kw))


def random_range_maps(seed):
    """A random word, a compiled word, a generator map and a spec map."""
    rng = random.Random(seed)
    word = random_word(seed, rng.randint(0, 14), 13, 4)
    compiled = compile_spec(random_spec(rng, max_len=6)).word
    gen = Generator(rng.choice("gh"), rng.choice(PRIMES), rng.randint(0, 4))
    spec = random_spec(rng, primes=(*PRIMES, 10007), max_len=6, unbounded_min_len=10)
    return {
        "word": word.as_map(),
        "compiled": compiled.as_map(),
        "gen": Word((gen,)).as_map(),
        "spec": spec._maps,
    }


class TestRangeValues:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 700))
    def test_range_path_matches_pointwise(self, seed, max_n):
        for name, f in random_range_maps(seed).items():
            assert list(_map_values(f, max_n)) == [f(n) for n in range(1, max_n + 1)], name

    @given(st.integers(0, 10**6), st.integers(0, 14), st.integers(1, 400))
    def test_word_map_is_eval_word(self, seed, length, max_n):
        word = random_word(seed, length, 13, 4)
        assert list(_map_values(word.as_map(), max_n)) == [
            eval_word(word, n) for n in range(1, max_n + 1)
        ]

    def test_parsed_generator_map(self):
        for text, gen in [("gen:h:3:2", C(3, 2)), ("gen:g:2:0", B(2, 0)), ("generator:g:5:1", B(5, 1))]:
            f = parse_map(text, 300)
            assert list(_map_values(f, 300)) == [eval_word(Word((gen,)), n) for n in range(1, 301)]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 500))
    def test_spec_of_both_shapes_with_short_tables(self, seed, max_n):
        # short unbounded tables included: same prefix, then the same error
        spec = random_spec(random.Random(seed), primes=(*PRIMES, 509, 10007), max_len=5)
        got = prefix_then_error(_map_values(spec._maps, max_n))
        assert got == pointwise_prefix(lambda n: apply_spec(spec, n), max_n)

    def test_spec_prime_above_max_n_applies_its_value_at_zero(self):
        spec = build_spec({10007: ("bounded", [2]), 2: ("unbounded", [1, 2, 3, 4, 5, 6, 7])})
        assert list(_map_values(spec._maps, 64)) == [
            apply_spec(spec, n) for n in range(1, 65)
        ]
        assert apply_spec(spec, 1) == 2 * 10007**2

    def test_short_table_fails_at_smallest_power(self):
        # 2**3 = 8 for prime 2 against 3**2 = 9 for prime 3: n = 8 comes first
        spec = build_spec({2: ("unbounded", [0, 1, 2]), 3: ("unbounded", [0, 1])})
        values, error = prefix_then_error(_map_values(spec._maps, 100))
        assert values == [apply_spec(spec, n) for n in range(1, 8)]
        assert error == (TableRangeError, "table for prime 2 covers exponents 0..2, asked for 3")
        with pytest.raises(TableRangeError) as err:
            apply_spec(spec, 8)
        assert str(err.value) == error[1]

    def test_short_table_beyond_max_n_is_not_reached(self):
        spec = build_spec({3: ("unbounded", [0, 1])})
        assert list(_map_values(spec._maps, 8)) == [1, 2, 3, 4, 5, 6, 7, 8]


class TestEveryParsedMapKind:
    @pytest.mark.parametrize("max_n", [1, 7, 8, 100])
    def test_values_are_the_pointwise_values(self, tmp_path, max_n):
        word = tmp_path / "word.json"
        word.write_text(json.dumps({"gens": [{"kind": "g", "p": 2, "t": 1},
                                             {"kind": "h", "p": 3, "t": 1}]}))
        names = ["identity", "mul:3", *POWER_MAPS, "succ", "gen:g:101:0", "gen:h:101:0",
                 "gen:g:2:1", f"word:{word}", f"spec:{SPEC_DIR / 'squaring.json'}",
                 f"spec:{SPEC_DIR / 'constant2.json'}", f"spec:{SPEC_DIR / 'doubling.json'}"]
        for name in names:
            f = parse_map(name, max_n)
            # doubling.json's table ends at 2**2: its values stop before n = 8, then raise
            got = prefix_then_error(_map_values(f, max_n))
            assert got == pointwise_prefix(f, max_n), name

    @pytest.mark.parametrize("max_n", [1, 7, 30, 100])
    def test_divisibility_against_the_quadratic_scan(self, tmp_path, max_n):
        word = tmp_path / "word.json"
        word.write_text(json.dumps({"gens": [{"kind": "g", "p": 3, "t": 0},
                                             {"kind": "h", "p": 2, "t": 2}]}))
        names = ["identity", "mul:1", "mul:12", "mul:101", f"mul:{10007 * 10009}",
                 *POWER_MAPS, "succ", "gen:g:2:1", "gen:h:101:0", f"word:{word}",
                 f"spec:{SPEC_DIR / 'squaring.json'}", f"spec:{SPEC_DIR / 'doubling.json'}"]
        for name in names:
            f = parse_map(name, max_n)
            got = outcome(lambda: divisibility_dict(check_divisibility_properties(f, max_n)))
            expected = outcome(lambda: divisibility_counterexamples(pointwise_values(f, max_n)))
            assert got == expected, name


class TestMulTables:
    """`identity` and `mul:C` answer from the tables v -> v + v_p(C), and
    give the results and CLI bytes of the plain callable n -> C * n."""

    # C = 101 is a prime above some max_n, 10007 and 10**25 + 13 above all;
    # 10007 * 10009 >= (2 * max_n + 1)**2 for every max_n here, so it has no
    # tables; 11 * 13 has none when parsed at N <= 10, and tables above
    FACTORS = (1, 2, 12, 101, 10007, 10007 * 10009, 10**25 + 13, 11 * 13)

    @pytest.mark.parametrize("c", FACTORS)
    @pytest.mark.parametrize("max_n", [1, 7, 100, 300])
    def test_consumers_against_the_plain_callable(self, c, max_n):
        # parsed at max_n // 2, max_n or 2 * max_n, the map answers on
        # 1..max_n: the tables found at any N are exact at every N
        plain = lambda n: c * n
        maps = [parse_map(name, at) for at in (max_n // 2, max_n, 2 * max_n)
                for name in [f"mul:{c}"] + (["identity"] if c == 1 else [])]
        for f in maps:
            for k in sorted({1, 2, 4, 6, 7, 12, c, max_n} & set(range(1, max_n + 1))):
                assert preimage_structure(f, k, max_n) == preimage_structure(plain, k, max_n)
            assert check_divisibility_properties(f, max_n) == check_divisibility_properties(
                plain, max_n)
            for max_k in (1, 24):
                assert membership_tuple(membership_test(f, max_k, max_n)) == membership_tuple(
                    membership_test(plain, max_k, max_n))
            for k in (1, 3):
                source = FixSource.single_orbit(k)
                assert time_change_fix(f, source, max_n) == time_change_fix(plain, source, max_n)

    @pytest.mark.parametrize("c", FACTORS)
    def test_cli_bytes_of_the_plain_callable(self, capsys, monkeypatch, c):
        requests = [
            ["preimage", "--k", "4", "--max-n", "100"],
            ["preimage", "--k", "7", "--max-n", "7"],
            ["divisibility-check", "--max-n", "100"],
            ["membership-test", "--max-k", "24", "--max-n", "100"],
            ["apply", "--source", "reg:3", "--max-n", "30"],
        ]
        names = [f"mul:{c}"] + (["identity"] if c == 1 else [])

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        for name in names:
            got = [run([req[0], "--map", name, *req[1:]]) for req in requests]
            with monkeypatch.context() as patch:
                patch.setattr("dynzeta.cli.parse_map", lambda text, max_n: lambda n: c * n)
                expected = [run([req[0], "--map", name, *req[1:]]) for req in requests]
            assert got == expected, name

    def test_tables(self):
        assert parse_map("identity", 100).cut(100) == {}
        assert parse_map("mul:1", 100).cut(100) == {}
        assert parse_map("mul:12", 30).cut(30) == {2: [2, 3, 4, 5, 6], 3: [1, 2, 3, 4]}
        # a prime cofactor left when d * d passes it, and one above max_n
        assert parse_map("mul:101", 300).cut(300) == {101: [1, 2]}
        assert parse_map("mul:202", 100).cut(100) == {2: [1, 2, 3, 4, 5, 6, 7], 101: [1]}
        assert parse_map(f"mul:{10007 * 10009}", 10007).cut(10007) == {10007: [1, 2], 10009: [1]}

    def test_a_cofactor_that_is_not_split_is_read_by_its_point_rule(self):
        # 10007 * 10009 >= 101**2: C is divided by the primes <= 100 only,
        # and then the map has no tables at max_n = 100
        c = 10007 * 10009
        f = parse_map(f"mul:{c}", 100)
        assert not isinstance(f, _PrimeMaps)
        assert not isinstance(parse_map(f"mul:{101**2}", 100), _PrimeMaps)  # 101**2 is not prime
        calls = []
        assert check_divisibility_properties(lambda n: calls.append(n) or f(n), 100).all_hold
        assert calls == list(range(1, 101))

    def test_answers_at_a_trillion(self):
        big = 10**12
        got = preimage_structure(parse_map("mul:6", big), 4, big)
        assert got == PreimageStructure.progression(4, big, 2)
        assert check_divisibility_properties(parse_map("mul:12", big), big).all_hold
        report = membership_test(parse_map("mul:2", big), 24, big)
        assert not report.refuted and report.certificate is not None
        assert membership_test(parse_map("identity", big), 24, big).certificate == ExponentSpec({})

    def test_a_prime_factor_of_any_size_is_keyed(self, capsys):
        # C is prime, so its division stops at once instead of running
        # through the candidates <= max_n
        c, big = 10**25 + 13, 10**12
        assert parse_map(f"mul:{c}", big).cut(big) == {c: [1]}
        assert parse_map(f"mul:{2 * c}", 100).cut(100) == {2: [1, 2, 3, 4, 5, 6, 7], c: [1]}
        assert main(["preimage", "--map", f"mul:{c}", "--k", "4", "--max-n", str(big)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"outcome": "progression", "k": 4, "max_n": big, "step": 4}


# n = m * prod p**e: exponents far past every table below, on primes the
# maps touch and on primes they do not
points = st.builds(
    lambda m, powers: m * prod(p**e for p, e in powers),
    st.integers(1, 10**4),
    st.lists(st.tuples(st.sampled_from((2, 3, 5, 7, 11, 13, 17, 10007)), st.integers(0, 24)),
             max_size=4),
)
raw_specs = st.dictionaries(
    st.sampled_from((2, 3, 5, 7)),
    st.builds(ExponentFunction, st.sampled_from(("bounded", "unbounded")),
              st.lists(st.integers(0, 9), min_size=1, max_size=5)),
    max_size=3,
).map(ExponentSpec)


class TestPointRule:
    """Calling a table map (_PrimeMaps) is its one point rule; it equals
    the definitions of the maps it stands for."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 14), points)
    def test_word_maps_are_eval_word(self, seed, length, n):
        word = random_word(seed, length, 13, 4)
        assert word.as_map()(n) == eval_word(word, n)

    @settings(max_examples=300, deadline=None)
    @given(raw_specs, points)
    def test_spec_maps_are_apply_spec(self, spec, n):
        # both shapes, valid or not, and short unbounded tables: the same
        # value, or the same TableRangeError at the same n
        assert outcome(lambda: spec._maps(n)) == outcome(lambda: apply_spec(spec, n))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from((2, 3, 5, 7)), st.integers(0, 4)), max_size=3),
           st.sampled_from((1, 101, 10**25 + 13)), st.integers(7, 300), points)
    def test_split_mul_maps_are_c_times_n(self, powers, cofactor, max_n, n):
        # the primes of C that are <= 7 <= max_n are divided out and the
        # cofactor left is 1 or prime, so C is split at every max_n
        c = prod(p**e for p, e in powers) * cofactor
        f = parse_map(f"mul:{c}", max_n)
        assert isinstance(f, _PrimeMaps)
        assert f(n) == c * n

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one(self, n):
        for f in (random_word(5, 8, 7, 3).as_map(), Word().as_map(), parse_map("mul:12", 10)):
            with pytest.raises(ValueError) as err:
                f(n)
            assert str(err.value) == f"the map acts on n >= 1, got {n}"


class TestRangePathIsTaken:
    def test_consumers_never_map_one_n_at_a_time(self, monkeypatch):
        spec = build_spec({2: ("unbounded", list(range(1, 12))), 3: ("bounded", [0, 2])})
        maps = [
            spec._maps,
            random_word(4, 12, 7, 3).as_map(),
            parse_map("gen:g:3:1", 300),
        ]

        def refuse(*args):
            raise AssertionError("mapped one n at a time")

        monkeypatch.setattr(exponents, "apply_spec", refuse)
        monkeypatch.setattr("dynzeta.words.eval_word", refuse)
        for f in maps:
            membership_test(f, 10, 300)
            preimage_structure(f, 6, 300)
            check_divisibility_properties(f, 300)
            time_change_fix(f, FixSource.geometric(2), 30)


class TestConsumersAgainstPointwise:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 60), st.integers(1, 30))
    def test_membership(self, seed, max_n, max_k):
        for name, f in random_range_maps(seed).items():
            got = membership_tuple(membership_test(f, max_k, max_n))
            assert got == pointwise_membership(f, max_k, max_n), name
            plain = membership_tuple(membership_test(lambda n: f(n), max_k, max_n))
            assert got == plain, name

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 12), st.integers(0, 800))
    def test_preimage(self, seed, k, extra):
        max_n = k + extra
        for name, f in random_range_maps(seed).items():
            got = preimage_tuple(preimage_structure(f, k, max_n))
            assert got == pointwise_preimage(f, k, max_n), name

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 150))
    def test_divisibility(self, seed, max_n):
        for name, f in random_range_maps(seed).items():
            got = divisibility_dict(check_divisibility_properties(f, max_n))
            assert got == divisibility_counterexamples(pointwise_values(f, max_n)), name
            # a member of the monoid obeys every law
            assert got == {"divides": None, "coprime_lcm": None, "prime_support": None}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 40), st.integers(1, 7))
    def test_time_change_fix(self, seed, length, k):
        source = FixSource.single_orbit(k)
        for name, f in random_range_maps(seed).items():
            got = time_change_fix(f, source, length)
            assert got == pointwise_time_change_fix(f, source.value, length), name


class TestShortTablesInEveryConsumer:
    SPEC = build_spec({2: ("unbounded", [0, 1, 2, 3]), 5: ("unbounded", [1, 2])})  # fails at 16

    def pointwise(self):
        return lambda n: apply_spec(self.SPEC, n)

    @pytest.mark.parametrize(
        "consume",
        [
            lambda f: membership_test(f, 12, 40),
            lambda f: preimage_structure(f, 4, 40),
            lambda f: check_divisibility_properties(f, 40),
            lambda f: time_change_fix(f, FixSource.geometric(2), 40),
        ],
    )
    def test_same_table_range_error(self, consume):
        got = outcome(lambda: consume(self.SPEC._maps))
        assert got == outcome(lambda: consume(self.pointwise()))
        assert got == (
            "raised", TableRangeError, "table for prime 2 covers exponents 0..3, asked for 4"
        )

    def test_at_the_failing_n_every_consumer_raises(self):
        # max_n = 16 = 2**4 is the first point the table of 2 misses
        f = self.SPEC._maps
        for consume in (lambda: membership_test(f, 12, 16), lambda: preimage_structure(f, 4, 16),
                        lambda: check_divisibility_properties(f, 16)):
            with pytest.raises(TableRangeError):
                consume()

    def test_below_the_failing_n_all_consumers_run(self):
        f = self.SPEC._maps
        assert not membership_test(f, 12, 15).refuted
        assert check_divisibility_properties(f, 15).all_hold

    def test_source_failure_before_the_table_is_reported_first(self):
        # the table source covers n <= 20; f(4) = 5 * 4 = 20, f(5) = 5**2 = 25
        source = FixSource.table(list(range(1, 21)))
        for f in (self.SPEC._maps, self.pointwise()):
            with pytest.raises(SourceRangeError) as err:
                time_change_fix(f, source, 40)
            assert str(err.value) == "table source covers n = 1..20, asked for n = 25"

    def test_table_failure_before_the_source_is_reported_first(self):
        source = FixSource.table(list(range(1, 10**4)))
        got = outcome(lambda: time_change_fix(self.SPEC._maps, source, 40))
        assert got == outcome(lambda: pointwise_time_change_fix(self.pointwise(), source.value, 40))
        assert got[1] is TableRangeError


class TestPlainCallables:
    BAD = [
        (lambda n: n if n < 5 else 2.0, "2.0", 5),
        (lambda n: n - 3, "-2", 1),
        (lambda n: 0 if n == 7 else n, "0", 7),
        (lambda n: None if n == 3 else n, "None", 3),
        (lambda n: True if n == 4 else n, "True", 4),
    ]

    @pytest.mark.parametrize("f, shown, at", BAD)
    def test_membership_and_divisibility_reject_bad_values(self, f, shown, at):
        message = f"map produced {shown} at n={at}; expected an integer >= 1"
        assert message == MAP_VALUE.format(n=at, m=f(at))
        expected = outcome(lambda: pointwise_values(f, 20))
        assert expected == ("raised", ValueError, message)
        assert outcome(lambda: membership_test(f, 5, 20)) == expected
        assert outcome(lambda: check_divisibility_properties(f, 20)) == expected

    @pytest.mark.parametrize("f, shown, at", BAD)
    def test_preimage_rejects_bad_values(self, f, shown, at):
        message = f"map produced {shown} at n={at}; expected an integer >= 1"
        for k in (1, 2, 3):
            expected = outcome(lambda: pointwise_preimage(f, k, 20))
            assert expected == ("raised", ValueError, message)
            assert outcome(lambda: preimage_structure(f, k, 20)) == expected

    @pytest.mark.parametrize("f, shown, at", BAD)
    def test_time_change_fix_message(self, f, shown, at):
        source = FixSource.geometric(2)
        got = outcome(lambda: time_change_fix(f, source, 20))
        assert got == outcome(lambda: pointwise_time_change_fix(f, source.value, 20))
        assert got[2] == f"time-change value h({at}) = {shown}; expected an integer >= 1"

    def test_map_error_after_a_source_failure_is_not_reached(self):
        def h(n):
            if n == 5:
                raise ZeroDivisionError("h is not defined at 5")
            return 10 * n

        source = FixSource.table([1] * 25)
        with pytest.raises(SourceRangeError):
            time_change_fix(h, source, 8)

    def test_values_are_taken_once(self):
        calls = []

        def f(n):
            calls.append(n)
            return n

        check_divisibility_properties(f, 30)
        membership_test(f, 6, 30)
        preimage_structure(f, 3, 30)
        time_change_fix(f, FixSource.constant(1), 30)
        assert calls == list(range(1, 31)) * 4


class TestPrimeSupport:
    @given(
        st.integers(1, 10**6),
        st.lists(
            st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(0, 40)),
            min_size=1, max_size=80,
        ),
    )
    def test_high_powers_against_factorizing_scan(self, f1, powers):
        # values are prime powers times n, with exponents far above v_p(n)
        values = [f1] + [p**e * n for n, (p, e) in enumerate(powers, start=2)]
        got = divisibility_dict(check_divisibility_properties(lambda n: values[n - 1], len(values)))
        assert got == divisibility_counterexamples(values)

    @pytest.mark.parametrize(
        "f, witness",
        [
            (lambda n: 3 * n if n > 1 else 1, (3, 2)),
            (lambda n: 6 * n if n > 1 else 2, (3, 2)),
            (lambda n: n**7 if n != 12 else 12 * 7, (7, 12)),
            (lambda n: n**n * (11 if n == 9 else 1), (11, 9)),
        ],
    )
    def test_witness_names_the_smallest_prime(self, f, witness):
        values = [f(n) for n in range(1, 31)]
        got = check_divisibility_properties(f, 30).prime_support
        assert got.counterexample == witness == divisibility_counterexamples(values)["prime_support"]

    def test_factorize_only_on_the_failing_value(self, monkeypatch):
        calls = []
        real = exponents.factorize

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(exponents, "factorize", counting)
        rng = random.Random(8)
        for _ in range(10):
            assert check_divisibility_properties(random_spec(rng, max_len=9, unbounded_min_len=9)._maps, 300).all_hold
        assert check_divisibility_properties(lambda n: n**n, 300).prime_support.holds
        assert calls == []
        report = check_divisibility_properties(lambda n: 3 * n if n > 1 else 2, 300)
        assert report.prime_support.counterexample == (3, 2)
        assert calls == [2, 6]


class TestMembershipModulus:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(1, 10**60), min_size=1, max_size=40),
        st.integers(41, 60),
    )
    def test_large_max_k_against_full_values(self, values, max_k):
        f = lambda n: values[n - 1]
        got = membership_tuple(membership_test(f, max_k, len(values)))
        assert got == pointwise_membership(f, max_k, len(values))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 48), min_size=1, max_size=40), st.integers(41, 48))
    def test_multiples_of_the_modulus(self, factors, max_k):
        # values that are multiples of lcm(1..max_k) reduce to 0
        modulus = lcm(*range(1, max_k + 1))
        f = lambda n: factors[n - 1] * modulus + (n % 3 == 0)
        got = membership_tuple(membership_test(f, max_k, len(factors)))
        assert got == pointwise_membership(f, max_k, len(factors))

    def test_tower_map_beyond_forty(self):
        f = lambda n: n**n
        got = membership_tuple(membership_test(f, 45, 30))
        assert got == pointwise_membership(f, 45, 30)
        assert got[:3] == (8, "dold", 6)


POWER_MAPS = ("nn", "pow:0", "pow:1", "pow:2", "pow:3")


def reference_report(f, max_k, max_n):
    """The MembershipReport of the per-probe loop on f's full values."""
    found = per_probe_membership(pointwise_values(f, max_n), max_k)
    if found is None:
        return MembershipReport(max_k, max_n)
    k, failure, n, b = found
    return MembershipReport(max_k, max_n, MembershipWitness(k, RealizabilityVerdict(failure, n, b)))


def every_kind_of_map(seed, max_n):
    """Word, compiled word, generator and spec maps, the CLI's named maps
    parsed for 1..max_n, and each of them again as a plain callable."""
    maps = random_range_maps(seed)
    for text in (*POWER_MAPS, "succ", "identity", "mul:6", "gen:h:2:1"):
        maps[text] = parse_map(text, max_n)
    for name, f in list(maps.items()):
        maps[f"plain {name}"] = lambda n, f=f: f(n)
    return maps


def bumps(factors):
    """The identity, except that each n0 in factors goes to factors[n0] * n0."""
    return lambda n: factors.get(n, 1) * n


class TestPackedProbes:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 150), st.integers(1, 2 * _LANES + 8))
    def test_every_kind_of_map_against_per_probe_loop(self, seed, max_n, max_k):
        for name, f in every_kind_of_map(seed, max_n).items():
            assert membership_test(f, max_k, max_n) == reference_report(f, max_k, max_n), name

    @pytest.mark.parametrize("max_k, max_n", [(1, 1), (1, 300), (70, 1), (3 * _LANES + 5, 2)])
    def test_smallest_ranges(self, max_k, max_n):
        for name, f in every_kind_of_map(max_k + max_n, max_n).items():
            assert membership_test(f, max_k, max_n) == reference_report(f, max_k, max_n), name

    @pytest.mark.parametrize("max_k", [_LANES, _LANES + 1, 2 * _LANES, 3 * _LANES + 5])
    def test_more_than_one_block(self, max_k):
        # members pass every block; the tower map fails in the first one
        for text in ("identity", "pow:2", "gen:g:3:1"):
            report = membership_test(parse_map(text, 400), max_k, 400)
            assert report == reference_report(parse_map(text, 400), max_k, 400)
            assert report == MembershipReport(max_k, 400)
        nn = parse_map("nn", 60)
        assert membership_test(nn, max_k, 60) == reference_report(nn, max_k, 60)

    @pytest.mark.parametrize(
        "f, max_k, k",
        [
            (bumps({16: 2}), 40, 32),  # the last lane of the first block
            (bumps({32: 2}), 70, 64),  # the last lane of the second block
            (bumps({2: 97}), 100, 97),  # the first lane of the fourth block
            (bumps({2: 37}), 37, 37),  # the last lane of a partial block
            (lambda n: n + 1, 50, 2),  # the first lane that can fail (k = 1 never does)
        ],
    )
    def test_refutation_at_the_edges_of_a_block(self, f, max_k, k):
        assert _LANES == 32  # the block edges the cases above are placed on
        report = membership_test(f, max_k, 200)
        assert report == reference_report(f, max_k, 200)
        assert report.witness.k == k

    def test_sign_before_dold_at_the_same_n(self):
        # 3 | f(n) for odd n and multiples of 3: the probe of 3 has b_2 = -3,
        # negative and not divisible by 2
        f = lambda n: 3 * n if n % 2 else n
        report = membership_test(f, 24, 100)
        assert report == reference_report(f, 24, 100)
        assert report.witness == MembershipWitness(3, RealizabilityVerdict("sign", 2, -3))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 48), min_size=1, max_size=40), st.integers(41, 60))
    def test_multiples_of_the_modulus(self, factors, max_k):
        modulus = lcm(*range(1, max_k + 1))
        f = lambda n: factors[n - 1] * modulus + (n % 3 == 0)
        assert membership_test(f, max_k, len(factors)) == reference_report(f, max_k, len(factors))

    def test_values_are_taken_once_across_blocks(self):
        calls = []

        def f(n):
            calls.append(n)
            return n

        assert not membership_test(f, 3 * _LANES, 50).refuted
        assert calls == list(range(1, 51))

    @pytest.mark.parametrize("f, shown, at", TestPlainCallables.BAD)
    @pytest.mark.parametrize("max_k", [5, 2 * _LANES + 1])
    def test_bad_values_raise_at_the_same_n(self, f, shown, at, max_k):
        expected = outcome(lambda: reference_report(f, max_k, 20))
        assert expected[0] == "raised"
        assert outcome(lambda: membership_test(f, max_k, 20)) == expected


class TestPrefixPass:
    """The probes run on 1..min(N, _PREFIX) first, and only the lengths
    below the prefix's witness run again on 1..N; the report is the full
    probe's."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6), st.integers(_PREFIX - 1, 3 * _PREFIX), st.integers(1, 40))
    def test_range_maps_and_plain_callables_against_the_oracles(self, seed, max_n, max_k):
        for name, f in random_range_maps(seed).items():
            plain = lambda n, f=f: f(n)
            report = membership_test(plain, max_k, max_n)
            assert report == membership_test(f, max_k, max_n), name
            assert report == reference_report(f, max_k, max_n), name
            assert membership_tuple(report) == pointwise_membership(plain, max_k, max_n), name

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, _PREFIX), st.integers(2, 40),
        st.integers(_PREFIX + 1, 3 * _PREFIX), st.integers(2, 12),
        st.integers(_PREFIX - 1, 3 * _PREFIX), st.integers(1, 45),
    )
    def test_bumps_on_both_sides_of_the_prefix(self, n0, a, n1, b, max_n, max_k):
        f = bumps({n0: a, n1: b})
        report = membership_test(f, max_k, max_n)
        assert report == reference_report(f, max_k, max_n)
        assert membership_tuple(report) == pointwise_membership(f, max_k, max_n)

    # k = 7 fails at n = 5 <= _PREFIX (f(5) = 35), and k = 3 only at n = 65
    # (f(65) = 195); k = 2 never does
    BOTH_SIDES = {5: 7, 65: 3}

    @pytest.mark.parametrize(
        "max_n, max_k, expected",
        [
            (_PREFIX - 1, 24, (7, "dold", 5, 7)),
            (_PREFIX, 24, (7, "dold", 5, 7)),
            (_PREFIX + 1, 24, (3, "dold", 65, 3)),  # a smaller k beyond the prefix
            (_PREFIX + 1, 7, (3, "dold", 65, 3)),
            (_PREFIX + 1, 6, (3, "dold", 65, 3)),  # max_k below the prefix witness
            (_PREFIX + 1, 2, None),
            (3 * _PREFIX, 70, (3, "dold", 65, 3)),
        ],
    )
    def test_a_smaller_length_beyond_the_prefix_wins(self, max_n, max_k, expected):
        assert _PREFIX == 64  # the points above are placed on either side of it
        f = bumps(self.BOTH_SIDES)
        report = membership_test(f, max_k, max_n)
        assert membership_tuple(report) == expected == pointwise_membership(f, max_k, max_n)
        assert report == reference_report(f, max_k, max_n)

    @staticmethod
    def recording(f):
        """The residue map f, with each (n, modulus) it is asked for recorded."""
        asked = []

        def residues(n, modulus):
            asked.append((n, modulus))
            return f.residues(n, modulus)

        return _ResidueMap(f.point, residues), asked

    def test_the_full_range_is_read_only_below_the_prefix_witness(self):
        nn, asked = self.recording(parse_map("nn", 1000))
        assert membership_tuple(membership_test(nn, 24, 1000)) == (8, "dold", 6, 8)
        assert asked == [(_PREFIX, lcm(*range(2, 25))), (1000, lcm(*range(2, 8)))]
        succ, asked = self.recording(_ResidueMap(
            lambda n: n + 1, lambda max_n, m: [(n + 1) % m for n in range(1, max_n + 1)]))
        assert membership_tuple(membership_test(succ, 24, 1000)) == (2, "sign", 2, -2)
        assert asked == [(_PREFIX, lcm(*range(2, 25)))]  # no length below k = 2

    def test_a_map_passing_the_prefix_is_probed_on_the_full_range(self):
        f, asked = self.recording(parse_map("pow:2", 1000))
        assert membership_test(f, 40, 1000) == MembershipReport(40, 1000)
        assert asked == [(_PREFIX, lcm(*range(2, 33))), (_PREFIX, lcm(*range(33, 41))),
                         (1000, lcm(*range(2, 33))), (1000, lcm(*range(33, 41)))]

    def test_length_one_is_never_probed(self):
        f, asked = self.recording(parse_map("nn", 1000))
        assert membership_test(f, 1, 1000) == MembershipReport(1, 1000)
        assert asked == []

    def test_a_bad_value_beyond_the_prefix_is_raised(self):
        # the prefix alone refutes at k = 2 (as n -> n + 1 does), but every
        # value on 1..max_n is taken first
        f = lambda n: 0 if n == 3 * _PREFIX else n + 1
        message = f"map produced 0 at n={3 * _PREFIX}; expected an integer >= 1"
        assert membership_tuple(membership_test(f, 24, 3 * _PREFIX - 1)) == (2, "sign", 2, -2)
        expected = outcome(lambda: pointwise_values(f, 3 * _PREFIX))
        assert expected == ("raised", ValueError, message)
        for max_k in (2, 24, 2 * _LANES + 1):
            assert outcome(lambda: membership_test(f, max_k, 3 * _PREFIX)) == expected

    def test_a_table_ending_short_beyond_the_prefix_is_raised(self):
        # the table of 2 drops (f(1) = 2, f(2) = 1), which refutes at k = 2
        # on the prefix, and it ends short at 2**7 = 128
        spec = build_spec({2: ("unbounded", [1, 0, 2, 3, 4, 5, 6])})
        pointwise = lambda n: apply_spec(spec, n)
        assert membership_tuple(membership_test(spec._maps, 24, 127)) == (2, "sign", 2, -2)
        assert membership_tuple(membership_test(spec._maps, 24, 127)) == pointwise_membership(
            pointwise, 24, 127)
        got = outcome(lambda: membership_test(spec._maps, 24, 200))
        assert got == outcome(lambda: membership_test(pointwise, 24, 200))
        assert got == outcome(lambda: pointwise_membership(pointwise, 24, 200))
        assert got == (
            "raised", TableRangeError, "table for prime 2 covers exponents 0..6, asked for 7"
        )


class TestResiduePaths:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(POWER_MAPS), st.integers(1, 300), st.integers(1, 10**40))
    def test_power_maps_against_full_values(self, name, max_n, modulus):
        f = parse_map(name, max_n)
        assert _map_residues(f, max_n)(modulus) == [f(n) % modulus for n in range(1, max_n + 1)]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 300), st.integers(1, 10**6))
    def test_other_maps_reduce_their_values(self, seed, max_n, modulus):
        for name, f in random_range_maps(seed).items():
            assert _map_residues(f, max_n)(modulus) == [
                m % modulus for m in pointwise_values(f, max_n)
            ], name

    @pytest.mark.parametrize("f, shown, at", TestPlainCallables.BAD)
    def test_plain_callables_are_validated(self, f, shown, at):
        expected = outcome(lambda: pointwise_values(f, 20))
        assert outcome(lambda: _map_residues(f, 20)(12)) == expected

    @pytest.mark.parametrize("name", POWER_MAPS)
    def test_probes_never_build_the_full_powers(self, name):
        intact = parse_map(name, 500)
        f = parse_map(name, 500)

        def refuse(n):
            raise AssertionError("built a full power")

        f.point = refuse
        for max_k in (24, 2 * _LANES + 3):
            assert membership_test(f, max_k, 500) == reference_report(intact, max_k, 500)
        for k in (1, 4, 6, 12):
            got = preimage_tuple(preimage_structure(f, k, 500))
            assert got == pointwise_preimage(intact, k, 500)


class TestMembershipCLI:
    def expected_output(self, f, max_k, max_n):
        try:
            witness = reference_report(f, max_k, max_n).witness
        except ValueError as err:
            return 2, "", f"error: {err}\n"
        if witness is None:
            payload = {"result": "no-violation", "max_k": max_k, "max_n": max_n}
        else:
            v = witness.verdict
            payload = {"result": "witness", "k": witness.k, "failure": v.failure,
                       "index": v.index, "value": str(v.value)}
        return (0 if witness is None else 1), json.dumps(payload, indent=2) + "\n", ""

    def run(self, capsys, text, max_k, max_n):
        argv = ["membership-test", "--map", text, "--max-k", str(max_k), "--max-n", str(max_n)]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    CASES = [(1, 1), (8, 6), (24, 300), (2 * _LANES + 1, 120)]

    @pytest.mark.parametrize(
        "text",
        [*POWER_MAPS, "succ", "identity", "mul:4", "gen:h:3:1", "gen:g:2:0",
         f"spec:{SPEC_DIR / 'squaring.json'}", f"spec:{SPEC_DIR / 'constant2.json'}"],
    )
    @pytest.mark.parametrize("max_k, max_n", CASES)
    def test_output_bytes_match_the_per_probe_loop(self, capsys, text, max_k, max_n):
        expected = self.expected_output(parse_map(text, max_n), max_k, max_n)
        assert self.run(capsys, text, max_k, max_n) == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_word_files(self, capsys, tmp_path, seed):
        word = random_word(seed, 10, 7, 3)
        path = tmp_path / "word.json"
        path.write_text(json.dumps(
            {"gens": [{"kind": g.kind, "p": g.prime, "t": g.level} for g in word.gens]}
        ))
        for max_k, max_n in self.CASES:
            expected = self.expected_output(word.as_map(), max_k, max_n)
            assert self.run(capsys, f"word:{path}", max_k, max_n) == expected
