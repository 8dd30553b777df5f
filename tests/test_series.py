import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynzeta.exponents import ExponentFunction, ExponentSpec, validate_spec
from dynzeta.sequences import check_realizable, disjoint_union, fix_from_orbits
from dynzeta.series import (
    ConstantTermNotOne,
    FixSource,
    InversionError,
    NegativeCount,
    NonIntegerLogCoefficient,
    Series,
    SourceRangeError,
    ZetaVerdict,
    exp_series,
    fix_from_zeta,
    is_zeta,
    log_series,
    series_mul,
    series_pow,
    time_change_fix,
    two_shift_comparison,
    zeta_from_fix,
)

from oracles import (
    binomial_power,
    euler_product,
    fraction_zeta,
    int_series_mul,
    log_fix_from_zeta,
    random_orbit_counts,
    spec_tables_upto,
    time_changed_shift_zeta,
)


def ints(series):
    assert series.is_integral()
    return [int(c) for c in series.coeffs]


class TestSources:
    def test_constant(self):
        assert FixSource.constant(5).prefix(3) == [5, 5, 5]

    def test_geometric(self):
        assert FixSource.geometric(2).prefix(5) == [2, 4, 8, 16, 32]

    def test_single_orbit(self):
        assert FixSource.single_orbit(3).prefix(7) == [0, 0, 3, 0, 0, 3, 0]

    def test_table_errors_loudly_out_of_range(self):
        src = FixSource.table([1, 2, 3])
        assert src.value(3) == 3
        with pytest.raises(SourceRangeError):
            src.value(4)

    def test_from_orbit_counts_is_total(self):
        src = FixSource.from_orbit_counts([2, 1, 2, 3])
        assert src.prefix(4) == [2, 4, 8, 16]
        # defined far beyond the table of counts
        assert src.value(1000) == 1 * 2 + 2 * 1 + 4 * 3  # divisors 1, 2, 4 of 1000

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FixSource.table([1, -2])
        with pytest.raises(ValueError):
            FixSource.constant(3).value(0)
        # a bool is not a count, as in check_realizable
        with pytest.raises(ValueError, match=r"^table entry 1 is True$"):
            FixSource.table([True, 2])
        with pytest.raises(ValueError, match=r"^orbit count 2 is False$"):
            FixSource.from_orbit_counts([1, False])
        with pytest.raises(ValueError, match=r"^source reg:True produced True at n=1$"):
            FixSource.single_orbit(True).value(1)
        with pytest.raises(ValueError, match=r"^source bits produced True at n=1$"):
            FixSource("bits", lambda n: n == 1).prefix(2)


@pytest.mark.parametrize(
    "call, message",
    [
        # order True gave an order-1 series; a float order raised TypeError
        (lambda: zeta_from_fix(FixSource.geometric(2), True), "order must be an integer, got True"),
        (lambda: zeta_from_fix(FixSource.geometric(2), 2.5), "order must be an integer, got 2.5"),
        (lambda: Series.of([1], 2.5), "order must be an integer, got 2.5"),
    ],
)
def test_argument_errors(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestZetaFromFix:
    def test_full_shift_is_geometric_series(self):
        assert ints(zeta_from_fix(FixSource.geometric(2), 5)) == [1, 2, 4, 8, 16, 32]

    def test_empty_system(self):
        assert ints(zeta_from_fix(FixSource.constant(0), 6)) == [1, 0, 0, 0, 0, 0, 0]

    def test_single_orbit_matches_rational_function(self):
        # one orbit of length 3 has zeta 1 / (1 - z^3)
        assert ints(zeta_from_fix(FixSource.single_orbit(3), 7)) == [1, 0, 0, 1, 0, 0, 1, 0]

    def test_matches_euler_product_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            counts = random_orbit_counts(rng, 32)
            entries = fix_from_orbits(counts)
            series = zeta_from_fix(FixSource.table(entries), 32)
            assert ints(series) == euler_product(counts, 32)


    @given(st.lists(st.integers(min_value=0, max_value=2**80), min_size=1, max_size=40))
    def test_matches_fraction_recurrence_on_any_counts(self, entries):
        # realizable or not, so remainders and the Fraction fallback show up
        series = zeta_from_fix(FixSource.table(entries), len(entries))
        assert list(series.coeffs) == fraction_zeta(entries, len(entries))

    @pytest.mark.parametrize(
        "source", [FixSource.geometric(3), FixSource.single_orbit(4), FixSource.constant(2)]
    )
    def test_matches_fraction_recurrence_on_sources(self, source):
        series = zeta_from_fix(source, 80)
        assert list(series.coeffs) == fraction_zeta(source.prefix(80), 80)

    def test_one_fixed_point_is_exp(self):
        # the table [1, 0, 0, ...] has zeta exp(z), whose coefficients are 1/n!
        series = zeta_from_fix(FixSource.table([1] + [0] * 11), 12)
        factorial = 1
        expected = [Fraction(1)]
        for n in range(1, 13):
            factorial *= n
            expected.append(Fraction(1, factorial))
        assert list(series.coeffs) == expected


def _corrupt(coeffs, kind, index, amount):
    coeffs = list(coeffs)
    if kind == "constant":
        coeffs[0] += amount
    elif kind == "fraction":
        coeffs[index] += Fraction(1, amount + 1)
    else:
        coeffs[index] -= amount * (abs(coeffs[index]) + 1) * 10**6
    return Series(tuple(coeffs))


class TestFixFromZeta:
    def test_rejects_constant_term(self):
        doubled = Series.of([2, 4, 8, 16])
        with pytest.raises(ConstantTermNotOne):
            fix_from_zeta(doubled)

    def test_inverts_full_shift(self):
        assert fix_from_zeta(Series.of([1, 2, 4, 8, 16])) == [2, 4, 8, 16]

    def test_one_maps_to_zeros(self):
        assert fix_from_zeta(Series.one(4)) == [0, 0, 0, 0]

    def test_negative_count_detected(self):
        # (1 - z^3) / (1 - z) = 1 + z + z^2 gives a_3 = -2
        with pytest.raises(NegativeCount) as err:
            fix_from_zeta(Series.of([1, 1, 1], order=4))
        assert err.value.index == 3

    def test_non_integer_detected(self):
        # integer-coefficient series always invert to integer counts, so a
        # genuinely rational series is needed to hit this branch
        with pytest.raises(NonIntegerLogCoefficient) as err:
            fix_from_zeta(Series.of([1, Fraction(1, 2), 1], order=2))
        assert err.value.index == 1

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=24))
    def test_inverse_pair_on_any_counts(self, entries):
        # holds for every non-negative integer sequence, realizable or not
        series = zeta_from_fix(FixSource.table(entries), len(entries))
        assert fix_from_zeta(series) == entries

    def test_exp_round_trips_through_fractions(self):
        entries = [1] + [0] * 29
        series = zeta_from_fix(FixSource.table(entries), 30)
        assert not series.is_integral()
        assert fix_from_zeta(series) == entries
        verdict = is_zeta(series)
        assert (verdict.reason, verdict.index) == ("sign", 2)

    def test_non_integral_zeta_of_big_counts_round_trips(self):
        entries = [3**200 + 1, 0, 5, 2**300, 7]
        series = zeta_from_fix(FixSource.table(entries), 5)
        assert not series.is_integral()
        assert fix_from_zeta(series) == entries

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=30),
        st.sampled_from(["constant", "fraction", "negative"]),
        st.integers(min_value=1, max_value=29),
        st.integers(min_value=1, max_value=5),
    )
    def test_corrupted_series_match_log_path(self, entries, kind, index, amount):
        index = min(index, len(entries))
        genuine = fraction_zeta(entries, len(entries))
        series = _corrupt(genuine, kind, index, amount)
        counts, failure = log_fix_from_zeta(series.coeffs)
        verdict = is_zeta(series)
        if failure is None:
            assert fix_from_zeta(series) == counts
            assert verdict.reason in (None, "sign", "dold")
        else:
            with pytest.raises(InversionError) as err:
                fix_from_zeta(series)
            assert (err.value.reason, err.value.index) == failure
            assert (verdict.passed, verdict.reason, verdict.index) == (False, *failure)

    @given(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=4),
            min_size=1,
            max_size=16,
        )
    )
    def test_arbitrary_rational_series_match_log_path(self, tail):
        series = Series.of([1, *tail])
        counts, failure = log_fix_from_zeta(series.coeffs)
        if failure is None:
            assert fix_from_zeta(series) == counts
        else:
            with pytest.raises(InversionError) as err:
                fix_from_zeta(series)
            assert (err.value.reason, err.value.index) == failure

    def test_non_integral_reported_before_negative_at_equal_index(self):
        # a_1 = -1/2 is both negative and non-integral
        with pytest.raises(NonIntegerLogCoefficient) as err:
            fix_from_zeta(Series.of([1, Fraction(-1, 2), 0]))
        assert err.value.index == 1


class TestSeriesAlgebra:
    def test_mul_identity(self):
        f = Series.of([1, 3, 5], order=4)
        assert series_mul(f, Series.one(4)) == f

    def test_mul_telescopes_geometric(self):
        geometric = zeta_from_fix(FixSource.geometric(2), 8)
        assert series_mul(Series.of([1, -2], order=8), geometric) == Series.one(8)

    def test_mul_order_mismatch(self):
        with pytest.raises(ValueError):
            series_mul(Series.one(3), Series.one(4))

    def test_multiplicativity_over_disjoint_union(self):
        reg2 = zeta_from_fix(FixSource.single_orbit(2), 12)
        reg3 = zeta_from_fix(FixSource.single_orbit(3), 12)
        combined = disjoint_union(
            FixSource.single_orbit(2).prefix(12), FixSource.single_orbit(3).prefix(12)
        )
        assert series_mul(reg2, reg3) == zeta_from_fix(FixSource.table(combined), 12)

    def test_pow_one_is_identity(self):
        f = zeta_from_fix(FixSource.geometric(3), 6)
        assert series_pow(f, 1) == f

    def test_pow_inverse_of_linear(self):
        assert ints(series_pow(Series.of([1, -2], order=5), -1)) == [1, 2, 4, 8, 16, 32]

    def test_pow_half_integer_frozen_value(self):
        got = series_pow(Series.of([1, 0, -2], order=6), Fraction(-1, 2))
        assert list(got.coeffs) == [1, 0, 1, 0, Fraction(3, 2), 0, Fraction(5, 2)]

    def test_pow_matches_binomial_oracle(self):
        for c, d, r in [(-2, 1, Fraction(-1, 2)), (3, 2, Fraction(2, 3)), (1, 3, -2)]:
            base = Series.of([1] + [0] * (d - 1) + [c], order=9)
            assert list(series_pow(base, r).coeffs) == binomial_power(c, d, r, 9)

    def test_pow_round_trips(self):
        f = zeta_from_fix(FixSource.geometric(2), 8)
        for r in (2, -3, Fraction(1, 2), Fraction(-5, 7)):
            assert series_pow(series_pow(f, r), Fraction(1, 1) / r) == f

    def test_pow_requires_unit_constant_term(self):
        with pytest.raises(ConstantTermNotOne):
            series_pow(Series.of([2, 1]), 2)

    def test_log_exp_are_inverse(self):
        f = zeta_from_fix(FixSource.geometric(2), 10)
        assert exp_series(log_series(f)) == f


RATIONAL_TAILS = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=6), max_size=14
)


class Real(float):
    pass


class TestExactCoefficients:
    @pytest.mark.parametrize("build", [Series, Series.of])
    @pytest.mark.parametrize("coeffs, index", [
        ((1, 0.1), 1), ((1, 2.0, 3.0), 1), ((True, 0), 0), ((1, Fraction(1, 2), False), 2),
        ((Real(1),), 0),
    ])
    def test_floats_and_bools_are_rejected_by_index(self, build, coeffs, index):
        with pytest.raises(ValueError, match=f"^series coefficient {index} is "):
            build(coeffs)

    def test_a_float_series_is_never_checked_as_a_zeta(self):
        # Series.of once stored 2.0 and 3.0 as 2 and 3, and is_zeta passed it
        with pytest.raises(ValueError, match="series coefficient 1 is 2.0"):
            is_zeta(Series.of([1, 2.0, 3.0]))

    @pytest.mark.parametrize("r", [0.5, 2.0, True, False, Real(-1)])
    def test_pow_rejects_float_and_bool_exponents(self, r):
        with pytest.raises(ValueError, match="^series exponent is "):
            series_pow(Series.of([1, -2], order=4), r)

    def test_exact_coefficients_are_padded_and_cut(self):
        assert Series.of([1, Fraction(1, 3)], order=3).coeffs == (1, Fraction(1, 3), 0, 0)
        assert Series.of([1, 2, 3, 4], order=1).coeffs == (1, 2)
        assert all(type(c) is Fraction for c in Series.of([1, 2], order=3).coeffs)


class TestExpLogOnZetaKernels:
    """exp G is the zeta series of the counts k * G_k, and log inverts it."""

    @given(RATIONAL_TAILS)
    def test_exp_is_zeta_of_scaled_coefficients(self, tail):
        g = Series.of([0, *tail])
        counts = [k * c for k, c in enumerate(g.coeffs[1:], 1)]
        assert list(exp_series(g).coeffs) == fraction_zeta(counts, g.order)

    @given(RATIONAL_TAILS)
    def test_exp_inverts_log(self, tail):
        # exp is injective on constant term 0, so this pins log as well
        f = Series.of([1, *tail])
        assert exp_series(log_series(f)) == f

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: log_series(Series.of([2, 2])), ConstantTermNotOne,
             "log needs constant term 1, got 2"),
            (lambda: series_pow(Series.of([Fraction(1, 2), 1]), 3), ConstantTermNotOne,
             "log needs constant term 1, got 1/2"),
            (lambda: exp_series(Series.of([1, 2])), ValueError, "exp needs constant term 0, got 1"),
            (lambda: Series(()), ValueError, "a series needs at least the constant coefficient"),
        ],
    )
    def test_constant_term_errors(self, call, error, message):
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error
        assert str(err.value) == message

    def test_fix_from_zeta_stops_at_the_first_bad_index(self):
        # the log kernel yields lazily: nothing past a_1 is computed
        with pytest.raises(NonIntegerLogCoefficient) as err:
            fix_from_zeta(Series.of([1, Fraction(1, 2)], order=10**5))
        assert err.value.index == 1


class TestTimeChange:
    def test_identity(self):
        src = FixSource.geometric(2)
        assert time_change_fix(lambda n: n, src, 6) == src.prefix(6)

    def test_tower_map_on_single_orbit(self):
        got = time_change_fix(lambda n: n**n, FixSource.single_orbit(8), 6)
        assert got == [0, 0, 0, 8, 0, 8]

    def test_prime_multiplier_on_full_shift(self):
        h = lambda n: 2 * n if n % 2 == 0 else n
        got = time_change_fix(h, FixSource.geometric(2), 6)
        assert got == [2, 16, 8, 256, 32, 4096]

    def test_rejects_zero_values(self):
        with pytest.raises(ValueError):
            time_change_fix(lambda n: n - 1, FixSource.geometric(2), 3)
        with pytest.raises(ValueError, match=r"^time-change value h\(1\) = True; "):
            time_change_fix(lambda n: True, FixSource.geometric(2), 3)

    def test_source_range_propagates(self):
        with pytest.raises(SourceRangeError):
            time_change_fix(lambda n: 2 * n, FixSource.table([1, 1]), 2)


class TestIsZeta:
    def test_order_zero_passes(self):
        assert is_zeta(Series.one(0)) == ZetaVerdict(True)

    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ([1, 2, 4], "pass"),
            ([2], "fail: constant_term_not_one"),
            ([1, 1, 1, 0, 0], "fail: negative_count at n=3"),
        ],
    )
    def test_verdict_describe(self, coeffs, text):
        assert is_zeta(Series.of(coeffs)).describe() == text

    def test_full_shift_passes(self):
        assert is_zeta(zeta_from_fix(FixSource.geometric(2), 10)).passed

    def test_wrong_constant_term(self):
        verdict = is_zeta(Series.of([2, 4, 8, 16]))
        assert not verdict.passed
        assert verdict.reason == "constant_term_not_one"

    def test_negative_count_reported(self):
        verdict = is_zeta(Series.of([1, 1, 1], order=4))
        assert not verdict.passed
        assert verdict.reason == "negative_count"
        assert verdict.index == 3

    def test_dold_failure_reported(self):
        # counts (0,0,0,8,0,8) are non-negative integers but fail divisibility
        bad = zeta_from_fix(FixSource.table([0, 0, 0, 8, 0, 8]), 6)
        verdict = is_zeta(bad)
        assert not verdict.passed
        assert verdict.reason == "dold"
        assert verdict.index == 6


class TestTwoShiftComparison:
    @pytest.mark.parametrize("p", [2, 3])
    def test_direct_side_is_a_zeta_prefix(self, p):
        report = two_shift_comparison(p, 20)
        assert report.realizability.passed
        assert report.direct.is_integral()
        assert check_realizable(list(report.fix_entries)).passed

    @pytest.mark.parametrize("p", [2, 3])
    def test_report_is_complete_and_consistent(self, p):
        report = two_shift_comparison(p, 20)
        rows = report.rows()
        assert len(rows) == 21
        disagreements = [n for n, a, b, equal in rows if not equal]
        if report.first_mismatch is None:
            assert not disagreements
        else:
            assert disagreements and disagreements[0] == report.first_mismatch

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_direct_side_is_the_derived_product(self, p):
        # the log series sum 2^h(n) z^n / n split by whether p | n:
        # (1 - 2z)^(-1) (1 - 2^p z^p)^(1/p) (1 - 2^(p^2) z^p)^(-1/p),
        # each factor by its binomial series, multiplied in Fraction
        order = 40
        product = binomial_power(-2, 1, -1, order)
        for c, r in ((-(2**p), Fraction(1, p)), (-(2 ** (p * p)), Fraction(-1, p))):
            product = int_series_mul(product, binomial_power(c, p, r, order))
        assert list(two_shift_comparison(p, order).direct.coeffs) == product

    def test_direct_side_prefix_values(self):
        report = two_shift_comparison(2, 6)
        assert report.fix_entries == (2, 16, 8, 256, 32, 4096)
        assert [int(c) for c in report.direct.coeffs[:3]] == [1, 2, 10]


class TestTimeChangedShiftClosedForm:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_spec_time_change_of_a_full_shift(self, seed):
        # the two-shift product in general: any valid spec map and base,
        # against the closed form of oracles.time_changed_shift_zeta
        rng = random.Random(seed)
        order, base = rng.randint(1, 20), rng.choice((2, 3))
        functions = {}
        for p in rng.sample((2, 3, 5), rng.randint(1, 2)):
            values = [rng.randint(0, 1)]
            while p ** len(values) <= order:
                values.append(max(values[-1], len(values)) + rng.randint(0, 1))
            shape = rng.choice(("bounded", "unbounded"))
            if shape == "bounded":
                values = values[: rng.randint(1, len(values))]
            functions[p] = (shape, values)
        spec = ExponentSpec({p: ExponentFunction(*fn) for p, fn in functions.items()})
        assert validate_spec(spec) == []
        entries = time_change_fix(spec._maps, FixSource.geometric(base), order)
        direct = zeta_from_fix(FixSource.table(entries), order)
        closed = time_changed_shift_zeta(spec_tables_upto(functions, order), base, order)
        assert list(direct.coeffs) == closed
