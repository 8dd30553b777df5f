from decimal import Decimal
from fractions import Fraction

import pytest

from dynzeta.compiler import CompileResult
from dynzeta.exponents import ExponentFunction, ExponentSpec
from dynzeta.jsonio import (
    _DECIMAL_BYTES_PER_ENTRY,
    _counts_from_json,
    compile_result_from_json,
    compile_result_to_json,
    sequence_from_json,
    sequence_to_json,
    series_from_json,
    series_to_json,
    spec_from_json,
    spec_to_json,
    word_from_json,
    word_to_json,
)
from dynzeta.series import Series
from dynzeta.words import Generator, Word


def test_sequence_round_trip_preserves_big_integers():
    entries = [2**200, 0, 3**150]
    obj = sequence_to_json(entries)
    assert obj["n"] == 3
    assert all(isinstance(e, str) for e in obj["entries"])
    assert sequence_from_json(obj) == entries


def test_sequence_accepts_plain_numbers():
    assert sequence_from_json({"n": 2, "entries": [1, 2]}) == [1, 2]


def test_integer_strings_read_as_int_reads_them():
    # int(s, 10): spaces around, a leading +, leading zeros, underscores
    # between digits and non-ASCII decimal digits; a reader for strings
    # past the 4300-digit limit must accept the same ones
    entries = ["1_000", " 2", "03", "+5", "\uff11\uff12", " 7\n", "\u0663"]
    assert sequence_from_json({"entries": entries}) == [1000, 2, 3, 5, 12, 7, 3]
    for text in ("1e5", "NaN", "1.0", "_1", "1__0", ""):
        with pytest.raises(ValueError, match="is not a decimal integer"):
            sequence_from_json({"entries": [text]})


@pytest.mark.parametrize(
    "obj",
    [
        {"entries": []},
        {"n": 3, "entries": ["1", "2"]},
        {"entries": ["1", "x"]},
        {"entries": "12"},
        ["1", "2"],
    ],
)
def test_sequence_rejects_malformed(obj):
    with pytest.raises(ValueError):
        sequence_from_json(obj)


def test_series_round_trip_with_fractions():
    series = Series.of([1, Fraction(3, 2), Fraction(-7, 5)])
    obj = series_to_json(series)
    assert obj == {"order": 2, "coeffs": ["1", "3/2", "-7/5"]}
    assert series_from_json(obj) == series


def test_series_accepts_plain_numbers():
    assert series_from_json({"coeffs": [1, -3]}) == Series.of([1, -3])


@pytest.mark.parametrize(
    "read, obj, message",
    [
        (sequence_from_json, {"entries": [True]}, "entry 1 must be an integer, got True"),
        (sequence_from_json, {"entries": [[1]]},
         "entry 1 must be an integer or decimal string, got [1]"),
        (sequence_from_json, {"n": 1}, "sequence object needs an 'entries' field"),
        (series_from_json, {"coeffs": [False]}, "coefficient 0 must be a rational, got False"),
        (series_from_json, {"coeffs": ["1", "1/0"]}, "coefficient 1 is not a rational: '1/0'"),
        (series_from_json, {"coeffs": [[1]]},
         "coefficient 0 must be an integer or 'p/q' string, got [1]"),
        (series_from_json, {"order": 0}, "series object needs a 'coeffs' field"),
        (series_from_json, {"coeffs": []}, "'coeffs' must be a non-empty list"),
        (word_from_json, {"gens": "g"}, "word object needs a 'gens' list"),
        (spec_from_json, {"default": "identity"}, "spec object needs a 'primes' object"),
        (spec_from_json, {"primes": {"2": {"shape": "bounded", "values": []}}},
         "prime 2 needs a non-empty 'values' list"),
        (compile_result_from_json, {"agreement": {}}, "compile result needs a 'word' field"),
        (spec_from_json,
         {"primes": {"2": {"shape": "bounded", "values": [1]},
                     " 2": {"shape": "bounded", "values": [2]}}},
         "prime 2 is keyed twice in 'primes'"),
        (compile_result_from_json, {"word": {"gens": []}, "agreement": {"3": 1, "03": 2}},
         "prime 3 is keyed twice in 'agreement'"),
    ],
)
def test_malformed_input_is_named(read, obj, message):
    with pytest.raises(ValueError) as err:
        read(obj)
    assert str(err.value) == message


def test_series_rejects_order_mismatch():
    with pytest.raises(ValueError):
        series_from_json({"order": 5, "coeffs": ["1", "2"]})


def test_word_round_trip():
    word = Word((Generator.bump(2, 0), Generator.cap(3, 4)))
    obj = word_to_json(word)
    assert obj == {"gens": [{"kind": "g", "p": 2, "t": 0}, {"kind": "h", "p": 3, "t": 4}]}
    assert word_from_json(obj) == word


def test_word_rejects_bad_generators():
    with pytest.raises(ValueError):
        word_from_json({"gens": [{"kind": "q", "p": 2, "t": 0}]})
    with pytest.raises(ValueError):
        word_from_json({"gens": [{"kind": "g", "p": 4, "t": 0}]})
    with pytest.raises(ValueError):
        word_from_json({"gens": [{"kind": "g", "p": 2}]})


def test_spec_round_trip():
    spec = ExponentSpec(
        {2: ExponentFunction.bounded([1]), 5: ExponentFunction.unbounded([0, 2, 4])}
    )
    obj = spec_to_json(spec)
    assert obj["default"] == "identity"
    assert obj["primes"]["2"] == {"shape": "bounded", "values": [1]}
    assert spec_from_json(obj) == spec


def test_spec_rejects_unknown_shape_and_default():
    with pytest.raises(ValueError):
        spec_from_json({"primes": {"2": {"shape": "weird", "values": [0]}}})
    with pytest.raises(ValueError):
        spec_from_json({"primes": {}, "default": "constant"})


def test_compile_result_round_trip():
    result = CompileResult(Word((Generator.bump(2, 1),)), {2: 4, 3: 2})
    obj = compile_result_to_json(result)
    assert obj["agreement"] == {"2": 4, "3": 2}
    back = compile_result_from_json(obj)
    assert back.word == result.word
    assert back.agreement == result.agreement


def test_a_long_bad_value_is_quoted_by_its_prefix_and_length():
    # one over-limit or malformed entry must not come back whole on stderr;
    # a value of up to 100 characters is quoted in full, as before
    cases = [
        (sequence_from_json, {"entries": ["9" * 5000]},
         f"entry 1 is not a decimal integer: {'9' * 100!r}... (5000 characters)"),
        (sequence_from_json, {"entries": ["1", "x" * 101]},
         f"entry 2 is not a decimal integer: {'x' * 100!r}... (101 characters)"),
        (sequence_from_json, {"entries": ["x" * 100]},
         f"entry 1 is not a decimal integer: {'x' * 100!r}"),
        (sequence_from_json, {"entries": [[1] * 1000]},
         f"entry 1 must be an integer or decimal string, got {str([1] * 34)[:100]}... "
         f"(3000 characters)"),
        (series_from_json, {"coeffs": ["1/" + "0" * 200]},
         f"coefficient 0 is not a rational: {('1/' + '0' * 98)!r}... (202 characters)"),
    ]
    for read, obj, message in cases:
        with pytest.raises(ValueError) as err:
            read(obj)
        assert str(err.value) == message


def test_long_count_documents_read_plain_digit_strings_as_decimals():
    # a long document is read in place, so each call gets its own object
    def obj():
        return {"entries": ["12", 5, "+5", " 7", "1_000", "0012", "٣", "40"]}

    long = _counts_from_json(obj(), (_DECIMAL_BYTES_PER_ENTRY + 1) * 8)
    short = _counts_from_json(obj(), _DECIMAL_BYTES_PER_ENTRY * 8)
    assert long == short == sequence_from_json(obj()) == [12, 5, 5, 7, 1000, 12, 3, 40]
    assert [type(a) for a in short] == [int] * 8
    assert [type(a) for a in long] == [Decimal, int, int, int, int, Decimal, int, Decimal]
    with pytest.raises(ValueError, match="sequence entry 2 is -1; expected a non-negative"):
        _counts_from_json({"entries": ["1", "-1"]}, 10**6)
