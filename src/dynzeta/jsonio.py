"""JSON wire formats.

Integers travel as decimal strings and rationals as "p/q" strings so that
arbitrary precision survives any JSON parser. Readers are lenient (plain
JSON numbers are also accepted); writers always emit strings and build
every object in a fixed key order, so identical inputs serialize to
identical bytes.

The realizability check reads a long count file as exact decimals. Where a
file's entries average more than _DECIMAL_BYTES_PER_ENTRY bytes, each plain
digit string becomes a `decimal.Decimal` (libmpdec reads digits in linear
time, int() in quadratic time), and the Moebius sieve and the verdict run on
them under _EXACT, where every operation is exact or raises. None of these
strings becomes an int, and the file's verdicts, messages and output bytes
are those of the int path, which every other file and reader keeps.

    sequence        {"n": N, "entries": ["2", "4", ...]}
    series          {"order": N, "coeffs": ["1", "3/2", ...]}
    word            {"gens": [{"kind": "g", "p": 2, "t": 0}, ...]}
    spec            {"primes": {"2": {"shape": "bounded", "values": [1]}},
                     "default": "identity"}
    compile result  {"word": <word>, "agreement": {"2": 4}}
"""

from __future__ import annotations

import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation, Rounded
from fractions import Fraction

from .compiler import CompileResult
from .exponents import ExponentFunction, ExponentSpec
from .sequences import _validate_counts
from .series import Series
from .words import Generator, Word

__all__ = [
    "sequence_to_json",
    "sequence_from_json",
    "series_to_json",
    "series_from_json",
    "word_to_json",
    "word_from_json",
    "spec_to_json",
    "spec_from_json",
    "compile_result_to_json",
    "compile_result_from_json",
]


# The realizability check of a file whose entries all have the same length
# takes the same time on ints and on decimals near 650 bytes per entry
# (2000 entries, Python 3.11): int arithmetic wins on shorter numbers, and
# libmpdec's linear reader on longer ones. From 1000 bytes the decimals are
# at least a fifth faster, and at 3000 bytes 3x faster.
_DECIMAL_BYTES_PER_ENTRY = 1000

# Decimal arithmetic with no digit limit short of libmpdec's own, in which a
# rounded, inexact or invalid result raises.
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, InvalidOperation]
)

# An error message quotes at most this many characters of a bad value.
_QUOTED_CHARS = 100


def _quote(value) -> str:
    """repr(value), or past _QUOTED_CHARS characters its first ones and its
    length, so that one bad entry of any size makes a short message."""
    if isinstance(value, str):
        if len(value) <= _QUOTED_CHARS:
            return repr(value)
        return f"{value[:_QUOTED_CHARS]!r}... ({len(value)} characters)"
    text = repr(value)
    if len(text) <= _QUOTED_CHARS:
        return text
    return f"{text[:_QUOTED_CHARS]}... ({len(text)} characters)"


def _as_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ValueError(f"{what} is not a decimal integer: {_quote(value)}") from None
    raise ValueError(f"{what} must be an integer or decimal string, got {_quote(value)}")


def _as_count(value, what: str) -> int | Decimal:
    """_as_int, but an ASCII digit string within int's digit limit becomes an
    exact Decimal. int(s, 10) reads every such string, and as the same
    number; each test here is O(1) or a memchr scan. A string that passes
    them and still holds a non-digit ("1 2") goes to _as_int with the rest,
    which gives int's verdict and message."""
    if (
        isinstance(value, str)
        and value.isascii()
        and value[:1].isdigit()
        and value[-1:].isdigit()
        and len(value) <= sys.get_int_max_str_digits()
        and "_" not in value
        and "." not in value
        and "e" not in value
        and "E" not in value
    ):
        try:
            return _EXACT.create_decimal(value)
        except InvalidOperation:
            pass
    return _as_int(value, what)


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{what} is not a rational: {_quote(value)}") from None
    raise ValueError(f"{what} must be an integer or 'p/q' string, got {_quote(value)}")


def _expect_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def sequence_to_json(entries: list[int]) -> dict:
    return {"n": len(entries), "entries": [str(a) for a in entries]}


def sequence_from_json(obj) -> list[int]:
    return _sequence_from_json(obj, 0)


def _sequence_from_json(obj, size: int) -> list:
    """sequence_from_json of a document of size bytes. Where its entries
    average more than _DECIMAL_BYTES_PER_ENTRY bytes, they are read by
    _as_count in place, in obj's own list: each string is freed as soon as
    it is read and the decimals reuse its memory, where a second list kept
    every string alive and left the heap fragmented for the next file."""
    obj = _expect_object(obj, "sequence")
    if "entries" not in obj:
        raise ValueError("sequence object needs an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'entries' must be a non-empty list")
    if size > _DECIMAL_BYTES_PER_ENTRY * len(entries):
        for i, v in enumerate(entries):
            entries[i] = _as_count(v, f"entry {i + 1}")
        out = entries
    else:
        out = [_as_int(v, f"entry {i + 1}") for i, v in enumerate(entries)]
    if "n" in obj and _as_int(obj["n"], "'n'") != len(out):
        raise ValueError(f"'n' = {obj['n']} does not match {len(out)} entries")
    return out


def _counts_from_json(obj, size: int) -> list:
    """The counts of a sequence document of size bytes, checked as
    check_realizable checks them and with its messages, for _mobius_sieve
    and _verdict under _EXACT. A long file's plain digit strings are exact
    Decimals (see the module docstring), read in place in obj; every other
    entry is an int."""
    counts = _sequence_from_json(obj, size)
    _validate_counts(counts, kinds=(int, Decimal))
    return counts


def series_to_json(series: Series) -> dict:
    return {"order": series.order, "coeffs": [str(c) for c in series.coeffs]}


def series_from_json(obj) -> Series:
    obj = _expect_object(obj, "series")
    if "coeffs" not in obj:
        raise ValueError("series object needs a 'coeffs' field")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or not coeffs:
        raise ValueError("'coeffs' must be a non-empty list")
    out = [_as_fraction(v, f"coefficient {i}") for i, v in enumerate(coeffs)]
    if "order" in obj and _as_int(obj["order"], "'order'") != len(out) - 1:
        raise ValueError(f"'order' = {obj['order']} does not match {len(out)} coefficients")
    return Series(tuple(out))


def word_to_json(word: Word) -> dict:
    return {
        "gens": [{"kind": g.kind, "p": g.prime, "t": g.level} for g in word.gens]
    }


def word_from_json(obj) -> Word:
    obj = _expect_object(obj, "word")
    gens = obj.get("gens")
    if not isinstance(gens, list):
        raise ValueError("word object needs a 'gens' list")
    out = []
    for i, g in enumerate(gens):
        g = _expect_object(g, f"generator {i}")
        for field in ("kind", "p", "t"):
            if field not in g:
                raise ValueError(f"generator {i} is missing '{field}'")
        out.append(Generator(g["kind"], _as_int(g["p"], "'p'"), _as_int(g["t"], "'t'")))
    return Word(tuple(out))


def spec_to_json(spec: ExponentSpec) -> dict:
    return {
        "primes": {
            str(p): {"shape": fn.shape, "values": list(fn.values)}
            for p, fn in spec.functions.items()
        },
        "default": "identity",
    }


def spec_from_json(obj) -> ExponentSpec:
    obj = _expect_object(obj, "spec")
    primes = obj.get("primes")
    if not isinstance(primes, dict):
        raise ValueError("spec object needs a 'primes' object")
    if obj.get("default", "identity") != "identity":
        raise ValueError("only the identity default is supported")
    funcs = {}
    for key, body in primes.items():
        p = _as_int(key, "prime key")
        if p in funcs:
            raise ValueError(f"prime {p} is keyed twice in 'primes'")
        body = _expect_object(body, f"entry for prime {p}")
        shape = body.get("shape")
        values = body.get("values")
        if not isinstance(values, list) or not values:
            raise ValueError(f"prime {p} needs a non-empty 'values' list")
        funcs[p] = ExponentFunction(
            shape, tuple(_as_int(v, f"value for prime {p}") for v in values)
        )
    return ExponentSpec(funcs)


def compile_result_to_json(result: CompileResult) -> dict:
    return {
        "word": word_to_json(result.word),
        "agreement": {str(p): b for p, b in sorted(result.agreement.items())},
    }


def compile_result_from_json(obj) -> CompileResult:
    obj = _expect_object(obj, "compile result")
    if "word" not in obj:
        raise ValueError("compile result needs a 'word' field")
    agreement_obj = obj.get("agreement", {})
    agreement_obj = _expect_object(agreement_obj, "'agreement'")
    agreement = {}
    for k, v in agreement_obj.items():
        p = _as_int(k, "agreement prime")
        if p in agreement:
            raise ValueError(f"prime {p} is keyed twice in 'agreement'")
        agreement[p] = _as_int(v, "agreement bound")
    return CompileResult(word_from_json(obj["word"]), agreement)
