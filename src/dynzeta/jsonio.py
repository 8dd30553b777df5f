"""JSON wire formats.

Integers travel as decimal strings and rationals as "p/q" strings so that
arbitrary precision survives any JSON parser. Readers are lenient (plain
JSON numbers are also accepted); writers always emit strings and build
every object in a fixed key order, so identical inputs serialize to
identical bytes.

    sequence        {"n": N, "entries": ["2", "4", ...]}
    series          {"order": N, "coeffs": ["1", "3/2", ...]}
    word            {"gens": [{"kind": "g", "p": 2, "t": 0}, ...]}
    spec            {"primes": {"2": {"shape": "bounded", "values": [1]}},
                     "default": "identity"}
    compile result  {"word": <word>, "agreement": {"2": 4}}
"""

from __future__ import annotations

from fractions import Fraction

from .compiler import CompileResult
from .exponents import ExponentFunction, ExponentSpec
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


def _as_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ValueError(f"{what} is not a decimal integer: {value!r}") from None
    raise ValueError(f"{what} must be an integer or decimal string, got {value!r}")


def _as_fraction(value, what: str) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"{what} must be a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{what} is not a rational: {value!r}") from None
    raise ValueError(f"{what} must be an integer or 'p/q' string, got {value!r}")


def _expect_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def sequence_to_json(entries: list[int]) -> dict:
    return {"n": len(entries), "entries": [str(a) for a in entries]}


def sequence_from_json(obj) -> list[int]:
    obj = _expect_object(obj, "sequence")
    if "entries" not in obj:
        raise ValueError("sequence object needs an 'entries' field")
    entries = obj["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValueError("'entries' must be a non-empty list")
    out = [_as_int(v, f"entry {i + 1}") for i, v in enumerate(entries)]
    if "n" in obj and _as_int(obj["n"], "'n'") != len(out):
        raise ValueError(f"'n' = {obj['n']} does not match {len(out)} entries")
    return out


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
