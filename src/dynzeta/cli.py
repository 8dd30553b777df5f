"""Command line interface: JSON in, JSON out.

Every subcommand reads JSON files in the formats of `dynzeta.jsonio`, writes
one JSON document to stdout (or --out), and exits with

    0   success, or a check that passed
    1   a check that failed (the output explains why)
    2   malformed input or usage error (message on stderr)
    3   an internal failure: the library broke (one line on stderr)

Any ValueError raised while handling a request is exit 2 with its message on
stderr; any other exception is exit 3 with its type and message.

Maps are named, not executed: `identity`, `mul:C`, `pow:B`, `nn`, `succ`,
`gen:KIND:P:T`, `word:FILE`, `spec:FILE`. Count sources are `constant:C`,
`reg:K`, `geometric:B`, `table:FILE`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import localcontext
from functools import cache
from typing import Callable

from . import jsonio
from .compiler import compile_spec
from .exponents import (
    check_divisibility_properties,
    membership_test,
    preimage_structure,
    validate_spec,
)
from .sequences import _mobius_sieve, _verdict
from .series import FixSource, is_zeta, time_change_fix, zeta_from_fix
from .words import Generator, Word, _coincidences, _mul_map, _power_map, eval_word, normal_form

__all__ = ["main"]


class UsageError(ValueError):
    pass


def _load_json(path: str):
    return _load_json_and_size(path)[0]


def _load_json_and_size(path: str) -> tuple[object, int]:
    """The JSON document in path, and the file's size in bytes. An object
    that repeats a key is malformed: json.load would keep only its last
    entry, so the file would silently say something else. So is a document
    nested past the interpreter's recursion limit."""

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise UsageError(f"{path} repeats the key {key!r} in one object")
                seen.add(key)
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys), os.fstat(fh.fileno()).st_size
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise UsageError(f"{path} is not valid JSON: {err}") from None
    except RecursionError:
        raise UsageError(f"{path} nests its JSON too deeply to read") from None


def parse_map(text: str, max_n: int) -> Callable[[int], int]:
    """Resolve a map name to a callable on the positive integers, for a
    request that reads it on 1..max_n: `identity` and `mul:C` (n -> C * n),
    `pow:B` (n -> n**B), `nn` (n -> n**n), `succ` (n -> n + 1),
    `gen:KIND:P:T` (one generator), `word:FILE` and `spec:FILE`.
    dynzeta.words builds them and tells how each kind is read.

    As dividing C takes time linear in max_n, the commands that parse a map
    first make the library's checks on their numbers, with its messages.
    """
    name, _, rest = text.partition(":")
    if name in ("identity", "mul"):
        return _mul_map(1 if name == "identity" else _positive_int(rest, "mul factor"), max_n)
    if name == "pow":
        b = _non_negative_int(rest, "pow exponent")
        return _power_map(lambda n: b)
    if name == "nn":
        return _power_map(lambda n: n)
    if name == "succ":
        return lambda n: n + 1
    if name in ("gen", "generator"):
        parts = rest.split(":")
        if len(parts) != 3:
            raise UsageError(f"expected {name}:KIND:P:T, got {text!r}")
        kind, p, t = parts[0], _positive_int(parts[1], "prime"), _non_negative_int(parts[2], "level")
        return Word((Generator(kind, p, t),)).as_map()
    if name == "word":
        return _load_word(rest).as_map()
    if name == "spec":
        return jsonio.spec_from_json(_load_json(rest))._maps
    raise UsageError(f"unknown map {text!r}")


def parse_source(text: str) -> FixSource:
    name, _, rest = text.partition(":")
    if name == "constant":
        return FixSource.constant(_non_negative_int(rest, "constant value"))
    if name == "reg":
        return FixSource.single_orbit(_positive_int(rest, "orbit length"))
    if name == "geometric":
        return FixSource.geometric(_non_negative_int(rest, "base"))
    if name == "table":
        return FixSource.table(jsonio.sequence_from_json(_load_json(rest)))
    raise UsageError(f"unknown source {text!r}")


def _positive_int(text: str, what: str) -> int:
    value = _non_negative_int(text, what)
    if value < 1:
        raise UsageError(f"{what} must be >= 1, got {value}")
    return value


def _non_negative_int(text: str, what: str) -> int:
    try:
        value = int(text, 10)
    except (ValueError, TypeError):
        raise UsageError(f"{what} must be an integer, got {text!r}") from None
    if value < 0:
        raise UsageError(f"{what} must be >= 0, got {value}")
    return value


def _verdict_json(verdict) -> dict:
    if verdict.passed:
        return {"verdict": "pass"}
    return {
        "verdict": "fail",
        "failure": verdict.failure,
        "index": verdict.index,
        # a long count file's value is a Decimal: written as an int, it
        # meets int's digit limit as every other file's value does
        "value": str(int(verdict.value)),
    }


def cmd_realizable_check(args) -> tuple[int, dict]:
    counts = jsonio._counts_from_json(*_load_json_and_size(args.sequence))
    with localcontext(jsonio._EXACT):
        verdict = _verdict(_mobius_sieve(counts))
    return (0 if verdict.passed else 1), _verdict_json(verdict)


def cmd_zeta_from_fix(args) -> tuple[int, dict]:
    source = parse_source(args.source)
    series = zeta_from_fix(source, args.order)
    return 0, jsonio.series_to_json(series)


def cmd_zeta_check(args) -> tuple[int, dict]:
    series = jsonio.series_from_json(_load_json(args.series))
    verdict = is_zeta(series)
    if verdict.passed:
        return 0, {"verdict": "pass"}
    return 1, {"verdict": "fail", "reason": verdict.reason, "index": verdict.index}


def cmd_apply(args) -> tuple[int, dict]:
    if args.max_n < 1:
        raise ValueError("length must be >= 1")
    h = parse_map(args.map, args.max_n)
    source = parse_source(args.source)
    entries = time_change_fix(h, source, args.max_n)
    return 0, jsonio.sequence_to_json(entries)


def _parse_range(args) -> range:
    if (args.n is None) == (args.range is None):
        raise UsageError("give exactly one of --n or --range A:B")
    if args.n is not None:
        start = stop = _positive_int(args.n, "--n")
    else:
        left, sep, right = args.range.partition(":")
        if not sep:
            raise UsageError(f"--range wants A:B, got {args.range!r}")
        start = _positive_int(left, "range start")
        stop = _positive_int(right, "range end")
        if stop < start:
            raise UsageError(f"empty range {args.range!r}")
    return range(start, stop + 1)


def _load_word(path: str):
    """Read a word file, unwrapping a compile result transparently."""
    obj = _load_json(path)
    if isinstance(obj, dict) and "gens" not in obj and "word" in obj:
        obj = obj["word"]
    return jsonio.word_from_json(obj)


def cmd_word_eval(args) -> tuple[int, dict]:
    word = _load_word(args.word)
    span = _parse_range(args)
    values = [str(eval_word(word, n)) for n in span]
    return 0, {"start": span.start, "values": values}


def cmd_word_normal_form(args) -> tuple[int, dict]:
    word = _load_word(args.word)
    return 0, jsonio.word_to_json(normal_form(word))


def cmd_spec_validate(args) -> tuple[int, dict]:
    spec = jsonio.spec_from_json(_load_json(args.spec))
    violations = validate_spec(spec)
    if not violations:
        return 0, {"valid": True}
    return 1, {
        "valid": False,
        "violations": [
            {"prime": v.prime, "condition": v.condition, "index": v.index, "message": v.message}
            for v in violations
        ],
    }


def cmd_spec_compile(args) -> tuple[int, dict]:
    spec = jsonio.spec_from_json(_load_json(args.spec))
    result = compile_spec(spec)
    return 0, jsonio.compile_result_to_json(result)


def cmd_membership_test(args) -> tuple[int, dict]:
    if args.max_k < 1 or args.max_n < 1:
        raise ValueError("max_k and max_n must be >= 1")
    f = parse_map(args.map, args.max_n)
    report = membership_test(f, args.max_k, args.max_n)
    if report.witness is None:
        return 0, {"result": "no-violation", "max_k": args.max_k, "max_n": args.max_n}
    w = report.witness
    return 1, {
        "result": "witness",
        "k": w.k,
        "failure": w.verdict.failure,
        "index": w.verdict.index,
        "value": str(w.verdict.value),
    }


def cmd_preimage(args) -> tuple[int, dict]:
    if args.k < 1:
        raise ValueError("k must be >= 1")
    if args.max_n < args.k:
        raise ValueError(f"max_n = {args.max_n} must be at least k = {args.k}")
    f = parse_map(args.map, args.max_n)
    structure = preimage_structure(f, args.k, args.max_n)
    out = {"outcome": structure.outcome, "k": structure.k, "max_n": structure.max_n}
    if structure.step is not None:
        out["step"] = structure.step
    if structure.witness is not None:
        out["witness"] = structure.witness
    return (1 if structure.outcome == "violation" else 0), out


def cmd_divisibility_check(args) -> tuple[int, dict]:
    if args.max_n < 1:
        raise ValueError("max_n must be >= 1")
    f = parse_map(args.map, args.max_n)
    report = check_divisibility_properties(f, args.max_n)

    def claim(result):
        if result.holds:
            return {"holds": True}
        return {"holds": False, "counterexample": list(result.counterexample)}

    out = {
        "max_n": args.max_n,
        "divides": claim(report.divides),
        "coprime-lcm": claim(report.coprime_lcm),
        "prime-support": claim(report.prime_support),
    }
    return (0 if report.all_hold else 1), out


def cmd_relation_search(args) -> tuple[int, dict]:
    """Look for distinct normal forms that still agree up to --max-n.

    Words are drawn with the given seed, seed + 1, ... and normalized;
    repeated normal forms are dropped. The search makes one pass per drawn
    word on plain (kind, prime, level) values: the draw is folded into its
    per-prime exponent tables, and its key, those tables cut to 1..max_n,
    comes in the same loop (see words._coincidences). Forms with equal keys
    agree on all of 1..max_n; they are grouped by key, groups in order of
    first sighting, and every pair of a group is reported, in first-seen
    order; only the words of those pairs are built. Normal forms are
    canonical, so the two words of a hit are distinct maps: each hit agrees
    on 1..max_n and differs at some p**v beyond it.
    """
    count = _non_negative_int(args.count, "--count")
    pairs = _coincidences(args.seed, count, args.length, args.max_prime, args.max_level, args.max_n)
    coincidences = [
        {
            "left": jsonio.word_to_json(left),
            "right": jsonio.word_to_json(right),
            "agree_up_to": args.max_n,
        }
        for left, right in pairs
    ]
    return 0, {
        "seed": args.seed,
        "count": count,
        "max_n": args.max_n,
        "coincidences": coincidences,
    }


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and every call starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="dynzeta",
        description="Exact arithmetic for dynamical zeta functions and time-changes.",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    sub.required = True

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write the JSON result to this file instead of stdout")
        return p

    p = add("realizable-check", cmd_realizable_check, "check a count sequence file")
    p.add_argument("sequence", help="sequence JSON file")

    p = add("zeta-from-fix", cmd_zeta_from_fix, "zeta series of a count source")
    p.add_argument("--source", required=True)
    p.add_argument("--order", required=True, type=int)

    p = add("zeta-check", cmd_zeta_check, "check that a series is a zeta prefix")
    p.add_argument("series", help="series JSON file")

    p = add("apply", cmd_apply, "time-change a count source by a map")
    p.add_argument("--map", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--max-n", required=True, type=int)

    p = add("word-eval", cmd_word_eval, "evaluate a word on a point or range")
    p.add_argument("word", help="word JSON file")
    p.add_argument("--n")
    p.add_argument("--range", help="A:B inclusive")

    p = add("word-normal-form", cmd_word_normal_form, "bumps-then-caps normal form")
    p.add_argument("word", help="word JSON file")

    p = add("spec-validate", cmd_spec_validate, "validate an exponent spec")
    p.add_argument("spec", help="spec JSON file")

    p = add("spec-compile", cmd_spec_compile, "compile a spec to a word")
    p.add_argument("spec", help="spec JSON file")

    p = add("membership-test", cmd_membership_test, "single-orbit refutation probes")
    p.add_argument("--map", required=True)
    p.add_argument("--max-k", required=True, type=int)
    p.add_argument("--max-n", required=True, type=int)

    p = add("preimage", cmd_preimage, "structure of a preimage of multiples of k")
    p.add_argument("--map", required=True)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--max-n", required=True, type=int)

    p = add("divisibility-check", cmd_divisibility_check, "divisibility law report")
    p.add_argument("--map", required=True)
    p.add_argument("--max-n", required=True, type=int)

    p = add("relation-search", cmd_relation_search, "search for coinciding normal forms")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--count", default="100")
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--max-prime", type=int, default=7)
    p.add_argument("--max-level", type=int, default=4)
    p.add_argument("--max-n", type=int, default=10000)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize the rest
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload = args.handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
