"""Check one request's output against the oracles.

`check` returns "ok", "failed: ..." when the request exited 2 or raised, or
"wrong: ..." when it returned something the oracle rejects. Exit code 1 with
the expected failing verdict is a success.
"""

from __future__ import annotations

import json

import oracles
from oracles import dec_to_int


def check(req: dict, code, text: str, error: str) -> str:
    if code is None:
        return f"failed: raised {error}"
    if code == 2:
        return f"failed: exit 2: {error}"
    try:
        out = json.loads(text)
        problem = _CHECKS[req["kind"]](req["expect"], code, out)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        problem = f"unreadable output ({type(err).__name__}: {err})"
    return "ok" if problem is None else f"wrong: {problem}"


def _expect_code(code, want):
    return None if code == want else f"exit {code}, expected {want}"


def _verdict(expected, code, out):
    """Output of a realizability-style verdict: pass, or the failing index
    with its exact transformed value."""
    if expected is None:
        return _expect_code(code, 0) or (None if out == {"verdict": "pass"} else f"got {out}")
    failure, index, value = expected
    if code != 1 or set(out) != {"verdict", "failure", "index", "value"}:
        return f"exit {code} with {sorted(out)}, expected a {failure} failure at {index}"
    if (out["verdict"], out["failure"], out["index"]) != ("fail", failure, index):
        return f"got {out['failure']} at {out['index']}, expected {failure} at {index}"
    if dec_to_int(out["value"]) != value:
        return f"wrong value at index {index}"
    return None


def _entries(src_expect) -> list[int]:
    if "shift" in src_expect:
        return [src_expect["shift"] ** n for n in range(1, src_expect["n"] + 1)]
    return src_expect["entries"]


def check_realizable(expect, code, out):
    return _verdict(oracles.realizability(_entries(expect)), code, out)


def check_zeta_from_fix(expect, code, out):
    order = expect["order"]
    if "shift" in expect:
        coeffs = oracles.full_shift_zeta(expect["shift"], order)
    else:
        coeffs = oracles.euler_product(expect["orbits"], order)
    if code != 0 or out.get("order") != order or len(out.get("coeffs", ())) != order + 1:
        return f"exit {code}, order {out.get('order')}, expected order {order}"
    for n, (got, want) in enumerate(zip(out["coeffs"], coeffs)):
        if dec_to_int(got) != want:
            return f"coefficient {n} differs from the Euler product"
    return None


def check_zeta_check(expect, code, out):
    if expect["verdict"] is None:
        return _expect_code(code, 0) or (None if out == {"verdict": "pass"} else f"got {out}")
    reason, index = expect["verdict"]
    want = {"verdict": "fail", "reason": reason, "index": index}
    return _expect_code(code, 1) or (None if out == want else f"got {out}, expected {want}")


def _gens(obj) -> list[tuple]:
    return [(g["kind"], int(g["p"]), int(g["t"])) for g in obj["gens"]]


def _agreement(spec) -> dict:
    return {str(p): len(v) - 1 for p, (shape, v) in sorted(spec.items()) if shape == "unbounded"}


def _compiled(spec, gens, agreement):
    if not oracles.word_matches_spec(gens, spec):
        return "compiled word does not realize the spec"
    if agreement != _agreement(spec):
        return f"agreement {agreement}, expected {_agreement(spec)}"
    return None


def check_spec_compile(expect, code, out):
    return _expect_code(code, 0) or _compiled(expect["spec"], _gens(out["word"]), out["agreement"])


def check_compile_verify(expect, code, out):
    gens = [tuple(g) for g in out["word"]]
    problem = _expect_code(code, 0) or _compiled(expect["spec"], gens, out["agreement"])
    if problem is None and out["mismatch"] is not None:
        problem = f"verify_compile reported a mismatch {out['mismatch']}"
    return problem


def _normal_of(word, nf):
    if not oracles.is_normal_shape(nf):
        return "normal form is not bumps-then-caps"
    if not oracles.same_word_maps(word, nf):
        return "normal form acts differently from its word"
    return None


def check_word_normal_form(expect, code, out):
    return _expect_code(code, 0) or _normal_of(expect["gens"], _gens(out))


def check_normal_form(expect, code, out):
    word = [tuple(g) for g in out["word"]]
    e = expect
    if word != oracles.random_word_gens(e["seed"], e["length"], e["max_prime"], e["max_level"]):
        return "random_word drew a different word for its seed"
    problem = _normal_of(word, [tuple(g) for g in out["normal_form"]])
    if problem is None and (out["normal_shape"] is not True or out["witness"] is not None):
        problem = f"is_normal_shape={out['normal_shape']}, equal_upto witness {out['witness']}"
    return problem


def _log_floor(max_n: int, p: int) -> int:
    e = 0
    while p ** (e + 1) <= max_n:
        e += 1
    return e


def check_relation_search(expect, code, out):
    header = {k: out.get(k) for k in ("seed", "count", "max_n")}
    if code != 0 or header != expect:
        return f"exit {code}, header {header}, expected {expect}"
    max_n = expect["max_n"]
    for pair in out["coincidences"]:
        left, right = _gens(pair["left"]), _gens(pair["right"])
        if left == right or pair["agree_up_to"] != max_n:
            return "a coincidence repeats one word or names another bound"
        if not (oracles.is_normal_shape(left) and oracles.is_normal_shape(right)):
            return "a coincidence holds a word that is not a normal form"
        # Words act prime by prime, so they agree on 1..max_n exactly when
        # they agree at every prime power p^v <= max_n.
        if not oracles.same_word_maps(left, right, lambda p: _log_floor(max_n, p)):
            return "a reported coincidence disagrees on the prefix"
    return None


def _values(expect) -> list[int]:
    return [oracles.map_value(expect["map"], n) for n in range(1, expect["max_n"] + 1)]


def check_membership(expect, code, out):
    found = oracles.membership(_values(expect), expect["max_k"])
    if found is None:
        want = {"result": "no-violation", "max_k": expect["max_k"], "max_n": expect["max_n"]}
        return _expect_code(code, 0) or (None if out == want else f"got {out}")
    k, (failure, index, value) = found
    if code != 1 or out.get("result") != "witness" or out.get("k") != k:
        return f"exit {code} with {out.get('result')} k={out.get('k')}, expected witness k={k}"
    rest = {key: out[key] for key in out if key not in ("result", "k")}
    return _verdict((failure, index, value), code, {"verdict": "fail", **rest})


def check_preimage(expect, code, out):
    values = _values(expect)
    want = oracles.preimage(values, expect["k"])
    want_code = 1 if want["outcome"] == "violation" else 0
    return _expect_code(code, want_code) or (None if out == want else f"got {out}, expected {want}")


def check_divisibility(expect, code, out):
    want = oracles.divisibility(_values(expect))
    holds = all(want[k]["holds"] for k in ("divides", "coprime-lcm", "prime-support"))
    return _expect_code(code, 0 if holds else 1) or (
        None if out == want else f"got {out}, expected {want}")


def check_apply(expect, code, out):
    max_n = expect["max_n"]
    want = [oracles.source_value(expect["source"], oracles.map_value(expect["map"], n))
            for n in range(1, max_n + 1)]
    if code != 0 or out.get("n") != max_n or len(out.get("entries", ())) != max_n:
        return f"exit {code} with n={out.get('n')}, expected {max_n} entries"
    for n, (got, value) in enumerate(zip(out["entries"], want), start=1):
        if dec_to_int(got) != value:
            return f"entry {n} differs"
    return None


_CHECKS = {
    "realizable-check": check_realizable,
    "zeta-from-fix": check_zeta_from_fix,
    "zeta-check": check_zeta_check,
    "spec-compile": check_spec_compile,
    "word-normal-form": check_word_normal_form,
    "compile-verify": check_compile_verify,
    "normal-form": check_normal_form,
    "relation-search": check_relation_search,
    "membership-test": check_membership,
    "preimage": check_preimage,
    "divisibility-check": check_divisibility,
    "apply": check_apply,
}
