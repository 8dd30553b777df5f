"""Seeded request generation for the three workloads.

A run is a sequence of rounds. Every round of a workload holds the same
requests per (kind, size class, variant); only the seeded values differ.
Round r draws its values from `random.Random("<workload>/<seed>/<r % CYCLE>")`,
so a run that outlasts CYCLE rounds repeats earlier inputs, which keeps the
oracle work of a long run bounded.

Each request is a dict:

    id        "<round>:<slot>"
    kind      CLI subcommand or library job name
    size      "small" or "large"
    argv      CLI arguments (CLI requests), or
    job       JSON-able arguments of a library job
    files     {path: zero-argument function returning the file text}
    expect    what the oracle needs; never shown to the program
    over_limit  why the request cannot succeed while CPython's 4300-digit
              int<->str limit applies to the wire format, or None

Nothing here imports dynzeta, and building a round does no oracle work, so
it stays cheap. run.py builds each round when the workload process asks for
it, outside that process and off its clock.
"""

from __future__ import annotations

import json
import math
import random

import oracles

CYCLE = 12
PRIMES_13 = (2, 3, 5, 7, 11, 13)

# Size parameters per class; "large" is about 4x "small".
REALIZABLE_N = {"small": 2500, "large": 10000}
ZETA_FROM_FIX_ORDER = {"small": 100, "large": 400}
ZETA_CHECK_ORDER = {"small": 100, "large": 300}
VERIFY_MAX_N = {"small": 25000, "large": 100000}
NORMAL_FORM_MAX_N = {"small": 2500, "large": 10000}
WORD_LENGTH = {"small": 5, "large": 20}
SPEC_SHAPE = {"small": (2, 3), "large": (6, 6)}  # (mapped primes, max table entries)
RELATION_COUNT = {"small": 100, "large": 400}
MEMBERSHIP_MAX_N = {"small": 500, "large": 2000}
PREIMAGE_MAX_N = {"small": 2500, "large": 10000}
DIVISIBILITY_MAX_N = {"small": 500, "large": 2000}
APPLY_MAX_N = {"small": 32, "large": 128}
MEMBERSHIP_MAX_K = 24
RELATION_MAX_N = 10000
SAFE_DIGITS = 4000  # values on requests meant to succeed stay below this
TABLE_FACTOR = 8  # table sources cover at most 8 * max_n entries

# (kind, size, variant, copies per round)
SLOTS = {
    "zeta": [
        ("realizable-check", "small", "orbits", 3),
        ("realizable-check", "small", "perturbed", 3),
        ("realizable-check", "small", "full-shift", 2),
        ("realizable-check", "large", "orbits", 1),
        ("realizable-check", "large", "perturbed", 2),
        ("realizable-check", "large", "full-shift", 1),
        ("zeta-from-fix", "small", "geometric", 2),
        ("zeta-from-fix", "small", "reg", 2),
        ("zeta-from-fix", "small", "table", 2),
        ("zeta-from-fix", "large", "geometric", 1),
        ("zeta-from-fix", "large", "reg", 1),
        ("zeta-from-fix", "large", "table", 1),
        ("zeta-check", "small", "genuine-orbits", 2),
        ("zeta-check", "small", "genuine-shift", 1),
        ("zeta-check", "small", "constant", 1),
        ("zeta-check", "small", "nonintegral", 1),
        ("zeta-check", "small", "negative", 1),
        ("zeta-check", "large", "genuine-orbits", 1),
        ("zeta-check", "large", "nonintegral", 1),
    ],
    "monoid": [
        ("spec-compile", "small", "", 3),
        ("spec-compile", "large", "", 2),
        ("word-normal-form", "small", "", 3),
        ("word-normal-form", "large", "", 2),
        ("compile-verify", "small", "", 3),
        ("compile-verify", "large", "", 4),
        ("normal-form", "small", "", 4),
        ("normal-form", "large", "", 2),
        ("relation-search", "small", "", 2),
        ("relation-search", "large", "", 1),
    ],
    "maps": [
        ("membership-test", "small", "cword", 1),
        ("membership-test", "small", "spec", 1),
        ("membership-test", "small", "nn", 1),
        ("membership-test", "small", "succ", 1),
        ("membership-test", "large", "nn", 1),
        ("preimage", "small", "word", 1),
        ("preimage", "small", "spec", 1),
        ("preimage", "small", "gen", 1),
        ("preimage", "small", "mul", 1),
        ("preimage", "small", "pow", 1),
        ("preimage", "small", "succ", 1),
        ("preimage", "small", "mul", 1),
        ("preimage", "small", "gen", 1),
        ("preimage", "large", "cword", 1),
        ("preimage", "large", "spec", 1),
        ("preimage", "large", "gen", 1),
        ("divisibility-check", "small", "word", 1),
        ("divisibility-check", "small", "spec", 1),
        ("divisibility-check", "small", "mul", 1),
        ("divisibility-check", "small", "succ", 1),
        ("divisibility-check", "large", "cword", 1),
        ("divisibility-check", "large", "gen", 1),
        ("divisibility-check", "large", "pow", 1),
        ("apply", "small", "identity/geometric", 1),
        ("apply", "small", "mul/table", 1),
        ("apply", "small", "pow/geometric", 1),
        ("apply", "small", "nn/reg", 1),
        ("apply", "small", "succ/table", 1),
        ("apply", "small", "gen/geometric", 1),
        ("apply", "small", "word/reg", 1),
        ("apply", "small", "spec/table", 1),
        ("apply", "small", "identity/geometric", 1),
        ("apply", "small", "gen/geometric", 1),
        ("apply", "small", "succ/table", 1),
        ("apply", "large", "mul/geometric", 1),
        ("apply", "large", "word/table", 1),
        ("apply", "large", "nn/reg", 1),
        ("apply", "large", "spec/geometric", 1),
        ("apply", "large", "pow/geometric-over-limit", 1),
        ("apply", "large", "mul/table-over-limit", 1),
    ],
}
WORKLOADS = tuple(SLOTS)


def _request(rng, kind, size, variant, prefix, rid) -> dict:
    req = {"files": {}, "over_limit": None, **_BUILDERS[kind](rng, size, variant, prefix)}
    req.update(id=rid, kind=kind, size=size, variant=variant)
    return req


def build_round(workload: str, seed: int, r: int, work: str) -> list[dict]:
    """The requests of round r, in the order the client sends them."""
    cycle = r % CYCLE
    rng = random.Random(f"{workload}/{seed}/{cycle}")
    requests = []
    for kind, size, variant, copies in SLOTS[workload]:
        for _ in range(copies):
            slot = len(requests)
            requests.append(_request(rng, kind, size, variant, f"{work}/c{cycle}_{slot}",
                                     f"{r}:{slot}"))
    rng.shuffle(requests)
    return requests


def build_warmup(workload: str, seed: int, work: str) -> list[dict]:
    """One small request of each kind, drawn apart from every round."""
    rng = random.Random(f"{workload}/{seed}/warmup")
    requests, seen = [], set()
    for kind, size, variant, _ in SLOTS[workload]:
        if size == "small" and kind not in seen:
            seen.add(kind)
            requests.append(_request(rng, kind, size, variant, f"{work}/warm_{len(seen)}",
                                     f"warmup:{kind}"))
    return requests


# -- file contents ---------------------------------------------------------------

def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _sequence_text(entries) -> str:
    body = ",".join('"' + oracles.int_to_dec(a) + '"' for a in entries)
    return '{"n":%d,"entries":[%s]}' % (len(entries), body)


def _series_text(coeffs) -> str:
    return _json({"order": len(coeffs) - 1, "coeffs": coeffs})


def _word_obj(gens) -> dict:
    return {"gens": [{"kind": k, "p": p, "t": t} for k, p, t in gens]}


def _spec_obj(spec: dict) -> dict:
    return {
        "primes": {str(p): {"shape": s, "values": list(v)} for p, (s, v) in sorted(spec.items())},
        "default": "identity",
    }


# -- zeta --------------------------------------------------------------------------

def _orbits(rng, length: int) -> dict[int, int]:
    return {d: c for d in range(1, length + 1) if (c := rng.randint(0, 2))}


def _full_shift_file(work_file: str, base: int, length: int):
    return {work_file: lambda: _sequence_text([base**n for n in range(1, length + 1)])}


def _realizable_check(rng, size, variant, prefix):
    n = REALIZABLE_N[size]
    if variant == "full-shift":
        # below the digit limit: 2**10000 has 3011 digits, 3**2500 has 1193
        base = 2 if size == "large" else 3
        path = f"{prefix.rsplit('/', 1)[0]}/fullshift_{base}_{n}.json"
        return {"argv": ["realizable-check", path], "files": _full_shift_file(path, base, n),
                "expect": {"shift": base, "n": n}}
    orbits = _orbits(rng, n)
    entries = oracles.fix_from_orbit_counts(orbits, n)
    if variant == "perturbed":
        j = rng.randint(n // 2, n)
        rest = entries[j - 1] - j * orbits.get(j, 0)
        if rest >= j:
            entries[j - 1] = rest - j  # b_j becomes -j: a sign failure at j
        else:
            entries[j - 1] += 1  # b_j becomes j*O_j + 1: a Dold failure at j
    path = f"{prefix}.json"
    return {"argv": ["realizable-check", path],
            "files": {path: lambda: _sequence_text(entries)},
            "expect": {"entries": entries}}


def _zeta_from_fix(rng, size, variant, prefix):
    order = ZETA_FROM_FIX_ORDER[size]
    argv = ["zeta-from-fix", "--order", str(order), "--source"]
    if variant == "geometric":
        base = 3
        return {"argv": argv + [f"geometric:{base}"], "expect": {"shift": base, "order": order}}
    if variant == "reg":
        k = rng.randint(1, order)
        return {"argv": argv + [f"reg:{k}"], "expect": {"orbits": {k: 1}, "order": order}}
    orbits = _orbits(rng, order)
    entries = oracles.fix_from_orbit_counts(orbits, order)
    path = f"{prefix}.json"
    return {"argv": argv + [f"table:{path}"],
            "files": {path: lambda: _sequence_text(entries)},
            "expect": {"orbits": orbits, "order": order}}


def _zeta_check(rng, size, variant, prefix):
    order = ZETA_CHECK_ORDER[size]
    if variant == "genuine-shift":
        base = 3
        coeffs = oracles.full_shift_zeta(base, order)
    else:
        orbits = _orbits(rng, order)
        coeffs = oracles.euler_product(orbits, order)
    text = [str(c) for c in coeffs]
    expect = {"verdict": None}
    if variant == "constant":
        text[0] = "2"
        expect = {"verdict": ("constant_term_not_one", None)}
    elif variant in ("nonintegral", "negative"):
        j = rng.randint(order - order // 8, order)
        if variant == "nonintegral":
            # shifts the log coefficient at j by 1/(2j), so a_j gains 1/2
            text[j] = f"{coeffs[j] * 2 * j + 1}/{2 * j}"
            expect = {"verdict": ("non_integer_log_coefficient", j)}
        else:
            a_j = oracles.fix_from_orbit_counts(orbits, j)[-1]
            # moves a_j by -j*(a_j // j + 1), to a_j mod j - j < 0
            text[j] = str(coeffs[j] - (a_j // j + 1))
            expect = {"verdict": ("negative_count", j)}
    path = f"{prefix}.json"
    return {"argv": ["zeta-check", path],
            "files": {path: lambda: _series_text(text)}, "expect": expect}


# -- monoid ------------------------------------------------------------------------

def random_spec(rng, primes, max_entries: int, max_eventual: int = 6) -> dict:
    """A valid spec {p: (shape, values)}: non-decreasing tables with
    d(i) >= i on the whole unbounded table, or up to the eventual value."""
    spec = {}
    for p in primes:
        length = rng.randint(1, max_entries)
        if rng.randint(0, 1):
            values, prev = [], 0
            for i in range(length):
                prev = max(prev, i) + rng.randint(0, 2)
                values.append(prev)
            spec[p] = ("unbounded", values)
        else:
            s = min(length - 1, max_eventual)
            eventual = rng.randint(s, max_eventual)
            values, prev = [], 0
            for i in range(s):
                prev = rng.randint(max(i, prev), eventual)
                values.append(prev)
            values.append(eventual)
            spec[p] = ("bounded", values)
    return spec


def random_gens(rng, length: int, primes, max_level: int):
    return [(rng.choice("gh"), rng.choice(primes), rng.randint(0, max_level))
            for _ in range(length)]


def compiled_gens(spec: dict):
    """Bump blocks per prime in descending level order, then one cap per
    bounded prime at its eventual value: the construction that realizes a
    valid spec exactly on its defined exponents."""
    bumps, caps = [], []
    for p, (shape, values) in sorted(spec.items()):
        top = len(values) - 1
        if shape == "bounded":
            while top > 0 and values[top - 1] == values[-1]:
                top -= 1
        for t in range(top, -1, -1):
            bumps += [("g", p, level) for level in range(t, values[t])]
        if shape == "bounded":
            caps.append(("h", p, values[-1]))
    return bumps + caps


def _spec_compile(rng, size, variant, prefix):
    count, entries = SPEC_SHAPE[size]
    spec = random_spec(rng, sorted(rng.sample(PRIMES_13, count)), entries)
    path = f"{prefix}.json"
    return {"argv": ["spec-compile", path], "files": {path: lambda: _json(_spec_obj(spec))},
            "expect": {"spec": spec}}


def _word_normal_form(rng, size, variant, prefix):
    gens = random_gens(rng, WORD_LENGTH[size], PRIMES_13, 5)
    path = f"{prefix}.json"
    return {"argv": ["word-normal-form", path], "files": {path: lambda: _json(_word_obj(gens))},
            "expect": {"gens": gens}}


def _compile_verify(rng, size, variant, prefix):
    # two primes of each shape, so the agreement set always has two primes
    spec = {}
    while sorted(shape for shape, _ in spec.values()) != ["bounded"] * 2 + ["unbounded"] * 2:
        spec = random_spec(rng, sorted(rng.sample(PRIMES_13, 4)), 6)
    job = {"spec": [[p, s, v] for p, (s, v) in sorted(spec.items())],
           "max_n": VERIFY_MAX_N[size]}
    return {"job": job, "expect": {"spec": spec}}


def _normal_form(rng, size, variant, prefix):
    job = {"seed": rng.randrange(10**9), "length": rng.randint(16, 20),
           "max_prime": 7, "max_level": 5, "max_n": NORMAL_FORM_MAX_N[size]}
    return {"job": job, "expect": dict(job)}


def _relation_search(rng, size, variant, prefix):
    seed = rng.randrange(10**9)
    count = RELATION_COUNT[size]
    argv = ["relation-search", "--seed", str(seed), "--count", str(count),
            "--max-n", str(RELATION_MAX_N)]
    return {"argv": argv, "expect": {"seed": seed, "count": count, "max_n": RELATION_MAX_N}}


# -- maps --------------------------------------------------------------------------

def _member_spec(rng, max_n: int, primes=PRIMES_13) -> dict:
    """A valid spec evaluable on 1..max_n: bounded tables, or unbounded ones
    long enough to cover every exponent below max_n (primes >= 5 only)."""
    spec = {}
    for p in sorted(rng.sample(primes, min(3, len(primes)))):
        if p >= 5 and rng.randint(0, 1):
            length = int(math.log(max_n, p)) + 2
            values, prev = [], 0
            for i in range(length):
                prev = max(prev, i) + rng.randint(0, 1)
                values.append(prev)
            spec[p] = ("unbounded", values)
        else:
            spec.update(random_spec(rng, [p], 4, 4))
            if spec[p][0] == "unbounded":
                spec[p] = ("bounded", spec[p][1])
    return spec


def _make_map(rng, name: str, prefix: str, max_n: int, primes=PRIMES_13):
    """(map description for the oracle, CLI map argument, files); word and
    spec maps touch only the given primes."""
    if name == "identity":
        return {"name": "identity"}, "identity", {}
    if name == "mul":
        c = rng.randint(2, 3)
        return {"name": "mul", "c": c}, f"mul:{c}", {}
    if name == "pow":
        b = rng.randint(2, 3)
        return {"name": "pow", "b": b}, f"pow:{b}", {}
    if name in ("nn", "succ"):
        return {"name": name}, name, {}
    if name == "gen":
        kind, p, t = rng.choice("gh"), rng.choice(PRIMES_13[:4]), rng.randint(0, 3)
        return {"name": "gen", "kind": kind, "p": p, "t": t}, f"gen:{kind}:{p}:{t}", {}
    path = f"{prefix}_{name}.json"
    if name in ("word", "cword"):
        if name == "cword":  # a compiled word, in the compile-result format
            gens = compiled_gens(_member_spec(rng, max_n, primes))
            text = _json({"word": _word_obj(gens), "agreement": {}})
        else:
            gens = random_gens(rng, 8, primes[:4], 3)
            text = _json(_word_obj(gens))
        return {"name": "word", "gens": gens}, f"word:{path}", {path: lambda: text}
    spec = _member_spec(rng, max_n, primes)
    return {"name": "spec", "spec": spec}, f"spec:{path}", {path: lambda: _json(_spec_obj(spec))}


def _membership(rng, size, variant, prefix):
    max_n = MEMBERSHIP_MAX_N[size]
    desc, arg, files = _make_map(rng, variant, prefix, max_n)
    return {"argv": ["membership-test", "--map", arg, "--max-k", str(MEMBERSHIP_MAX_K),
                     "--max-n", str(max_n)],
            "files": files, "expect": {"map": desc, "max_k": MEMBERSHIP_MAX_K, "max_n": max_n}}


def _preimage(rng, size, variant, prefix):
    max_n = PREIMAGE_MAX_N[size]
    k = rng.randint(2, 12)
    desc, arg, files = _make_map(rng, variant, prefix, max_n)
    return {"argv": ["preimage", "--map", arg, "--k", str(k), "--max-n", str(max_n)],
            "files": files, "expect": {"map": desc, "k": k, "max_n": max_n}}


def _divisibility(rng, size, variant, prefix):
    max_n = DIVISIBILITY_MAX_N[size]
    desc, arg, files = _make_map(rng, variant, prefix, max_n)
    return {"argv": ["divisibility-check", "--map", arg, "--max-n", str(max_n)],
            "files": files, "expect": {"map": desc, "max_n": max_n}}


def _apply(rng, size, variant, prefix):
    max_n = APPLY_MAX_N[size]
    map_name, source_name = variant.split("/")
    over = source_name.endswith("-over-limit")
    source_name = source_name.removesuffix("-over-limit")
    for _ in range(100):
        # images stay small enough to index a table or a full-shift exponent
        desc, arg, files = _make_map(rng, map_name, prefix, max_n, primes=(2, 3))
        if map_name == "pow" and over:
            desc, arg = {"name": "pow", "b": 2}, "pow:2"
        images = [oracles.map_value(desc, n) for n in range(1, max_n + 1)]
        top = max(images)
        if source_name == "reg":
            k = rng.randint(1, 12)
            source, source_arg = {"name": "reg", "k": k}, f"reg:{k}"
            break
        base = rng.randint(2, 3) if over else rng.randint(2, 7)
        if source_name == "geometric":
            source, source_arg = {"name": "geometric", "b": base}, f"geometric:{base}"
            if over or top * math.log10(base) < SAFE_DIGITS:
                break
        elif top <= TABLE_FACTOR * max_n and top * math.log10(base) < SAFE_DIGITS:
            # a full-shift table, so the wire carries big integers
            entries = [base**n for n in range(1, top + 1)]
            if over:
                hit = images[rng.randrange(max_n)]
                entries[hit - 1] = rng.getrandbits(16000) | 1 << 15999  # 4817 digits
            path = f"{prefix}_table.json"
            files[path] = lambda: _sequence_text(entries)
            source, source_arg = {"name": "table", "entries": entries}, f"table:{path}"
            break
    else:
        raise RuntimeError(f"no {variant} request fits the digit budget")
    req = {"argv": ["apply", "--map", arg, "--source", source_arg, "--max-n", str(max_n)],
           "files": files, "expect": {"map": desc, "source": source, "max_n": max_n}}
    if over:
        req["over_limit"] = (
            "output a_{n^2} = %d^16384 has more than 4300 digits" % base
            if map_name == "pow" else "a table entry has 4817 digits, over 4300")
    return req


_BUILDERS = {
    "realizable-check": _realizable_check,
    "zeta-from-fix": _zeta_from_fix,
    "zeta-check": _zeta_check,
    "spec-compile": _spec_compile,
    "word-normal-form": _word_normal_form,
    "compile-verify": _compile_verify,
    "normal-form": _normal_form,
    "relation-search": _relation_search,
    "membership-test": _membership,
    "preimage": _preimage,
    "divisibility-check": _divisibility,
    "apply": _apply,
}
