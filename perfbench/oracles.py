"""Reference answers for the benchmark, computed without dynzeta.

Nothing here imports the package under test. Each oracle follows the
definition by a different route than the library does:

- realizability: the divisor-sum recursion b_n = a_n - sum of b_d over the
  proper divisors d of n, run as a sieve (no Moebius function);
- zeta coefficients: an Euler product over orbit counts, multiplying by
  1/(1 - z^d) once per orbit as a strided prefix sum;
- words and specs: each prime's exponent pushed through the generators or
  the table one prime at a time;
- relation-search: every reported pair re-checked on the prefix 1..max_n.

Decimal strings are parsed and written in chunks of at most 1000 digits, so
values past CPython's 4300-digit int<->str limit are checked exactly without
touching the interpreter's limit.
"""

from __future__ import annotations

import math
import random

BUMP, CAP = "g", "h"
_CHUNK_BITS = 3000  # about 900 digits: str()/int() stay far below the limit


# -- decimal strings ---------------------------------------------------------

def int_to_dec(x: int) -> str:
    """Decimal string of x, exact at any size."""
    if x < 0:
        return "-" + int_to_dec(-x)
    if x.bit_length() <= _CHUNK_BITS:
        return str(x)
    k = int(x.bit_length() * 0.30102999566398120) // 2
    hi, lo = divmod(x, 10**k)
    return int_to_dec(hi) + int_to_dec(lo).zfill(k)


def dec_to_int(text: str) -> int:
    """Integer value of a decimal string, exact at any size."""
    if not isinstance(text, str):
        raise ValueError(f"expected a decimal string, got {text!r}")
    neg = text.startswith("-")
    body = text[1:] if neg else text
    if not body or not (body.isascii() and body.isdigit()):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    value = _digits_to_int(body)
    return -value if neg else value


def _digits_to_int(body: str) -> int:
    if len(body) <= 900:
        return int(body)
    k = len(body) // 2
    return _digits_to_int(body[:-k]) * 10**k + _digits_to_int(body[-k:])


def decimal_digits(x: int) -> int:
    """Number of decimal digits of |x| (1 for 0), without str()."""
    x = abs(x)
    if x < 10:
        return 1
    d = int((x.bit_length() - 1) * 0.30102999566398120)
    while 10**d > x:
        d -= 1
    while 10 ** (d + 1) <= x:
        d += 1
    return d + 1


# -- counts, realizability, zeta ---------------------------------------------

def fix_from_orbit_counts(orbits: dict[int, int], length: int) -> list[int]:
    """a_n = sum of d * O_d over orbit lengths d dividing n, for n = 1..length."""
    a = [0] * (length + 1)
    for d, count in orbits.items():
        if count and d <= length:
            for m in range(d, length + 1, d):
                a[m] += d * count
    return a[1:]


def orbit_transform(entries: list[int]) -> list[int]:
    """b_n with a_n = sum of b_d over d | n, by subtracting each finished b_d
    from every proper multiple."""
    b = list(entries)
    n_max = len(b)
    for d in range(1, n_max + 1):
        bd = b[d - 1]
        if bd:
            for m in range(2 * d, n_max + 1, d):
                b[m - 1] -= bd
    return b


def realizability(entries: list[int]) -> tuple[str, int, int] | None:
    """None when the prefix is realizable, else (failure, index, b_index)
    for the smallest failing index, sign before divisibility."""
    for n, b in enumerate(orbit_transform(entries), start=1):
        if b < 0:
            return ("sign", n, b)
        if b % n:
            return ("dold", n, b)
    return None


def euler_product(orbits: dict[int, int], order: int) -> list[int]:
    """Coefficients c_0..c_order of the product over d of (1 - z^d)^(-O_d)."""
    c = [1] + [0] * order
    for d in sorted(orbits):
        if d > order:
            continue
        for _ in range(orbits[d]):
            for n in range(d, order + 1):
                c[n] += c[n - d]
    return c


def full_shift_zeta(base: int, order: int) -> list[int]:
    """The Euler product over the orbits of the full shift on `base` symbols
    collapses to 1/(1 - base*z), whose coefficients are base**n."""
    return [base**n for n in range(order + 1)]


# -- exponent maps -------------------------------------------------------------

def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def word_exponent(gens, p: int, v: int) -> int:
    """Image of exponent v of prime p under the word's generators of p."""
    for kind, q, t in gens:
        if q != p:
            continue
        if kind == BUMP:
            if v == t:
                v += 1
        elif v > t:
            v = t
    return v


def spec_exponent(spec: dict, p: int, v: int) -> int:
    """Image of exponent v of prime p under a spec {p: (shape, values)}."""
    if p not in spec:
        return v
    shape, values = spec[p]
    if v < len(values):
        return values[v]
    if shape == "bounded":
        return values[-1]
    raise ValueError(f"table for {p} ends at {len(values) - 1}, asked for {v}")


def eval_word(gens, n: int) -> int:
    out = n
    for p in sorted({q for _, q, _ in gens}):
        v = valuation(n, p)
        out = out // p**v * p ** word_exponent(gens, p, v)
    return out


def eval_spec(spec: dict, n: int) -> int:
    out = n
    for p in spec:
        v = valuation(n, p)
        out = out // p**v * p ** spec_exponent(spec, p, v)
    return out


def word_tail_horizon(gens) -> int:
    """Exponents above this are all treated alike by every generator."""
    return max((t for _, _, t in gens), default=0) + 2


def same_word_maps(gens_a, gens_b, max_exponent=None) -> bool:
    """Whether two words act identically on every exponent of every prime
    (on v <= max_exponent(p) when a bound function is given)."""
    primes = {q for _, q, _ in gens_a} | {q for _, q, _ in gens_b}
    top = max(word_tail_horizon(gens_a), word_tail_horizon(gens_b))
    for p in primes:
        bound = top if max_exponent is None else max_exponent(p)
        for v in range(bound + 1):
            if word_exponent(gens_a, p, v) != word_exponent(gens_b, p, v):
                return False
    return True


def word_matches_spec(gens, spec: dict) -> bool:
    """Whether the word realizes the spec on every exponent the spec defines:
    all of them for bounded tables, the listed ones for unbounded tables."""
    if not {q for _, q, _ in gens} <= set(spec):
        return False
    for p, (shape, values) in spec.items():
        top = len(values) - 1
        if shape == "bounded":
            top = max(top, word_tail_horizon(gens))
        for v in range(top + 1):
            if word_exponent(gens, p, v) != spec_exponent(spec, p, v):
                return False
    return True


def is_normal_shape(gens) -> bool:
    """Bumps first with non-decreasing primes, then at most one cap per prime
    with strictly ascending primes."""
    split = next((i for i, g in enumerate(gens) if g[0] == CAP), len(gens))
    head, tail = gens[:split], gens[split:]
    if any(g[0] != BUMP for g in head) or any(g[0] != CAP for g in tail):
        return False
    head_primes = [g[1] for g in head]
    tail_primes = [g[1] for g in tail]
    return head_primes == sorted(head_primes) and all(
        a < b for a, b in zip(tail_primes, tail_primes[1:])
    )


def primes_up_to(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def random_word_gens(seed: int, length: int, max_prime: int, max_level: int):
    """The generator triples dynzeta.random_word documents for a seed: per
    generator a kind, a prime and a level drawn in that order."""
    primes = primes_up_to(max_prime)
    rng = random.Random(seed)
    return [
        (rng.choice((BUMP, CAP)), rng.choice(primes), rng.randint(0, max_level))
        for _ in range(length)
    ]


# -- named maps and sources ------------------------------------------------------

def map_value(spec: dict, n: int) -> int:
    """Value at n of a map description {"name": ..., ...} (see workloads)."""
    name = spec["name"]
    if name == "identity":
        return n
    if name == "mul":
        return spec["c"] * n
    if name == "pow":
        return n ** spec["b"]
    if name == "nn":
        return n**n
    if name == "succ":
        return n + 1
    if name == "gen":
        return eval_word([(spec["kind"], spec["p"], spec["t"])], n)
    if name == "word":
        return eval_word(spec["gens"], n)
    if name == "spec":
        return eval_spec(spec["spec"], n)
    raise ValueError(f"unknown map {name!r}")


def source_value(src: dict, n: int) -> int:
    name = src["name"]
    if name == "geometric":
        return src["b"] ** n
    if name == "reg":
        return src["k"] if n % src["k"] == 0 else 0
    if name == "table":
        return src["entries"][n - 1]
    raise ValueError(f"unknown source {name!r}")


def membership(values: list[int], max_k: int):
    """First single-orbit probe k <= max_k that fails, with its verdict."""
    for k in range(1, max_k + 1):
        verdict = realizability([k if v % k == 0 else 0 for v in values])
        if verdict is not None:
            return k, verdict
    return None


def preimage(values: list[int], k: int) -> dict:
    max_n = len(values)
    hits = [v % k == 0 for v in values]
    out = {"k": k, "max_n": max_n}
    if True not in hits:
        return {"outcome": "empty", **out}
    step = hits.index(True) + 1
    if k % step:
        return {"outcome": "violation", **out, "witness": step}
    for n in range(1, max_n + 1):
        if hits[n - 1] != (n % step == 0):
            return {"outcome": "violation", **out, "witness": n}
    return {"outcome": "progression", **out, "step": step}


def divisibility(values: list[int]) -> dict:
    """First counterexamples to the three divisibility laws, scanned in the
    order the report defines: n then m for `divides`, m then n for the rest."""
    f = [0] + values
    max_n = len(values)
    divisors_of = [[] for _ in range(max_n + 1)]
    for d in range(1, max_n + 1):
        for m in range(d, max_n + 1, d):
            divisors_of[m].append(d)

    divides = None
    for n in range(1, max_n + 1):
        bad = next((m for m in divisors_of[n] if f[n] % f[m]), None)
        if bad is not None:
            divides = [bad, n]
            break

    coprime = None
    for m in range(1, max_n + 1):
        for n in range(m + 1, max_n // m + 1):
            if math.gcd(m, n) == 1 and f[m * n] != math.lcm(f[m], f[n]):
                coprime = [m, n]
                break
        if coprime:
            break

    prime_factors = [[] for _ in range(max_n + 1)]
    for p in range(2, max_n + 1):
        if not prime_factors[p]:
            for m in range(p, max_n + 1, p):
                prime_factors[m].append(p)
    support = None
    for n in range(1, max_n + 1):
        rest = f[n]
        for q in prime_factors[n]:
            while rest % q == 0:
                rest //= q
        if f[1] % rest:
            support = [_first_excess_prime(rest, f[1]), n]
            break

    def claim(counterexample):
        return {"holds": True} if counterexample is None else {
            "holds": False, "counterexample": counterexample}

    return {"max_n": max_n, "divides": claim(divides),
            "coprime-lcm": claim(coprime), "prime-support": claim(support)}


def _first_excess_prime(rest: int, base: int) -> int:
    """Smallest prime whose exponent in rest exceeds its exponent in base."""
    q = 2
    while q * q <= rest:
        if rest % q == 0:
            e = valuation(rest, q)
            if e > valuation(base, q):
                return q
            rest //= q**e
        q += 1
    return rest
