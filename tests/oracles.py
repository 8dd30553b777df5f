"""Independent reference computations used to pin expected test values.

Everything here is deliberately brute force and shares no code path with the
library: the Moebius function comes from its defining recursion, orbit counts
from enumerating strings, products from integer Cauchy convolution, powers
from the generalized binomial series, the zeta series of a full shift
time-changed by a spec from a product of such powers, and realizability from
greedily building an orbit multiset. The zeta recurrences on Fraction and the quadratic
divisibility scan are the reference versions of the library's integer and
multiples-walk kernels; the per-generator range passes, the scanning prefix
equality and the per-n compile check are the reference versions of its
per-prime exponent-table kernels, and the per-generator table rewrite is
the reference version of the fold of a word into its tables. The canonical
form read off a word's images by per-generator evaluation is the reference
version of the normal form built from its tables, and the per-index block
compile of the compiled word built from a spec's tables. The per-n
map consumers (membership probes, preimage structure, time-changed counts),
with the factorizing prime-support scan of divisibility_counterexamples, are
the reference versions of the consumers that take a map's values once, and
the per-probe membership loop, one sieve per orbit length, is the reference
version of the probes that share one packed transform. The public
Random.choice and randint draws are the reference version of random_word's
one-loop sampler, and the fingerprint search (64-point range passes, then
a scan of the full prefix for every pair in a bucket) is the reference
version of the relation search on exact per-prime keys. The member shape
of an exponent table is the reference version of membership_test's
certificate rule, which reads it through validate_spec.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
import json
from math import gcd, prod
import random


@lru_cache(maxsize=None)
def mu(n: int) -> int:
    # sum of mu over divisors is 1 at n=1 and 0 otherwise
    if n == 1:
        return 1
    return -sum(mu(d) for d in range(1, n) if n % d == 0)


def divisor_sum_transform(entries):
    out = []
    for n in range(1, len(entries) + 1):
        out.append(sum(mu(n // d) * entries[d - 1] for d in range(1, n + 1) if n % d == 0))
    return out


def greedy_orbit_counts(entries):
    """Orbit counts built greedily from the defining relation
    a_n = sum of d * O_d over d | n; None when no non-negative integer
    solution exists (i.e. the prefix is not realizable)."""
    counts = []
    for n in range(1, len(entries) + 1):
        rest = entries[n - 1] - sum(
            d * counts[d - 1] for d in range(1, n) if n % d == 0
        )
        if rest < 0 or rest % n != 0:
            return None
        counts.append(rest // n)
    return counts


def binary_orbit_count(n: int) -> int:
    """Closed orbits of length exactly n of the full shift on two symbols,
    counted by enumerating all binary strings of length n."""
    primitive = 0
    for code in range(2**n):
        bits = tuple((code >> i) & 1 for i in range(n))
        period = next(
            p for p in range(1, n + 1)
            if n % p == 0 and bits == bits[p:] + bits[:p]
        )
        if period == n:
            primitive += 1
    return primitive // n


def int_series_mul(a, b):
    n = len(a)
    return [sum(a[k] * b[i - k] for k in range(i + 1)) for i in range(n)]


def euler_product(orbit_counts, order):
    """Coefficients of the product over d of (1 - z^d)^(-O_d), truncated.

    Uses only integer convolutions with the geometric expansion of each
    1 / (1 - z^d) factor.
    """
    out = [1] + [0] * order
    for d, count in enumerate(orbit_counts, start=1):
        if d > order:
            break
        geometric = [1 if i % d == 0 else 0 for i in range(order + 1)]
        for _ in range(count):
            out = int_series_mul(out, geometric)
    return out


def binomial_power(c, d, r, order):
    """Coefficients of (1 + c * z^d) ** r via the generalized binomial series."""
    coeffs = [Fraction(0)] * (order + 1)
    term = Fraction(1)
    k = 0
    while d * k <= order:
        coeffs[d * k] = term * c**k
        term = term * (Fraction(r) - k) / (k + 1)
        k += 1
    return coeffs


def time_changed_shift_zeta(tables, base, order):
    """Coefficients 0..order of the zeta series of the full shift on base
    symbols time-changed by the spec map h whose exponent tables are tables
    (prime -> [phi_p(0), phi_p(1), ...], covering every v with
    p**v <= order), from the closed form

        prod over v with P <= order, prod over d | rad S:
            (1 - base**(d Q) z**(d P)) ** (-mu(d) / (d P))

    where v runs over the valuation vectors at the primes S of tables, P =
    prod p**v_p and Q = prod p**phi_p(v_p). It is the log series
    sum base**h(n) z**n / n split by v: n = P m with m coprime to S gives
    h(n) = Q m, and the m coprime to S are counted by inclusion-exclusion
    over d. Each factor is its own binomial series, in Fraction."""
    primes = sorted(tables)
    out = [Fraction(1)] + [Fraction(0)] * order
    for vec in product(*(range(len(tables[p])) for p in primes)):
        big_p = prod(p**v for p, v in zip(primes, vec))
        big_q = prod(p ** tables[p][v] for p, v in zip(primes, vec))
        for bits in product((0, 1), repeat=len(primes)):
            d = prod(p for p, bit in zip(primes, bits) if bit)
            if d * big_p <= order:
                r = Fraction(-(-1) ** sum(bits), d * big_p)
                out = int_series_mul(out, binomial_power(-base ** (d * big_q), d * big_p, r, order))
    return out


def naive_normal_form(gens):
    """Reference rewriting by single adjacent swaps on (kind, prime, level)
    triples: push each cap one step right at a time (raising its level when
    it hops a bump of its own prime and level), then stably group the bumps
    by prime, then collapse caps to one minimum-level cap per prime."""
    gens = list(gens)
    changed = True
    while changed:
        changed = False
        for i in range(len(gens) - 1):
            (k1, p1, t1), (k2, p2, t2) = gens[i], gens[i + 1]
            if k1 == "h" and k2 == "g":
                if p1 == p2 and t1 == t2:
                    gens[i], gens[i + 1] = (k2, p2, t2), ("h", p1, t1 + 1)
                else:
                    gens[i], gens[i + 1] = gens[i + 1], gens[i]
                changed = True
                break
    bumps = sorted((g for g in gens if g[0] == "g"), key=lambda g: g[1])
    lowest = {}
    for kind, p, t in gens:
        if kind == "h":
            lowest[p] = min(lowest.get(p, t), t)
    return bumps + [("h", p, lowest[p]) for p in sorted(lowest)]


def naive_canonical_form(gens):
    """The canonical normal form of the word with generators (kind, prime,
    level), read off its images. For each prime p of the word, with top its
    highest level there, e_v is the exponent of p in the image of p**v,
    the generators applied one at a time, for v = 0..top + 2; past top
    every exponent moves alike, so the prime is capped exactly when
    e_(top+1) == e_(top+2). Then, per prime by ascending prime, for each
    value c of the e_v from the largest down, with a the smallest v where
    e_v == c, the bumps at levels a..c - 1; then, by ascending prime, a
    cap at e_(top+2) for each capped prime."""

    def apply(n):
        for kind, q, t in gens:
            v = 0
            while n % q ** (v + 1) == 0:
                v += 1
            if kind == "g" and v == t:
                n *= q
            elif kind == "h" and v > t:
                n //= q ** (v - t)
        return n

    def exponent(p, n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        return e

    bumps, caps = [], []
    for p in sorted({q for _, q, _ in gens}):
        top = max(t for _, q, t in gens if q == p)
        images = [exponent(p, apply(p**v)) for v in range(top + 3)]
        for c in sorted(set(images), reverse=True):
            a = images.index(c)
            bumps += [("g", p, t) for t in range(a, c)]
        if images[-1] == images[-2]:
            caps.append(("h", p, images[-1]))
    return bumps + caps


def block_compile(functions):
    """The generators (kind, prime, level) of the per-index block compile of
    the valid spec with functions (prime -> (shape, values)): per prime,
    ascending, for each index t from the top down the block of bumps at
    levels t..values[t] - 1, where the top is the last index of an
    unbounded table and, of a bounded one, the first index of the run of
    its eventual value that ends it; then, by ascending prime, a cap at the
    eventual value of each bounded prime."""
    bumps, caps = [], []
    for p in sorted(functions):
        shape, values = functions[p]
        top = len(values) - 1
        if shape == "bounded":
            while top > 0 and values[top - 1] == values[-1]:
                top -= 1
            caps.append(("h", p, values[-1]))
        for t in range(top, -1, -1):
            bumps += [("g", p, level) for level in range(t, values[t])]
    return bumps + caps


def random_orbit_counts(rng: random.Random, length: int, max_count: int = 3):
    return [rng.randint(0, max_count) for _ in range(length)]


def random_valid_spec_tables(rng: random.Random, primes, max_len: int = 5,
                             max_eventual: int = 5, unbounded_min_len: int | None = None):
    """Raw (prime -> (shape, values)) data for a random valid spec.

    Unbounded tables satisfy d(i) >= i directly. Bounded tables fix a
    stabilization index s and an eventual value M >= s, then climb
    monotonically from within [i, M] to M; that covers constants and
    eventually-constant shapes while staying valid.
    """
    out = {}
    for p in primes:
        if not rng.randint(0, 2):
            continue  # leave this prime at the identity default
        if rng.randint(0, 1):
            length = rng.randint(1, max_len)
            if unbounded_min_len is not None:
                length = max(length, unbounded_min_len)
            values = []
            prev = 0
            for i in range(length):
                prev = max(prev, i) + rng.randint(0, 2)
                values.append(prev)
            out[p] = ("unbounded", values)
        else:
            s = rng.randint(0, min(max_len - 1, max_eventual))
            eventual = rng.randint(s, max_eventual)
            values = []
            prev = 0
            for i in range(s):
                prev = rng.randint(max(i, prev), eventual)
                values.append(prev)
            values.append(eventual)
            out[p] = ("bounded", values)
    return out


def fraction_zeta(entries, order):
    """Zeta coefficients F_0..F_order of exp(sum a_n z^n / n) by the Fraction
    recurrence n * F_n = sum_{k=1..n} a_k * F_{n-k}."""
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        acc = sum(entries[k - 1] * coeffs[n - k] for k in range(1, n + 1))
        coeffs.append(Fraction(acc, n))
    return coeffs


def log_fix_from_zeta(coeffs):
    """Counts a_n = n * [z^n] log F read off the Fraction log recurrence.

    Returns (counts, None), or (None, (reason, index)) for the first failure:
    a constant term other than 1 (index None), then at the smallest n a
    non-integral a_n before a negative one.
    """
    coeffs = [Fraction(c) for c in coeffs]
    if coeffs[0] != 1:
        return None, ("constant_term_not_one", None)
    logs = [Fraction(0)]
    for n in range(1, len(coeffs)):
        acc = n * coeffs[n] - sum(k * logs[k] * coeffs[n - k] for k in range(1, n))
        logs.append(acc / n)
    counts = []
    for n in range(1, len(coeffs)):
        a = n * logs[n]
        if a.denominator != 1:
            return None, ("non_integer_log_coefficient", n)
        if a < 0:
            return None, ("negative_count", n)
        counts.append(int(a))
    return counts, None


def _prime_powers(n):
    out = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisibility_counterexamples(values):
    """First counterexample (or None) to each divisibility law on the map
    n -> values[n - 1], scanning n = 1..N and, for each n, every m <= n.

    divides: (m, n) with m | n and f(m) not dividing f(n), smallest n then m.
    coprime_lcm: (m, n), m < n coprime, f(mn) != lcm(f(m), f(n)), smallest m then n.
    prime_support: (q, n), q prime, v_q(f(n)) > v_q(f(1)), q not dividing n,
    smallest n then q.
    """
    f = [0, *values]
    n_max = len(values)
    divides = next(
        ((m, n) for n in range(1, n_max + 1) for m in range(1, n + 1)
         if n % m == 0 and f[n] % f[m] != 0),
        None,
    )
    coprime_lcm = next(
        ((m, n) for m in range(1, n_max + 1) for n in range(m + 1, n_max // m + 1)
         if gcd(m, n) == 1 and f[m * n] != f[m] * f[n] // gcd(f[m], f[n])),
        None,
    )
    base = _prime_powers(f[1])
    prime_support = next(
        ((q, n) for n in range(1, n_max + 1)
         for q, e in sorted(_prime_powers(f[n]).items())
         if e > base.get(q, 0) and n % q != 0),
        None,
    )
    return {"divides": divides, "coprime_lcm": coprime_lcm, "prime_support": prime_support}


def generator_pass_eval_range(gens, max_n):
    """Values on 1..max_n of the word with generators (kind, prime, level)
    in application order, one pass per generator over the whole range."""
    vals = list(range(1, max_n + 1))
    for kind, p, level in gens:
        pt = p**level
        pt1 = pt * p
        if kind == "g":
            vals = [m * p if m % pt == 0 and m % pt1 else m for m in vals]
        else:
            out = []
            for m in vals:
                while m % pt1 == 0:
                    m //= p
                out.append(m)
            vals = out
    return vals


def per_generator_tables(gens, max_n, tables=None):
    """tables ({p: exponent table}, empty when None) rewritten by the word
    with generators (kind, prime, level) in application order, one
    generator at a time: a prime first touched without a table gets the
    identity on the v with p**v <= max_n, then each generator maps every
    entry of its prime's table (a bump sends its level to level + 1, a cap
    sends every entry above its level to it)."""
    tables = {} if tables is None else tables
    for kind, p, level in gens:
        if p not in tables:
            tables[p] = [v for v in range(max_n.bit_length() + 1) if p**v <= max_n]
        if kind == "g":
            tables[p] = [v + 1 if v == level else v for v in tables[p]]
        else:
            tables[p] = [min(v, level) for v in tables[p]]
    return tables


def has_member_shape(table):
    """Non-decreasing, and constant from the first entry below its index on:
    the paper's rule for the exponent table of a member on 1..N, stated on
    its own."""
    if any(a > b for a, b in zip(table, table[1:])):
        return False
    drop = next((v for v, c in enumerate(table) if c < v), len(table))
    return len(set(table[drop:])) <= 1


def spec_tables_upto(functions, max_n):
    """The tables on 1..max_n of the spec with functions (prime -> (shape,
    values)), read for this max_n alone: each covers the v with
    p**v <= max_n, a bounded table padded with its last value and an
    unbounded one stopped short where its values end, so a prime above
    max_n keeps its entry 0."""
    tables = {}
    for p, (shape, values) in functions.items():
        length = len([v for v in range(max_n.bit_length() + 1) if p**v <= max_n])
        table = tables[p] = list(values[:length])
        if shape == "bounded":
            table += [values[-1]] * (length - len(table))
    return tables


def scan_equal_upto(gens1, gens2, max_n):
    """(n, left, right) at the first n <= max_n where the two words differ,
    by scanning both ranges; None when they agree on 1..max_n."""
    a = generator_pass_eval_range(gens1, max_n)
    b = generator_pass_eval_range(gens2, max_n)
    for n, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return n, x, y
    return None


def pointwise_verify_compile(gens, agreement, tables, max_n):
    """The compile check one n at a time, on raw data: the word's generators
    (kind, prime, level), the agreement {prime: bound} and the spec
    {prime: (shape, values)}. Each n <= max_n with v_p(n) <= bound for every
    agreement prime is mapped through the spec prime by prime, ascending.

    Returns None, ("mismatch", n, got, expected) at the first disagreement,
    or ("table-range", message) at the first admitted n whose exponent lies
    beyond an unbounded table, whichever n comes first.
    """
    got = generator_pass_eval_range(gens, max_n)

    def val(p, n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        return e

    for n in range(1, max_n + 1):
        if any(val(p, n) > bound for p, bound in agreement.items()):
            continue
        rest, expected = n, 1
        for p in sorted(tables):
            shape, values = tables[p]
            e = val(p, n)
            rest //= p**e
            if e < len(values):
                e = values[e]
            elif shape == "bounded":
                e = values[-1]
            else:
                return ("table-range", f"table for prime {p} covers exponents "
                        f"0..{len(values) - 1}, asked for {e}")
            expected *= p**e
        expected *= rest
        if got[n - 1] != expected:
            return ("mismatch", n, got[n - 1], expected)
    return None


MAP_VALUE = "map produced {m!r} at n={n}; expected an integer >= 1"


def pointwise_values(f, max_n, message=MAP_VALUE):
    """f(1), ..., f(max_n), one call per n, each required to be an int >= 1
    and not a bool (ValueError(message) at the first n where it is not)."""
    values = []
    for n in range(1, max_n + 1):
        m = f(n)
        if type(m) is bool or not isinstance(m, int) or m < 1:
            raise ValueError(message.format(n=n, m=m))
        values.append(m)
    return values


def pointwise_membership(f, max_k, max_n):
    """(k, failure, index, value) for the smallest k <= max_k whose probe
    (k at each n with k | f(n), else 0) fails realizability, read off the
    divisor-sum transform (sign before Dold at the smallest index); None
    when every probe passes. The probes test the full values."""
    values = pointwise_values(f, max_n)
    for k in range(1, max_k + 1):
        transformed = divisor_sum_transform([k if v % k == 0 else 0 for v in values])
        for n, b in enumerate(transformed, start=1):
            if b < 0:
                return k, "sign", n, b
            if b % n != 0:
                return k, "dold", n, b
    return None


def pointwise_preimage(f, k, max_n):
    """(outcome, step, witness) of {n <= max_n : k | f(n)}, calling f per n
    and checking its values as pointwise_values does."""
    hits = [m % k == 0 for m in pointwise_values(f, max_n)]
    if True not in hits:
        return "empty", None, None
    step = hits.index(True) + 1
    if k % step != 0:
        return "violation", None, step
    for n in range(1, max_n + 1):
        if hits[n - 1] != (n % step == 0):
            return "violation", None, n
    return "progression", step, None


def pointwise_time_change_fix(h, count, length):
    """[count(h(1)), ..., count(h(length))], calling h and then count for
    each n in turn, so the first failure in the order of n is raised."""
    out = []
    for n in range(1, length + 1):
        m = h(n)
        if type(m) is bool or not isinstance(m, int) or m < 1:
            raise ValueError(f"time-change value h({n}) = {m!r}; expected an integer >= 1")
        out.append(count(m))
    return out


def _sieve_transform(entries):
    """The Moebius transform as a per-prime sieve: for each prime p (found
    by trial division), b_{mp} -= b_m for m from N // p down to 1."""
    b = [0, *entries]
    n_max = len(entries)
    for p in range(2, n_max + 1):
        if all(p % q for q in range(2, int(p**0.5) + 1)):
            for m in range(n_max // p, 0, -1):
                b[m * p] -= b[m]
    return b[1:]


def per_probe_membership(values, max_k):
    """(k, failure, index, value) for the smallest k <= max_k whose probe
    fails, else None, with f(n) = values[n - 1]: one sieve per probe, run in
    order of k. The values are reduced once modulo L = lcm(1..max_k), and
    not at all once L exceeds every value."""
    modulus, top = 1, max(values)
    for k in range(2, max_k + 1):
        modulus = modulus * k // gcd(modulus, k)
        if modulus > top:
            break
    else:
        values = [m % modulus for m in values]
    for k in range(1, max_k + 1):
        transformed = _sieve_transform([k if v % k == 0 else 0 for v in values])
        for n, b in enumerate(transformed, start=1):
            if b < 0:
                return k, "sign", n, b
            if b % n != 0:
                return k, "dold", n, b
    return None


def trial_division_primes(bound):
    return [p for p in range(2, bound + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


def public_random_word(seed, length, max_prime, max_level):
    """The (kind, prime, level) triples random_word documents for a seed,
    through the public draws: per generator Random(seed).choice(("g", "h")),
    .choice(primes) and .randint(0, max_level), in that order."""
    primes = trial_division_primes(max_prime)
    rng = random.Random(seed)
    return [
        (rng.choice(("g", "h")), rng.choice(primes), rng.randint(0, max_level))
        for _ in range(length)
    ]


def fingerprint_relation_search(seed, count, length, max_prime, max_level, max_n):
    """(exit code, stdout, stderr) of `dynzeta relation-search` by the
    fingerprint algorithm: canonical forms of the public draws
    (naive_canonical_form) are bucketed by their values on
    1..min(64, max_n) and kept once per bucket by a linear scan, and each
    bucket is split into groups by comparing its forms on all of 1..max_n.
    The pairs come out in the CLI's order: groups by the first sighting of
    their first form, and in each group every pair of forms (i, j), i < j,
    in first-seen order. The usage errors are the CLI's: --count below 0
    first, then per draw the ones of random_word, then max_n below 1 once a
    word was drawn."""

    def usage(message):
        return 2, "", f"error: {message}\n"

    def as_json(gens):
        return {"gens": [{"kind": kind, "p": p, "t": t} for kind, p, t in gens]}

    if count < 0:
        return usage(f"--count must be >= 0, got {count}")
    buckets = {}  # 64 values -> [(first sighting, form)]
    seen = 0
    for i in range(count):
        if length < 0:
            return usage("length must be >= 0")
        if length > 0 and max_prime < 2:
            return usage(f"no primes <= {max_prime}")
        if length > 0 and max_level < 0:
            return usage("max_level must be >= 0")
        nf = naive_canonical_form(public_random_word(seed + i, length, max_prime, max_level))
        if max_n < 1:
            return usage("max_n must be >= 1")
        bucket = buckets.setdefault(tuple(generator_pass_eval_range(nf, min(64, max_n))), [])
        if all(nf != other for _, other in bucket):
            bucket.append((seen, nf))
            seen += 1
    groups = []
    for bucket in buckets.values():
        split = []
        for form in bucket:
            group = next((g for g in split if scan_equal_upto(g[0][1], form[1], max_n) is None),
                         None)
            if group is None:
                split.append([form])
            else:
                group.append(form)
        groups += split
    groups.sort(key=lambda group: group[0][0])
    coincidences = [
        {"left": as_json(group[i][1]), "right": as_json(group[j][1]), "agree_up_to": max_n}
        for group in groups
        for i in range(len(group))
        for j in range(i + 1, len(group))
    ]
    payload = {"seed": seed, "count": count, "max_n": max_n, "coincidences": coincidences}
    return 0, json.dumps(payload, indent=2) + "\n", ""
