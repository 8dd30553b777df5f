"""Generator maps on the positive integers, and finite words over them.

Two families of maps, parametrised by a prime p and a level t >= 0, act on
the p-adic valuation v of an argument and touch nothing else:

    bump (kind "g"): multiply n by p exactly when v == t (v becomes t + 1)
    cap  (kind "h"): reduce the p-part to p**t whenever v >= t

Words store their generators in application order: index 0 acts first. Any
rendering in the usual right-to-left composition notation must reverse the
list.

A word therefore acts prime by prime: the generators of prime p send v_p(n)
through a map on exponents that ignores every other prime. Its normal form
gives that map as one part per prime (the levels of p's bumps in order, then
at most one cap), and each value is built from the parts one way: a word's
exponent tables (_PrimeMaps) are identity tables rewritten by them
(_part_table), and a form's word, compile_spec's too, is them assembled
bumps first, then caps (_normal_word). A word folds its parts once and
keeps them (Word._parts); a word assembled from parts starts with them.

_PrimeMaps is the per-prime value that words and exponent specs share: a
table and its tail per prime, whatever N (a spec's is read by exponents,
which owns the spec format). Range evaluation, prefix equality and the
compile check read it cut to 1..N (_PrimeMaps.cut), and so do the
consumers of a word's map: its tables are its one fast path
(Word.as_map). Equality is still only tested on a prefix 1..N, and a
disagreement is returned as the smallest witness (first_difference).

Every generator built is checked: the internal paths build theirs through
_generator, which checks each distinct generator once and shares it.

The CLI's relation search (_coincidences) makes one pass per drawn word on
plain (kind, prime, level) values: random_word's draw loop, normal_form's
rule folding the draw into per-prime parts, and the same table rule on
these parts, with each prime's keys taken in the same loop. It builds
Generator and Word objects only for the pairs it reports.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .arith import is_prime, primes_up_to
from .series import _RangeMap

__all__ = [
    "BUMP",
    "CAP",
    "Generator",
    "Word",
    "Witness",
    "eval_generator",
    "eval_word",
    "eval_range",
    "equal_upto",
    "normal_form",
    "is_normal_shape",
    "random_word",
]

BUMP = "g"
CAP = "h"


def _check_int(value, field: str) -> None:
    """Reject anything but a plain int: int() would truncate 1.5 to 1 and
    so silently describe a different map."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Generator:
    """One bump or cap map, identified by (kind, prime, level)."""

    kind: str
    prime: int
    level: int

    def __post_init__(self):
        if self.kind not in (BUMP, CAP):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        _check_int(self.prime, "prime")
        _check_int(self.level, "level")
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")

    @classmethod
    def bump(cls, prime: int, level: int) -> "Generator":
        return cls(BUMP, prime, level)

    @classmethod
    def cap(cls, prime: int, level: int) -> "Generator":
        return cls(CAP, prime, level)

    def __repr__(self):
        return f"{self.kind}({self.prime},{self.level})"


# Generator(kind, prime, level), checked once per distinct generator and
# then shared: the one constructor of the internal paths (normal forms,
# compile_spec's words and random_word's draws), whose words repeat a few
# generators many times. Sharing is safe, as generators are frozen.
_generator = lru_cache(maxsize=4096)(Generator)


def eval_generator(gen: Generator, n: int) -> int:
    if n < 1:
        raise ValueError(f"generators act on n >= 1, got {n}")
    p = gen.prime
    v = 0
    m = n
    while m % p == 0:
        m //= p
        v += 1
    if gen.kind == BUMP:
        return p * n if v == gen.level else n
    return n if v < gen.level else m * p**gen.level


@dataclass(frozen=True)
class Word:
    """A finite composition of generators, applied left to right."""

    gens: tuple[Generator, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def primes(self) -> set[int]:
        return {g.prime for g in self.gens}

    @cached_property
    def _parts(self) -> _Parts:
        """The parts of the word's normal form, folded once per word (not a
        field: equality and hash read gens alone)."""
        return _word_parts(self)

    def as_map(self) -> Callable[[int], int]:
        """The word as a map, its exponent tables built once as its fast
        path: consumers that need 1..max_n read them, its values included."""
        maps = _PrimeMaps.from_parts(self._parts)
        return _RangeMap(lambda n: eval_word(self, n), tables=lambda max_n: maps)

    def __repr__(self):
        return "Word[" + " ".join(repr(g) for g in self.gens) + "]"


def eval_word(word: Word, n: int) -> int:
    if n < 1:
        raise ValueError(f"words act on n >= 1, got {n}")
    for gen in word.gens:
        n = eval_generator(gen, n)
    return n


# A normal form as plain values, one entry per prime it touches, by
# ascending prime: (p, the levels of its bumps in application order, the
# level of its cap or None). It gives the form's generators one to one.
_Parts = tuple[tuple[int, tuple[int, ...], "int | None"], ...]


def _part_table(table: list[int], levels: Iterable[int], cap: int | None) -> list[int]:
    """table, the exponent table of a prime, rewritten in place by that
    prime's part of a normal form: its bumps at levels, in order, then its
    cap. A bump raises the entries equal to its level by one, a cap lowers
    those above its level to it: both keep a table non-decreasing, so each
    rewrites one run."""
    for t in levels:
        lo = bisect_left(table, t)
        hi = bisect_right(table, t, lo)
        table[lo:hi] = [t + 1] * (hi - lo)
    if cap is not None:
        lo = bisect_right(table, cap)
        table[lo:] = [cap] * (len(table) - lo)
    return table


class _PrimeMaps(NamedTuple):
    """A map on n >= 1 that acts prime by prime, as {p: (table, tail)}.

    Entry v of the table of p is v_p of the image of every n with
    v_p(n) == v; a prime without a table keeps its exponents. Past the
    table each exponent adds tail to the entry before: 1 (a word without a
    cap, `mul:C`), 0 (a cap, a bounded spec) or None, no entry (an
    unbounded spec). Built from a word by from_parts, from a spec by
    exponents._spec_map and for the CLI's `identity` and `mul:C` by
    cli._mul_tables, it is these maps' one fast path, read on 1..N by cut.
    """

    tables: dict[int, tuple[list[int], int | None]]

    @staticmethod
    @lru_cache(maxsize=1024)
    def _length(p: int, max_n: int) -> int:
        """The number of exponents v with p**v <= max_n; cached, as every
        value of one search or check asks the same few."""
        v, q = 0, 1
        while q <= max_n:
            q *= p
            v += 1
        return v

    @classmethod
    def from_parts(cls, parts: _Parts) -> "_PrimeMaps":
        """A normal form's map, one table per prime it touches: the identity
        up to one past the part's top level, rewritten by the part. Every
        exponent past it keeps its value under the bumps and drops to the
        cap, so the tail is 0 with a cap and 1 without."""
        return cls({p: (_part_table(list(range(max((*levels, cap or 0)) + 2)), levels, cap),
                        1 if cap is None else 0)
                    for p, levels, cap in parts})

    def read(self, p: int, length: int) -> list[int]:
        """Entries 0..length - 1 of the table of p, read on into its tail;
        fewer when it has no tail and ends first."""
        table, tail = self.tables.get(p, ([0], 1))  # the identity
        extra = length - len(table)
        if extra <= 0 or tail is None:
            return table[:length]
        last = table[-1]
        return table + (list(range(last + 1, last + 1 + extra)) if tail else [last] * extra)

    def cut(self, max_n: int) -> dict[int, list[int]]:
        """The tables on 1..max_n: the entries v with p**v <= max_n of each
        table, fewer when one without a tail ends short."""
        return {p: self.read(p, self._length(p, max_n)) for p in self.tables}

    def values(self, max_n: int) -> list[int]:
        """Values on 1..max_n (index 0 holds the image of 1), or on 1..n - 1
        when a table ends short and n = p**len(table) <= max_n is the
        smallest point it misses.

        One pass per prime: each n must be scaled by p**(table[v] - v) where
        v = v_p(n). Walking the multiples of p**v by slice for v = 0, 1,
        ..., the pass applies only the change of that shift from v - 1 to v.
        Nothing is rewritten below the first exponent v0 the table moves, so
        the pass costs about max_n / p**v0 products. Every division is exact.
        """
        tables = self.cut(max_n)
        ends = [p ** len(table) for p, table in tables.items()]
        stop = min([n - 1 for n in ends if n <= max_n], default=max_n)
        vals = list(range(1, stop + 1))
        for p, table in tables.items():
            shift = 0  # the exponent shift already applied to multiples of p**v
            q = 1
            for v, image in enumerate(table):
                delta = image - v - shift
                if delta > 0:
                    f = p**delta
                    vals[q - 1 :: q] = [m * f for m in vals[q - 1 :: q]]
                elif delta < 0:
                    f = p**-delta
                    vals[q - 1 :: q] = [m // f for m in vals[q - 1 :: q]]
                shift += delta
                q *= p
        return vals

    def first_difference(self, other: "_PrimeMaps", bounds: Mapping[int, int],
                         max_n: int) -> int | None:
        """The smallest p**v <= max_n at which the tables of p differ or one
        ends, keeping for each prime p in bounds only the v <= bounds[p];
        None when there is none."""
        points = []
        for p in self.tables.keys() | other.tables.keys():
            length = self._length(p, max_n)
            left, right = self.read(p, length), other.read(p, length)
            v = next((v for v, (a, b) in enumerate(zip(left, right)) if a != b),
                     min(len(left), len(right)))
            if v < max(len(left), len(right)) and v <= bounds.get(p, v):
                points.append(p**v)
        return min(points, default=None)


def eval_range(word: Word, max_n: int) -> list[int]:
    """Values of a word on 1..max_n (index 0 holds the image of 1).

    The word's exponent table of each prime it touches drives one pass of
    the per-prime kernel (_PrimeMaps.values), one pass per prime however
    many generators the word has.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    return _PrimeMaps.from_parts(word._parts).values(max_n)


@dataclass(frozen=True)
class Witness:
    """Smallest point where two evaluations disagree."""

    n: int
    left: int
    right: int


def equal_upto(w1: Word, w2: Word, max_n: int) -> Witness | None:
    """None when the words agree on all of 1..max_n, else the first witness.

    Decided on the prefix 1..max_n but computed prime by prime: the words
    differ at n exactly when, for some prime p, their exponent tables differ
    at v_p(n). The smallest witness is therefore the smallest p**v <= max_n
    over the differing entries (v = 0 gives n = 1), and no list of length
    max_n is built.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    left, right = (_PrimeMaps.from_parts(w._parts) for w in (w1, w2))
    n = left.first_difference(right, {}, max_n)
    if n is None:
        return None
    return Witness(n, eval_word(w1, n), eval_word(w2, n))


def _normal_parts(gens: Iterable[tuple[str, int, int]]) -> _Parts:
    """The normal form, as its parts, of the word whose generators are
    gens, given as (kind, prime, level); the rule is normal_form's."""
    bumps: dict[int, list[int]] = {}
    caps: dict[int, int] = {}
    for kind, p, t in gens:
        if kind == CAP:
            cur = caps.get(p)
            if cur is None or t < cur:
                caps[p] = t
        else:
            if caps.get(p) == t:
                caps[p] = t + 1
            levels = bumps.get(p)
            if levels is None:
                bumps[p] = [t]
            else:
                levels.append(t)
    return tuple(
        [(p, tuple(bumps.get(p, ())), caps.get(p)) for p in sorted(bumps.keys() | caps.keys())]
    )


def _word_parts(word: Word) -> _Parts:
    """The parts of the word's normal form, folded from its generators
    (Word._parts keeps them)."""
    return _normal_parts([(g.kind, g.prime, g.level) for g in word.gens])


def _normal_word(parts: _Parts) -> Word:
    """The bumps-then-caps word of a normal form's parts, which are its own:
    folding it gives them back, so they seed its Word._parts."""
    gens = [_generator(BUMP, p, t) for p, levels, _ in parts for t in levels]
    gens += [_generator(CAP, p, cap) for p, _, cap in parts if cap is not None]
    word = Word(tuple(gens))
    vars(word)["_parts"] = parts  # where cached_property keeps its value
    return word


def normal_form(word: Word) -> Word:
    """Rewrite a word so every bump precedes every cap in application order.

    Caps commute with everything except a bump of the same prime and level;
    pushing a cap past such a bump raises the cap's level by one. Caps of one
    prime collapse to the smallest level. Bumps are grouped by ascending
    prime with their relative order per prime preserved (same-prime bumps do
    not commute in general, so no order inside a prime block is canonical).

    The result is semantically equal to the input; equality of distinct
    normal forms is still possible and must be tested by evaluation.
    """
    return _normal_word(word._parts)


def is_normal_shape(word: Word) -> bool:
    """Syntactic check: bumps first (primes non-decreasing), then caps with
    strictly ascending primes (at most one cap per prime)."""
    kinds = [g.kind for g in word.gens]
    split = len(kinds)
    for i, k in enumerate(kinds):
        if k == CAP:
            split = i
            break
    head, tail = word.gens[:split], word.gens[split:]
    if any(g.kind != BUMP for g in head) or any(g.kind != CAP for g in tail):
        return False
    head_primes = [g.prime for g in head]
    if head_primes != sorted(head_primes):
        return False
    tail_primes = [g.prime for g in tail]
    return tail_primes == sorted(set(tail_primes))


def random_word(seed: int, length: int, max_prime: int, max_level: int) -> Word:
    """Deterministic pseudo-random word for property sweeps.

    The word of a seed is fixed: per generator, in this order, a kind from
    (BUMP, CAP), a prime from the primes <= max_prime and a level from
    0..max_level, the same three draws as random.Random(seed).choice((BUMP,
    CAP)), .choice(primes) and .randint(0, max_level). Each draw of an index
    below n takes r = getrandbits(k), k = n.bit_length(), and draws again
    while r >= n: the rejection rule that CPython's choice and randint use,
    taken here in one loop without their wrapper calls.
    """
    gens = next(_draws(seed, length, max_prime, max_level))
    return Word(tuple([_generator(kind, p, t) for kind, p, t in gens]))


def _draws(seed: int, length: int, max_prime: int,
           max_level: int) -> Iterator[list[tuple[str, int, int]]]:
    """The generators of random_word(seed), random_word(seed + 1), ... in
    turn, as plain (kind, prime, level) values, the primes sieved once; the
    argument errors come at the first draw."""
    if length < 0:
        raise ValueError("length must be >= 0")
    primes = primes_up_to(max_prime)
    if length > 0 and not primes:
        raise ValueError(f"no primes <= {max_prime}")
    if length > 0 and max_level < 0:
        raise ValueError("max_level must be >= 0")
    kinds = (BUMP, CAP)
    n_kinds, n_primes, n_levels = len(kinds), len(primes), max_level + 1
    k_kinds, k_primes, k_levels = (n.bit_length() for n in (n_kinds, n_primes, n_levels))
    while True:
        bits = random.Random(seed).getrandbits
        gens = []
        for _ in range(length):
            kind = bits(k_kinds)
            while kind >= n_kinds:
                kind = bits(k_kinds)
            i = bits(k_primes)
            while i >= n_primes:
                i = bits(k_primes)
            level = bits(k_levels)
            while level >= n_levels:
                level = bits(k_levels)
            gens.append((kinds[kind], primes[i], level))
        yield gens
        seed += 1


def _coincidences(seed: int, count: int, length: int, max_prime: int, max_level: int,
                  max_n: int) -> list[tuple[Word, Word]]:
    """The pairs of distinct normal forms that agree on 1..max_n, among
    those of the count words random_word(seed), random_word(seed + 1), ...:
    the CLI's relation search.

    One pass per drawn word. Its generators are drawn as plain values and
    folded into its normal form's parts, and each prime's exponent table on
    1..max_n is built from its part by _PrimeMaps' rule (_part_table, on a
    copy of an identity table kept per search) and keyed in the same loop.
    The exact key holds the tables that are not the identity, by ascending
    prime: two forms agree on 1..max_n exactly when their exact keys are
    equal, since the value at n is read off the entries at v_p(n), and
    n = p**v reads entry v of p alone. The bucket key is the exact key cut
    to the p**v <= min(64, max_n). Forms are bucketed by it in first-seen
    order and kept once per bucket by their parts; every pair in a bucket
    with equal exact keys is returned, and words are built only for the
    forms of these pairs, once each, from checked generators. The draw's
    argument errors come at the first draw, then max_n below 1.
    """
    draws = _draws(seed, length, max_prime, max_level)
    length_of = _PrimeMaps._length
    # p -> (its identity table on 1..max_n, the entries it keeps when cut
    # to the p**v <= min(64, max_n))
    sizes: dict[int, tuple[list[int], int]] = {}
    # bucket key -> {parts -> exact key}, both in first-seen order; equal
    # parts give equal keys, so a repeat meets its first sighting in the
    # same bucket
    buckets: dict[tuple, dict[_Parts, list]] = {}
    for _ in range(count):
        parts = _normal_parts(next(draws))
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        exact, bucket = [], []
        for p, levels, cap in parts:
            size = sizes.get(p)
            if size is None:
                size = sizes[p] = (list(range(length_of(p, max_n))), length_of(p, min(64, max_n)))
            identity, cut = size
            table = _part_table(identity.copy(), levels, cap)
            if table != identity:
                exact.append((p, table))
                if table[:cut] != identity[:cut]:
                    bucket.append((p, tuple(table[:cut])))
        buckets.setdefault(tuple(bucket), {}).setdefault(parts, exact)
    built: dict[_Parts, Word] = {}  # the forms of the pairs found so far
    pairs = []
    for bucket in buckets.values():
        forms = list(bucket.items())
        for i, (left, key) in enumerate(forms):
            for right, other in forms[i + 1 :]:
                if key == other:
                    for parts in (left, right):
                        if parts not in built:
                            built[parts] = _normal_word(parts)
                    pairs.append((built[left], built[right]))
    return pairs
