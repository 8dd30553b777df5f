"""Generator maps on the positive integers, and finite words over them.

Two families of maps, parametrised by a prime p and a level t >= 0, act on
the p-adic valuation v of an argument and touch nothing else:

    bump (kind "g"): multiply n by p exactly when v == t (v becomes t + 1)
    cap  (kind "h"): reduce the p-part to p**t whenever v >= t

Words store their generators in application order: index 0 acts first. Any
rendering in the usual right-to-left composition notation must reverse the
list.

A word therefore acts prime by prime: the generators of prime p send v_p(n)
through a map on exponents that ignores every other prime. A word folds its
generators once into the exponent tables of that map (Word._maps, a
_PrimeMaps): a bump at level t raises the entries equal to t by one, a cap
at t lowers every entry above t to t. One rule builds a word back from such
tables (_PrimeMaps.word): the shortest word with their map, bumps first,
then caps. It depends on the map alone, so the normal form it gives is
canonical, and compile_spec builds its words with it from a spec's tables.

_PrimeMaps is the per-prime value that words and exponent specs share, and
a word's map is that value itself (Word.as_map). equal_upto decides
equality on a prefix 1..N and returns a disagreement as the smallest
witness (first_difference); two words are equal at every n exactly when
their normal forms are identical.

Which kind a map on n >= 1 is, and how it is read, is said here alone,
and the CLI's named maps are built here too:

    table map       a _PrimeMaps: a word's (generators' too), a spec's
                    (ExponentSpec._maps), and the CLI's `identity` and
                    `mul:C` when C is split (_mul_map)
    residue map     a _ResidueMap, which lists f(1..N) mod M without its
                    values: the CLI's `pow:B` and `nn` (_power_map)
    plain callable  any other f, such as the CLI's `succ` and an unsplit
                    `mul:C` (_mul_map)

Its consumers (time_change_fix, and the membership probes, preimage
structure and divisibility laws of dynzeta.exponents) go through three
readers. _tables gives a table map's tables cut to 1..N when each covers
its prime's exponents there and is non-decreasing, and the consumers then
answer from them alone, at N = 10**12 as fast as at N = 10. Otherwise
_map_values gives f(1..N), each taken once: a table map's in one pass
(_PrimeMaps.values), a residue map's by its point rule, a plain
callable's validated; and _map_residues gives f(1..n) mod M for any
n <= N, a residue map's without its values.

Every generator built is checked, and a word holds generators alone: the
internal paths build theirs through _generator, which checks each
distinct generator once and shares it.

The CLI's relation search (_coincidences) makes one pass per drawn word on
plain (kind, prime, level) values: random_word's draw loop, the fold into
per-search tables, and one key of those tables, taken in the same loop. It
builds Generator and Word objects only for the pairs it reports.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .arith import _check_int, _split, _trial_division, is_prime, primes_up_to

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
    _check_int(n, "n")
    if n < 1:
        raise ValueError(f"generators act on n >= 1, got {n}")
    p = gen.prime
    v, m = _split(n, p)
    if gen.kind == BUMP:
        return p * n if v == gen.level else n
    return n if v < gen.level else m * p**gen.level


@dataclass(frozen=True)
class Word:
    """A finite composition of generators, applied left to right."""

    gens: tuple[Generator, ...] = ()

    def __post_init__(self):
        gens = tuple(self.gens)
        for i, g in enumerate(gens):
            if not isinstance(g, Generator):
                raise ValueError(f"word entry {i} is {g!r}, not a Generator")
        object.__setattr__(self, "gens", gens)

    def __len__(self):
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def primes(self) -> set[int]:
        return {g.prime for g in self.gens}

    @cached_property
    def _maps(self) -> _PrimeMaps:
        """The word's exponent tables, folded once per word (not a field:
        equality and hash read gens alone), each reaching one past the
        word's top level."""
        size = max([g.level for g in self.gens], default=0) + 2
        return _fold([(g.kind, g.prime, g.level) for g in self.gens], lambda p: list(range(size)))

    def as_map(self) -> _PrimeMaps:
        """The word as a map: its exponent tables (Word._maps)."""
        return self._maps

    def __repr__(self):
        return "Word[" + " ".join(repr(g) for g in self.gens) + "]"


def eval_word(word: Word, n: int) -> int:
    _check_int(n, "n")
    if n < 1:
        raise ValueError(f"words act on n >= 1, got {n}")
    for gen in word.gens:
        n = eval_generator(gen, n)
    return n


class TableRangeError(ValueError):
    """An unbounded-shape table was asked beyond its last entry; prime is
    None when the table was asked without one."""

    def __init__(self, prime: int | None, exponent: int, bound: int):
        self.prime = prime
        self.exponent = exponent
        self.bound = bound
        table = "table" if prime is None else f"table for prime {prime}"
        super().__init__(f"{table} covers exponents 0..{bound}, asked for {exponent}")


class _PrimeMaps(NamedTuple):
    """A map on n >= 1 that acts prime by prime, as {p: (table, tail)}:
    n -> prod p**phi_p(v_p(n)) * (the part of n on the other primes).

    Entry v of the table of p is phi_p(v), v_p of the image of every n with
    v_p(n) == v; a prime without a table keeps its exponents. Past the
    table each exponent adds tail to the entry before: 1 (a word without a
    cap, `mul:C`), 0 (a cap, a bounded spec) or None, no entry (an
    unbounded spec). Calling the map maps one n, its one point rule; the
    map readers (_tables, _map_values) take the tables, never one n at a time.
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

    def read(self, p: int, length: int) -> list[int]:
        """Entries 0..length - 1 of the table of p, read on into its tail;
        fewer when it has no tail and ends first."""
        table, tail = self.tables.get(p, ([0], 1))  # the identity
        extra = length - len(table)
        if extra <= 0 or tail is None:
            return table[:length]
        last = table[-1]
        return table + (list(range(last + 1, last + 1 + extra)) if tail else [last] * extra)

    def __call__(self, n: int) -> int:
        """The image of n: each v = v_p(n) goes to entry v of p's table,
        read on into its tail (read); past a table without a tail,
        TableRangeError."""
        _check_int(n, "n")
        if n < 1:
            raise ValueError(f"the map acts on n >= 1, got {n}")
        out = 1
        for p in self.tables:
            v, n = _split(n, p)
            entries = self.read(p, v + 1)
            if len(entries) <= v:
                raise TableRangeError(p, v, len(entries) - 1)
            out *= p ** entries[v]
        return out * n

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

    def word(self) -> Word:
        """The shortest word with this map on the exponents the tables give:
        per prime, by ascending prime, for each value c that the table first
        reaches at an index a < c, in descending c, the bumps at levels
        a..c - 1; then, by ascending prime, a cap at the last entry of each
        table with tail 0. The tables must be non-decreasing and below their
        index only in their constant tail, as a word's and a valid spec's
        are. The word reads the map alone, so equal maps give one word.

        It has the map: the run for c starts at a and takes along each
        exponent that ends at c as it reaches its level, while those that
        end higher already stand above c, those that end lower still stand
        below a, and those the cap lowers stand above every bump's level. No
        word with the map is shorter: a bump moves every exponent at its
        level and exponents once equal stay equal, so exponents that end
        apart never share a bump, exponent a needs c - a of them, and only
        a cap makes a map eventually constant.
        """
        bumps, caps = [], []
        for p in sorted(self.tables):
            table, tail = self.tables[p]
            runs = [(a, c) for a, c in enumerate(table) if a < c and (a == 0 or table[a - 1] != c)]
            bumps += [_generator(BUMP, p, t) for a, c in reversed(runs) for t in range(a, c)]
            if tail == 0:
                caps.append(_generator(CAP, p, table[-1]))
        return Word(tuple(bumps + caps))


def _fold(gens: Iterable[tuple[str, int, int]],
          identity: Callable[[int], list[int]]) -> _PrimeMaps:
    """The map of the word whose generators are gens, as (kind, prime,
    level) in application order. A prime's table starts as identity(p), a
    fresh list that reaches one past every level of p, and each generator
    rewrites its prime's table: a bump raises the entries equal to its
    level by one, a cap lowers those above its level to it. Both keep a
    table non-decreasing, so each rewrites one run. The exponents past the
    table keep their value under every bump and drop to a cap like its
    last entry, so the tail is 0 once the prime has a cap and 1 before."""
    tables: dict[int, list[int]] = {}
    capped = set()
    for kind, p, t in gens:
        table = tables.get(p)
        if table is None:
            table = tables[p] = identity(p)
        if kind == CAP:
            lo = bisect_right(table, t)
            table[lo:] = [t] * (len(table) - lo)
            capped.add(p)
        else:
            lo = bisect_left(table, t)
            hi = bisect_right(table, t, lo)
            table[lo:hi] = [t + 1] * (hi - lo)
    return _PrimeMaps({p: (table, 0 if p in capped else 1) for p, table in tables.items()})


class _ResidueMap:
    """A residue map: residues(max_n, modulus) lists f(1..max_n) mod
    modulus without building its values, beside its point rule point(n)
    (calling the map maps one n)."""

    __slots__ = ("point", "residues")

    def __init__(self, point: Callable[[int], int],
                 residues: Callable[[int, int], list[int]]):
        self.point = point
        self.residues = residues

    def __call__(self, n: int) -> int:
        return self.point(n)


def _mul_map(c: int, max_n: int) -> Callable[[int], int]:
    """n -> c * n, for a request that reads it on 1..max_n: the CLI's
    `identity` (c = 1) and `mul:C`.

    Its tables are v -> v + v_p(c), the table [v_p(c)] with tail 1, at each
    prime p of c. c is divided by the primes <= max_n alone, never up to
    sqrt(c), and division stops once the cofactor r is prime, which is then
    keyed whatever its size. So the tables, when there are any, are c's
    full factorization and exact at every N. A composite r > 1 has every
    prime above max_n and cannot be split that way: the map is then the
    plain callable n -> c * n.
    """
    pairs, r = _trial_division(c, max_n)
    if r > 1:
        if not is_prime(r):
            return lambda n: c * n
        pairs.append((r, 1))
    return _PrimeMaps({p: ([e], 1) for p, e in pairs})


def _power_map(exponent: Callable[[int], int]) -> _ResidueMap:
    """n -> n**exponent(n): the CLI's `pow:B` (a constant exponent) and
    `nn` (n itself). Its point value and its residues mod M come from one
    rule, power, without a modulus and with M."""

    def power(n: int, modulus: int | None = None) -> int:
        return pow(n, exponent(n), modulus)

    return _ResidueMap(power,
                       lambda max_n, modulus: [power(n, modulus) for n in range(1, max_n + 1)])


_INVALID_VALUE = "map produced {m!r} at n={n}; expected an integer >= 1"


def _map_values(f: Callable[[int], int], max_n: int,
                invalid: str = _INVALID_VALUE) -> Iterator[int]:
    """f(1), ..., f(max_n) in order, each taken once.

    A table map gives them in one pass of its kernel, up to the first point
    a table without a tail misses, where its point rule raises, and a
    residue map by its point rule. A plain callable is called per n, and
    each value must be an int >= 1 and not a bool, else
    ValueError(invalid.format(n=n, m=m)) at the first bad n. Either way
    nothing after the first failing n is produced, so a consumer sees
    values and errors in the order of n.
    """
    if isinstance(f, _PrimeMaps):
        values = f.values(max_n)
        yield from values
        yield from map(f, range(len(values) + 1, max_n + 1))
        return
    if isinstance(f, _ResidueMap):
        yield from map(f.point, range(1, max_n + 1))
        return
    for n in range(1, max_n + 1):
        m = f(n)
        if type(m) is not int and (type(m) is bool or not isinstance(m, int)) or m < 1:
            raise ValueError(invalid.format(n=n, m=m))
        yield m


def _map_residues(f: Callable[[int], int], max_n: int) -> Callable[..., list[int]]:
    """(modulus, n=max_n) -> [f(1) % modulus, ..., f(n) % modulus], n <= max_n.

    A residue map answers each modulus and n without building its values.
    Any other map's values on 1..max_n are taken once, here, through
    _map_values (validated there, so errors surface in the order of n, and
    before any residue is asked for), and reduced for each modulus.
    """
    if isinstance(f, _ResidueMap):
        return lambda modulus, n=max_n: f.residues(n, modulus)
    values = list(_map_values(f, max_n))
    return lambda modulus, n=max_n: [m % modulus for m in islice(values, n)]


def _tables(f: Callable[[int], int], max_n: int) -> dict[int, list[int]] | None:
    """The tables of a table map f cut to 1..max_n, when every table covers
    the exponents v with p**v <= max_n (no unbounded spec table ends short)
    and is non-decreasing; else None, and the consumer reads f's values."""
    if not isinstance(f, _PrimeMaps):
        return None
    tables = f.cut(max_n)
    for p, table in tables.items():
        if p ** len(table) <= max_n or any(a > b for a, b in zip(table, table[1:])):
            return None
    return tables


def eval_range(word: Word, max_n: int) -> list[int]:
    """Values of a word on 1..max_n (index 0 holds the image of 1).

    The word's exponent table of each prime it touches drives one pass of
    the per-prime kernel (_PrimeMaps.values), one pass per prime however
    many generators the word has.
    """
    _check_int(max_n, "max_n")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    return word._maps.values(max_n)


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
    _check_int(max_n, "max_n")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    n = w1._maps.first_difference(w2._maps, {}, max_n)
    if n is None:
        return None
    return Witness(n, eval_word(w1, n), eval_word(w2, n))


def normal_form(word: Word) -> Word:
    """The canonical normal form of a word: the shortest word of any shape
    with its map, built from its exponent tables (_PrimeMaps.word). Per
    prime, bumps in descending final value, each run from the smallest
    exponent that reaches it, then at most one cap; primes ascending, all
    bumps before all caps.

    It depends on the word's map alone, so two words are equal at every n
    exactly when their normal forms are identical. The form starts with
    the word's tables (Word._maps), which are its own.
    """
    form = word._maps.word()
    vars(form)["_maps"] = word._maps  # where cached_property keeps its value
    return form


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
    _check_int(seed, "seed")
    _check_int(length, "length")
    _check_int(max_prime, "max_prime")
    _check_int(max_level, "max_level")
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
    folded (_fold) into per-search tables, each prime's copied from an
    identity that covers both its exponents on 1..max_n and one past
    max_level, so two draws have equal tables and tails exactly when they
    have the same map, i.e. the same normal form (no folded table is the
    identity: its prime's first generator merges two entries). Its key
    holds the tables that are not the identity on 1..max_n, cut there, by
    ascending prime: two forms agree on 1..max_n exactly when their keys
    are equal, since the value at n is read off the entries at v_p(n), and
    n = p**v reads entry v of p alone. Forms are grouped by key, groups in
    order of first sighting and, within one, forms kept once each by their
    full tables in first-seen order; every pair (i, j), i < j, of a group of
    two or more is returned, its words built once each, from checked
    generators. The draw's argument errors come at the first draw, then
    max_n below 1.
    """
    draws = _draws(seed, length, max_prime, max_level)
    # p -> (its identity table, and that table cut to 1..max_n)
    sizes: dict[int, tuple[list[int], list[int]]] = {}

    def identity(p: int) -> list[int]:
        size = sizes.get(p)
        if size is None:
            kept = _PrimeMaps._length(p, max_n)
            table = list(range(max(kept, max_level + 2)))
            size = sizes[p] = (table, table[:kept])
        return size[0].copy()

    # key -> {full tables: None}, both in first-seen order
    groups: dict[tuple, dict[tuple, None]] = {}
    for _ in range(count):
        gens = next(draws)
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        tables = _fold(gens, identity).tables
        full, key = [], []
        for p in sorted(tables):
            table, tail = tables[p]
            full.append((p, tuple(table), tail))
            ident = sizes[p][1]
            cut = table[: len(ident)]
            if cut != ident:
                key.append((p, tuple(cut)))
        groups.setdefault(tuple(key), {})[tuple(full)] = None
    pairs = []
    for group in groups.values():
        if len(group) > 1:
            forms = [_PrimeMaps({p: (t, tail) for p, t, tail in full}).word() for full in group]
            pairs += combinations(forms, 2)
    return pairs
