"""Per-prime exponent descriptions of time-change maps, and finite-precision
membership refutation.

A map on the positive integers that preserves realizability acts prime by
prime: in the factorization of its argument, each prime's exponent is
rewritten by a function of that exponent alone, and nothing mixes across
primes. A spec stores finitely many such exponent functions; every unmapped
prime keeps its exponent unchanged. An exponent function is either

    bounded:   explicitly listed leading values, constant beyond them
               (the constant being the last listed value), or
    unbounded: a table of leading values with no extrapolation rule at all;
               asking beyond the table is a hard error rather than a guess.

A valid spec has every exponent function non-decreasing, and bounded below
by the identity (value >= index) on the whole table for unbounded shapes,
respectively up to the eventual value for bounded ones.

This module owns that format (the shapes BOUNDED and UNBOUNDED, and the
checks), and a spec's map is its tables (ExponentSpec._maps), the
per-prime value words use: a bounded table with a constant tail, an
unbounded one with none. Which maps are table maps, residue maps or plain
callables, and how each is read, is told once, in dynzeta.words. The map
consumers here (membership probes, preimage structure, the divisibility
laws) answer a table map from its tables alone, whatever the size of N
(10**12 included), when each covers its prime's exponents on 1..N and is
non-decreasing: then f(n) = prod_p p**phi_p(v_p(n)) on 1..N with every
phi_p non-decreasing (the identity off the tables), and

    divisibility laws: all three hold (check_divisibility_properties);
    preimage of the multiples of k: the multiples of one step read off
        the tables, or empty (preimage_structure);
    membership probes: when validate_spec accepts the tables read as
        bounded, compile_spec turns them into a word that agrees with f on
        1..N, so no probe fails, for any orbit length (membership_test).

The tables never refute. Any other map is read through its values on 1..N,
so its errors, witnesses and counterexamples come from them; the
divisibility laws are then tested along prime steps, in O(N log log N)
tests, and the membership probes and the preimage structure read only
f(n) modulo a small M.

Membership testing is one-sided: a single-orbit time change that fails the
realizability check refutes membership conclusively, while passing every
probe says nothing about f beyond 1..N, and, off the table path, nothing
about the orbit lengths not probed. The API therefore never answers "is a
member". The probes are linear in the indicator of k | f(n), so the probes
of a block of orbit lengths run as one Moebius transform of integers
packing one lane per length, and the lanes are read in order of k.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Callable, Mapping

from .arith import _check_int, _split, factorize, is_prime, primes_up_to
from .sequences import DOLD, SIGN, RealizabilityVerdict, _mobius_sieve
from .words import TableRangeError, Word, _map_residues, _map_values, _PrimeMaps, _tables

__all__ = [
    "BOUNDED",
    "UNBOUNDED",
    "ExponentFunction",
    "ExponentSpec",
    "TableRangeError",
    "SpecViolation",
    "validate_spec",
    "apply_spec",
    "spec_from_word",
    "PreimageStructure",
    "preimage_structure",
    "MembershipWitness",
    "MembershipReport",
    "membership_test",
    "ClaimResult",
    "DivisibilityReport",
    "check_divisibility_properties",
]

BOUNDED = "bounded"
UNBOUNDED = "unbounded"

NON_DECREASING = "non-decreasing"
LOWER_BOUND = "exponent-lower-bound"


@dataclass(frozen=True)
class ExponentFunction:
    """One prime's exponent function, as listed values plus a shape tag."""

    shape: str
    values: tuple[int, ...]

    def __post_init__(self):
        if self.shape not in (BOUNDED, UNBOUNDED):
            raise ValueError(f"unknown shape {self.shape!r}")
        values = tuple(self.values)
        for v in values:
            _check_int(v, "exponent value")
        if not values:
            raise ValueError("an exponent function needs at least the value at 0")
        if any(v < 0 for v in values):
            raise ValueError(f"exponent values must be >= 0, got {values}")
        object.__setattr__(self, "values", values)

    @classmethod
    def bounded(cls, values) -> "ExponentFunction":
        return cls(BOUNDED, tuple(values))

    @classmethod
    def unbounded(cls, values) -> "ExponentFunction":
        return cls(UNBOUNDED, tuple(values))

    @property
    def table_bound(self) -> int:
        return len(self.values) - 1

    @property
    def eventual(self) -> int:
        """The constant value a bounded function takes beyond its table."""
        if self.shape != BOUNDED:
            raise ValueError("only bounded functions have an eventual value")
        return self.values[-1]

    def value(self, v: int, prime: int | None = None) -> int:
        if v < 0:
            raise ValueError(f"exponents are >= 0, got {v}")
        if v < len(self.values):
            return self.values[v]
        if self.shape == BOUNDED:
            return self.values[-1]
        raise TableRangeError(prime, v, self.table_bound)

    def is_identity_table(self) -> bool:
        return all(d == i for i, d in enumerate(self.values))


@dataclass(frozen=True)
class ExponentSpec:
    """Finitely many per-prime exponent functions; other primes are identity."""

    functions: Mapping[int, ExponentFunction]

    def __post_init__(self):
        funcs = dict(self.functions)
        for p, fn in funcs.items():
            _check_int(p, "prime")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if not isinstance(fn, ExponentFunction):
                raise ValueError(f"prime {p}: {fn!r} is not an ExponentFunction")
        object.__setattr__(self, "functions", {p: funcs[p] for p in sorted(funcs)})

    def primes(self) -> list[int]:
        return list(self.functions)

    @property
    def _maps(self) -> _PrimeMaps:
        """The map the spec describes, as its tables: a bounded function's
        values with a constant tail, an unbounded one's with none, so the
        map raises at p**(bound + 1) the TableRangeError apply_spec raises
        there. Built on each call, as functions is a dict a caller can
        still change."""
        return _PrimeMaps({p: (list(fn.values), 0 if fn.shape == BOUNDED else None)
                           for p, fn in self.functions.items()})


@dataclass(frozen=True)
class SpecViolation:
    """One broken validity condition, located by prime and table index."""

    prime: int
    condition: str  # NON_DECREASING or LOWER_BOUND
    index: int
    message: str


def validate_spec(spec: ExponentSpec) -> list[SpecViolation]:
    """All validity violations, in (prime, index) order, a drop before a
    lower-bound violation at the same index; empty means valid.

    Finiteness is structural (a spec maps finitely many primes). The checks
    are monotonicity, and the lower bound d(i) >= i on the table for
    unbounded shapes and up to the eventual value for bounded ones.
    """
    out: list[SpecViolation] = []
    for p, fn in spec.functions.items():
        vals = fn.values
        limit = len(vals) - 1 if fn.shape == UNBOUNDED else min(len(vals) - 1, vals[-1])
        for i in range(len(vals)):
            if i and vals[i] < vals[i - 1]:
                out.append(
                    SpecViolation(
                        p, NON_DECREASING, i,
                        f"prime {p}: value {vals[i]} at index {i} drops below "
                        f"{vals[i - 1]} at index {i - 1}",
                    )
                )
            if i <= limit and vals[i] < i:
                out.append(
                    SpecViolation(
                        p, LOWER_BOUND, i,
                        f"prime {p}: value {vals[i]} at index {i} is below the index",
                    )
                )
    return out


def apply_spec(spec: ExponentSpec, n: int) -> int:
    """Evaluate the map a spec describes: push each prime exponent of n
    through its exponent function and recompose. Unmapped primes pass
    through untouched; unbounded tables raise beyond their range."""
    _check_int(n, "n")
    if n < 1:
        raise ValueError(f"the map acts on n >= 1, got {n}")
    rest = n
    out = 1
    for p, fn in spec.functions.items():
        v, rest = _split(rest, p)
        out *= p ** fn.value(v, p)
    return out * rest


def spec_from_word(word: Word, max_prime: int, max_level: int) -> ExponentSpec:
    """Tabulate the exponent functions of a word: the table for p records
    the valuation of the image of p**v, which the word's generators of prime
    p alone decide.

    Every prime up to max_prime is tabulated for v = 0..max_level. A prime
    the word caps is constant past its word table, so it is stored in the
    bounded shape, read to max_level + 1 entries or to the table's end,
    whichever is longer, and is exact for every n. Every other prime's
    table records observed exponents only and carries no claim about
    larger ones, so it is stored in the unbounded (no extrapolation) shape.
    compile_spec turns the spec into a word equal to the input at every n
    its agreement set admits.
    """
    _check_int(max_prime, "max_prime")
    _check_int(max_level, "max_level")
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    stray = [p for p in word.primes() if p > max_prime]
    if stray:
        raise ValueError(f"word touches primes {sorted(stray)} above {max_prime}")
    maps, functions = word._maps, {}
    for p in primes_up_to(max_prime):
        table, tail = maps.tables.get(p, ((), 1))
        if tail == 0:
            values = maps.read(p, max(max_level + 1, len(table)))
            functions[p] = ExponentFunction.bounded(values)
        else:
            functions[p] = ExponentFunction.unbounded(maps.read(p, max_level + 1))
    return ExponentSpec(functions)


@dataclass(frozen=True)
class PreimageStructure:
    """Shape of {n <= max_n : k divides f(n)} at precision max_n.

    The set is empty, or the multiples of a divisor step of k, or neither
    (recorded with the first place the progression pattern breaks).
    """

    outcome: str  # "empty", "progression", "violation"
    k: int
    max_n: int
    step: int | None = None
    witness: int | None = None

    @classmethod
    def empty(cls, k, max_n):
        return cls("empty", k, max_n)

    @classmethod
    def progression(cls, k, max_n, step):
        return cls("progression", k, max_n, step=step)

    @classmethod
    def violation(cls, k, max_n, witness):
        return cls("violation", k, max_n, witness=witness)


def preimage_structure(f: Callable[[int], int], k: int, max_n: int) -> PreimageStructure:
    """Classify the preimage of the multiples of k under f, up to max_n.

    A map whose tables serve (see _tables) is answered from them. Write
    q**e for each prime power exactly dividing k. Then k | f(n) exactly when
    phi_q(v_q(n)) >= e for each of them, and as phi_q is non-decreasing,
    exactly when v_q(n) >= t_q, the first index of q's table holding e or
    more (t_q = e for a prime without a table). So the preimage on 1..max_n
    is the multiples of step = prod q**t_q: empty when step > max_n (as
    when some t_q runs past its table), else its first point is step, a
    violation at step when step does not divide k, and the progression of
    step otherwise.

    Any other map is read through f(n) mod k alone (_map_residues), so a
    plain callable's value that is not an integer >= 1 raises ValueError
    as in membership_test and check_divisibility_properties.
    """
    _check_int(k, "k")
    _check_int(max_n, "max_n")
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_n < k:
        raise ValueError(f"max_n = {max_n} must be at least k = {k}")
    tables = _tables(f, max_n)
    if tables is not None:
        step, rest = 1, k  # rest keeps the primes of k without a table
        for q, table in tables.items():
            e, rest = _split(rest, q)
            if e:
                # t == len(table) when no q**v <= max_n reaches e, and then
                # q**t > max_n
                step *= q ** bisect_left(table, e)
        step *= rest
        if step > max_n:
            return PreimageStructure.empty(k, max_n)
        if k % step:
            return PreimageStructure.violation(k, max_n, step)
        return PreimageStructure.progression(k, max_n, step)
    residues = _map_residues(f, max_n)(k)
    try:
        step = residues.index(0) + 1
    except ValueError:
        return PreimageStructure.empty(k, max_n)
    if k % step != 0:
        return PreimageStructure.violation(k, max_n, step)
    # a progression has its zeros at the multiples of step and nowhere else
    if residues.count(0) == residues[step - 1 :: step].count(0) == max_n // step:
        return PreimageStructure.progression(k, max_n, step)
    n = next(n for n, r in enumerate(residues, start=1) if (r == 0) != (n % step == 0))
    return PreimageStructure.violation(k, max_n, n)


@dataclass(frozen=True)
class MembershipWitness:
    """A single-orbit probe length together with its failed verdict."""

    k: int
    verdict: RealizabilityVerdict


@dataclass(frozen=True)
class MembershipReport:
    """Result of probing a map with single orbits of every length <= max_k.

    A witness conclusively refutes membership in the time-change monoid. No
    witness means exactly that: nothing was found at this precision. With a
    certificate it means more: no orbit length of any size fails on
    1..max_n. The certificate is f's exponent spec on 1..max_n, in the
    unbounded shape, as its tables are cut to 1..max_n and say nothing of
    their tails: read as bounded, validate_spec accepts it, and
    compile_spec turns it into a word that agrees with f on 1..max_n. It
    backs the verdict and is not part of it, so two reports with the same
    verdict compare equal.
    """

    max_k: int
    max_n: int
    witness: MembershipWitness | None = None
    certificate: ExponentSpec | None = field(default=None, compare=False)

    @property
    def refuted(self) -> bool:
        return self.witness is not None

    def describe(self) -> str:
        if self.witness is None:
            if self.certificate is not None:
                return f"no violation for any k on 1..{self.max_n}"
            return f"no violation up to k={self.max_k}, n={self.max_n} (inconclusive)"
        w = self.witness
        return f"refuted by orbit length k={w.k}: {w.verdict.describe()}"


_LANES = 32  # orbit lengths probed by one packed transform
_PREFIX = 64  # the probes run on 1..min(N, _PREFIX) first


def membership_test(f: Callable[[int], int], max_k: int, max_n: int) -> MembershipReport:
    """Probe f with every single-orbit system of length k <= max_k.

    The time change of one orbit of length k by f counts k at each n with
    k | f(n); the smallest k whose probe fails realizability is returned,
    with the verdict check_realizable gives that probe.

    A map whose tables serve (see _tables) needs no probe when
    validate_spec accepts them read as bounded: compile_spec then makes a
    word equal to f on 1..max_n. A word preserves realizability, and a
    probe reads f on 1..max_n alone, so every probe of every orbit length
    passes, and the report carries the tables as its certificate. Tables
    that validate_spec rejects prove nothing either way, and the probes run.

    The probes read only f(n) mod M (dynzeta.words tells how each kind of
    map gives it), where M is the lcm of the probed lengths; a plain
    callable's or a table map's values are all taken on 1..max_n first, so
    a bad value or a table that ends short raises wherever it lies. The
    probe of k = 1 counts 1 at every n, and its transform is [1, 0, 0, ...],
    so it passes on every map and never runs.

    The probes run on the prefix 1..min(max_n, 64) first. The check at n
    reads a probe's transform at n, which reads the probe on the divisors
    of n alone, so a probe that fails at n0 on the prefix fails at n0, with
    the same verdict, on 1..max_n. Only a smaller length, failing beyond
    the prefix, can take the witness from the prefix's smallest failing
    length k0: the lengths 2..k0 - 1 (all lengths when none fails) are
    probed again on 1..max_n, and the smallest that fails there is the
    witness, else k0. Refuted maps mostly fail at small n, and then the
    lengths from k0 on never see the residues beyond the prefix.

    Within a range, the probes of one block of up to 32 consecutive lengths
    share one Moebius transform (see _probe_block). Blocks run in order of
    k, each with its own M, and stop at the first that fails, so a huge
    max_k builds no lcm(1..max_k).
    """
    _check_int(max_k, "max_k")
    _check_int(max_n, "max_n")
    if max_k < 1 or max_n < 1:
        raise ValueError("max_k and max_n must be >= 1")
    tables = _tables(f, max_n)
    if tables is not None:
        bounded = {p: ExponentFunction.bounded(table) for p, table in tables.items()}
        if not validate_spec(ExponentSpec(bounded)):
            certificate = {p: ExponentFunction.unbounded(table) for p, table in tables.items()}
            return MembershipReport(max_k, max_n, certificate=ExponentSpec(certificate))
    residues = _map_residues(f, max_n)
    prefix = min(max_n, _PREFIX)
    witness = _first_witness(residues, max_k, prefix)
    if prefix < max_n:
        last = max_k if witness is None else witness.k - 1
        witness = _first_witness(residues, last, max_n) or witness
    return MembershipReport(max_k, max_n, witness)


def _first_witness(residues: Callable[..., list[int]], max_k: int,
                   n: int) -> MembershipWitness | None:
    """The first failing probe among the lengths 2..max_k on 1..n, or None,
    probed in blocks of the lengths 32j + 1..32j + 32."""
    width = n.bit_length() + 2
    for start in range(1, max_k + 1, _LANES):
        ks = range(max(start, 2), min(start + _LANES, max_k + 1))
        if not ks:  # max_k = 1
            return None
        modulus = lcm(*ks)
        witness = _probe_block(ks, modulus, residues(modulus, n), width)
        if witness is not None:
            return witness
    return None


def _probe_block(ks: range, modulus: int, residues: list[int],
                 width: int) -> MembershipWitness | None:
    """The first failing probe among the orbit lengths ks, or None.

    The Moebius transform is linear, and the probe of k is k times the
    indicator of k | f(n), so its transform is k * c with c the transform
    of that indicator. Each n gets one integer holding, in bits
    width*j .. width*(j+1) - 1, the indicator of ks[j] | f(n); it is read
    off gcd(f(n) mod modulus, modulus), once per distinct gcd. One run of
    mobius_transform's sieve on these integers transforms every lane at
    once; it skips the public check on counts, as they are built here.
    Every |c_n| <= 2**omega(n) <= n < 2**(width - 2), so adding half a
    lane to every lane makes each one non-negative and exact to read.
    Lanes are read in order of k and each from the smallest n, sign before
    Dold, which is the verdict check_realizable gives the probe.
    """
    bits = [(k, 1 << width * j) for j, k in enumerate(ks)]
    packed, lanes = [], {}
    for r in residues:
        g = gcd(r, modulus)
        x = lanes.get(g)
        if x is None:
            x = lanes[g] = sum([bit for k, bit in bits if g % k == 0])
        packed.append(x)
    half, mask = 1 << width - 1, (1 << width) - 1
    bias = sum(half << width * j for j in range(len(ks)))
    # a transformed integer of 0 is 0 in every lane, and passes every probe
    moved = [(n, c + bias) for n, c in enumerate(_mobius_sieve(packed), start=1) if c]
    for j, k in enumerate(ks):
        shift = width * j
        for n, c in moved:
            b = k * ((c >> shift & mask) - half)
            if b < 0:
                return MembershipWitness(k, RealizabilityVerdict(SIGN, n, b))
            if b % n:
                return MembershipWitness(k, RealizabilityVerdict(DOLD, n, b))
    return None


@dataclass(frozen=True)
class ClaimResult:
    holds: bool
    counterexample: tuple | None = None


@dataclass(frozen=True)
class DivisibilityReport:
    """First counterexamples, if any, to three divisibility laws every
    realizability-preserving map obeys:

      divides:       m | n implies f(m) | f(n)            (witness (m, n))
      coprime_lcm:   gcd(m,n) = 1 implies f(mn) = lcm(f(m), f(n))
      prime_support: every prime of f(n)/f(1) divides n   (witness (q, n))
    """

    max_n: int
    divides: ClaimResult
    coprime_lcm: ClaimResult
    prime_support: ClaimResult

    @property
    def all_hold(self) -> bool:
        return self.divides.holds and self.coprime_lcm.holds and self.prime_support.holds


def check_divisibility_properties(f: Callable[[int], int], max_n: int) -> DivisibilityReport:
    """Exhaustively test the three divisibility laws on 1..max_n.

    A map whose tables serve (see _tables) obeys all three, as f(n) =
    prod_p p**phi_p(v_p(n)) there with every phi_p non-decreasing:

      divides:       m | n gives v_p(m) <= v_p(n), so phi_p(v_p(m)) <=
                     phi_p(v_p(n)) at every p;
      coprime_lcm:   with gcd(m, n) = 1, v_p(mn) = max(v_p(m), v_p(n)) at
                     every p, and phi_p of a max is the max of the phi_p;
      prime_support: a prime q not dividing n has v_q(f(n)) = phi_q(0) =
                     v_q(f(1)).

    For any other map the values f(1..max_n) are taken once
    (_map_values), and each law is tested along prime steps, in
    O(max_n log log max_n) tests in all:

      divides:       f(m) | f(mq) for every prime q. A chain of prime steps
                     from m to a multiple n holds when each step does, so
                     the smallest n with a failing m | n has a failing last
                     step; only there are its divisors m scanned, to name
                     the smallest.
      coprime_lcm:   f(1) | f(n), and f(n) = lcm(f(Q), f(n/Q)) with Q the
                     full power of the smallest prime of n. By induction
                     on n that gives f(n) = lcm of f(Q) over the prime
                     powers Q of n, which is the law for every coprime
                     pair. Only when it fails are the pairs (m, n) scanned,
                     smallest m first, to name the first.
      prime_support: the primes of n are stripped from f(n) by repeated
                     gcd, and the rest must divide f(1); only the first
                     value that fails is factorized, to name its smallest
                     offending prime.
    """
    _check_int(max_n, "max_n")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if _tables(f, max_n) is not None:
        holds = ClaimResult(True)
        return DivisibilityReport(max_n, holds, holds, holds)
    values = [0, *_map_values(f, max_n)]  # 1-based
    primes = primes_up_to(max_n)

    divides = ClaimResult(True)
    first_n = max_n + 1  # the smallest n with a failing step so far
    for q in primes:
        if q >= first_n:
            break
        for m, fn in enumerate(values[q:first_n:q], start=1):
            if fn % values[m]:
                first_n = m * q
                break
    if first_n <= max_n:
        fn = values[first_n]
        m = next(m for m in range(1, first_n) if first_n % m == 0 and fn % values[m])
        divides = ClaimResult(False, (m, first_n))

    # power[n] is the full power of the smallest prime of n: primes are
    # written largest first, so the smallest writes last
    power = [1] * (max_n + 1)
    for q in reversed(primes):
        qe = q
        while qe <= max_n:
            power[qe::qe] = [qe] * (max_n // qe)
            qe *= q
    coprime_lcm = ClaimResult(True)
    f1 = values[1]
    if any(fn % f1 for fn in values[2:]) or any(
        values[n] != lcm(values[qe], values[n // qe]) for n, qe in enumerate(power) if qe < n
    ):
        coprime_lcm = _first_lcm_pair(values, max_n)

    # the part of f(n) on primes not dividing n must divide f(1); g keeps
    # every prime of n still in rest, and squaring it strips fast
    prime_support = ClaimResult(True)
    for n in range(1, max_n + 1):
        rest = values[n]
        g = gcd(rest, n)
        while g > 1:
            rest //= g
            g = gcd(rest, g * g)
        if values[1] % rest:
            base = dict(factorize(values[1]))
            q = next(q for q, e in factorize(values[n]) if e > base.get(q, 0) and n % q)
            prime_support = ClaimResult(False, (q, n))
            break

    return DivisibilityReport(max_n, divides, coprime_lcm, prime_support)


def _first_lcm_pair(values: list[int], max_n: int) -> ClaimResult:
    """The first coprime pair m < n, smallest m then n, with f(mn) !=
    lcm(f(m), f(n)), where f(n) = values[n]."""
    for m in range(1, max_n + 1):
        for n in range(m + 1, max_n // m + 1):
            if gcd(m, n) != 1:
                continue
            fm, fn = values[m], values[n]
            if values[m * n] != fm * fn // gcd(fm, fn):
                return ClaimResult(False, (m, n))
    return ClaimResult(True)
