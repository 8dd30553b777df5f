"""Fixed-point count sequences and realizability.

A dynamical system contributes, for each n >= 1, the number of points fixed
by its n-th iterate. This module works with finite prefixes (a_1, ..., a_N)
of such counts, stored as plain Python lists (index 0 holds a_1). A prefix is
"realizable up to N" when its Moebius transform

    b_n = sum over d | n of mu(n/d) * a_d

is non-negative (sign condition) and divisible by n (Dold congruence) for
every n <= N; b_n / n is then the number of closed orbits of length n.

All verdicts are about the given prefix only; nothing is claimed beyond N.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arith import _check_int, primes_up_to

__all__ = [
    "SIGN",
    "DOLD",
    "RealizabilityVerdict",
    "RealizabilityError",
    "mobius_transform",
    "check_realizable",
    "orbit_counts",
    "fix_from_orbits",
    "reg",
    "disjoint_union",
    "hadamard",
]

SIGN = "sign"
DOLD = "dold"


@dataclass(frozen=True)
class RealizabilityVerdict:
    """Outcome of a realizability check.

    A failure records the smallest violating index n together with the exact
    transformed value b_n. At equal index the sign condition is reported
    before the divisibility condition.
    """

    failure: str | None = None  # None, SIGN, or DOLD
    index: int | None = None
    value: int | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def describe(self) -> str:
        if self.passed:
            return "pass"
        if self.failure == SIGN:
            return f"sign failure at n={self.index}: b_n = {self.value} < 0"
        return f"Dold failure at n={self.index}: {self.index} does not divide b_n = {self.value}"


class RealizabilityError(ValueError):
    """Raised when an operation requires a realizable prefix but got none."""

    def __init__(self, verdict: RealizabilityVerdict):
        self.verdict = verdict
        super().__init__(verdict.describe())


def _validate_counts(entries: Sequence[int], what: str = "sequence", kinds=int) -> None:
    """Reject an empty prefix and any entry that is not a non-negative
    number of the given kinds (a bool is no number)."""
    if len(entries) < 1:
        raise ValueError(f"{what} must have length >= 1")
    for i, a in enumerate(entries):
        if not isinstance(a, kinds) or isinstance(a, bool) or a < 0:
            raise ValueError(f"{what} entry {i + 1} is {a!r}; expected a non-negative integer")


def mobius_transform(entries: Sequence[int]) -> list[int]:
    """b_n = sum over d | n of mu(n/d) * a_d, for n = 1..N. May be negative.

    The transform is the product over primes p of (1 - S_p), where S_p moves
    the entry at m to m * p. It is applied as an in-place sieve on a copy of
    the entries: for each prime p <= N, walking m from N // p down to 1,
    b_{m p} -= b_m. Walking down reads every b_m before this prime's step
    changes it. That is O(N log log N) integer subtractions, with no
    factorization.
    """
    _validate_counts(entries)
    return _mobius_sieve(entries)


def _mobius_sieve(entries: Sequence[int]) -> list[int]:
    """mobius_transform's sieve, with no check on the entries: for callers
    that build their numbers themselves. These are the packed membership
    probes, and the realizability check of a long count file, whose entries
    are exact Decimals (see dynzeta.jsonio); the sieve only subtracts, so
    under an exact decimal context it gives the same numbers."""
    out = [0, *entries]  # 1-based
    n_max = len(entries)
    for p in primes_up_to(n_max):
        for m in range(n_max // p, 0, -1):
            out[m * p] -= out[m]
    del out[0]
    return out


def _verdict(transformed: Sequence[int]) -> RealizabilityVerdict:
    for n, b in enumerate(transformed, start=1):
        if b < 0:
            return RealizabilityVerdict(SIGN, n, b)
        if b % n != 0:
            return RealizabilityVerdict(DOLD, n, b)
    return RealizabilityVerdict()


def check_realizable(entries: Sequence[int]) -> RealizabilityVerdict:
    """Check the sign condition and the Dold congruence on a prefix."""
    return _verdict(mobius_transform(entries))


def orbit_counts(entries: Sequence[int]) -> list[int]:
    """Closed-orbit counts O_n = b_n / n of a realizable prefix.

    Raises RealizabilityError (carrying the verdict) if the prefix fails.
    """
    transformed = mobius_transform(entries)
    verdict = _verdict(transformed)
    if not verdict.passed:
        raise RealizabilityError(verdict)
    return [b // n for n, b in enumerate(transformed, start=1)]


def fix_from_orbits(counts: Sequence[int]) -> list[int]:
    """Fixed-point counts a_n = sum over d | n of d * O_d of an orbit multiset.

    Each orbit length d adds d * O_d to every multiple of d.
    """
    _validate_counts(counts, "orbit counts")
    n_max = len(counts)
    out = [0] * (n_max + 1)  # 1-based
    for d, count in enumerate(counts, start=1):
        if count:
            weight = d * count
            for n in range(d, n_max + 1, d):
                out[n] += weight
    del out[0]
    return out


def reg(k: int, length: int) -> list[int]:
    """Prefix of the count sequence of a single closed orbit of length k.

    Entry n is k when k divides n and 0 otherwise.
    """
    _check_int(k, "orbit length")
    _check_int(length, "prefix length")
    if k < 1:
        raise ValueError(f"orbit length must be >= 1, got {k}")
    if length < 1:
        raise ValueError(f"prefix length must be >= 1, got {length}")
    return [k if n % k == 0 else 0 for n in range(1, length + 1)]


def disjoint_union(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Pointwise sum: counts of the disjoint union of two systems."""
    _validate_counts(a)
    _validate_counts(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return [x + y for x, y in zip(a, b)]


def hadamard(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Pointwise product: counts of the Cartesian product of two systems."""
    _validate_counts(a)
    _validate_counts(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return [x * y for x, y in zip(a, b)]
