"""Truncated formal power series over exact rationals, and the zeta side of
fixed-point counting.

The zeta series of a count sequence (a_n) is F = exp(sum a_n z^n / n). Since
z F' = F * sum a_n z^n, its coefficients obey Newton's identity, which one
private kernel runs in each direction:

    exp: n * F_n = sum_{k=1..n} a_k * F_{n-k}        (F_0 = 1)
    log: a_n = n * F_n - sum_{k<n} a_k * F_{n-k}

zeta_from_fix is the exp kernel of the counts, and fix_from_zeta checks the
a_n of the log kernel. exp G is the zeta series of the counts k * G_k, and
log F has the coefficients a_n / n, so exp_series and log_series (and
series_pow = exp(r * log f)) run on the same kernels.

Integers first: each sum is an integer as long as the values it reads are.
The exp kernel keeps F_n an int when n divides its sum, and the log kernel
holds every integral F_n and a_n as an int; only the others become
fractions.Fraction. Every coefficient a Series holds is a Fraction; nothing
ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Iterator, Sequence

from .arith import _check_int
from .sequences import RealizabilityVerdict, check_realizable
from .words import _map_values

__all__ = [
    "Series",
    "FixSource",
    "SourceRangeError",
    "InversionError",
    "ConstantTermNotOne",
    "NonIntegerLogCoefficient",
    "NegativeCount",
    "ZetaVerdict",
    "zeta_from_fix",
    "fix_from_zeta",
    "series_mul",
    "series_pow",
    "log_series",
    "exp_series",
    "time_change_fix",
    "is_zeta",
    "TimeChangeComparison",
    "two_shift_comparison",
]


@dataclass(frozen=True)
class Series:
    """A power series truncated at a fixed order: coefficients c_0..c_order."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = self.coeffs
        if len(coeffs) < 1:
            raise ValueError("a series needs at least the constant coefficient")
        # one scan of the types: Fraction(0.1) would store the float's binary
        # value, and Fraction(True) would read a bool as 1
        if any(issubclass(kind, (float, bool)) for kind in set(map(type, coeffs))):
            i, c = next((i, c) for i, c in enumerate(coeffs) if isinstance(c, (float, bool)))
            raise ValueError(f"series coefficient {i} is {c!r}, not an exact number")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def of(cls, values: Sequence, order: int | None = None) -> "Series":
        """Build a series from leading coefficients, zero-padded to order."""
        coeffs = list(values)
        if order is not None:
            _check_int(order, "order")
            coeffs = coeffs[: order + 1] + [0] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls.of([1], order)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)


class SourceRangeError(ValueError):
    """A finite table source was asked for an index it does not cover."""

    def __init__(self, index: int, size: int):
        self.index = index
        self.size = size
        super().__init__(f"table source covers n = 1..{size}, asked for n = {index}")


class FixSource:
    """An evaluable rule n -> a_n (n >= 1) producing non-negative counts."""

    def __init__(self, label: str, rule: Callable[[int], int]):
        self.label = label
        self._rule = rule

    def __repr__(self):
        return f"FixSource({self.label})"

    def value(self, n: int) -> int:
        if n < 1:
            raise ValueError(f"count sources are indexed from 1, got {n}")
        a = self._rule(n)
        # a bool is not a count; an exact int passes on its type alone
        if type(a) is not int and (type(a) is bool or not isinstance(a, int)) or a < 0:
            raise ValueError(f"source {self.label} produced {a!r} at n={n}")
        return a

    def prefix(self, length: int) -> list[int]:
        return [self.value(n) for n in range(1, length + 1)]

    @classmethod
    def constant(cls, c: int) -> "FixSource":
        if c < 0:
            raise ValueError("constant source needs a non-negative value")
        return cls(f"constant:{c}", lambda n: c)

    @classmethod
    def geometric(cls, base: int) -> "FixSource":
        """a_n = base**n, the full shift on `base` symbols."""
        if base < 0:
            raise ValueError("geometric source needs a non-negative base")
        return cls(f"geometric:{base}", lambda n: base**n)

    @classmethod
    def single_orbit(cls, k: int) -> "FixSource":
        """a_n = k when k | n, else 0: one closed orbit of length k."""
        if k < 1:
            raise ValueError("orbit length must be >= 1")
        return cls(f"reg:{k}", lambda n: k if n % k == 0 else 0)

    @classmethod
    def table(cls, entries: Sequence[int]) -> "FixSource":
        """Finite table; out-of-range lookups raise SourceRangeError."""
        values = list(entries)
        for i, a in enumerate(values):
            if type(a) is not int and (type(a) is bool or not isinstance(a, int)) or a < 0:
                raise ValueError(f"table entry {i + 1} is {a!r}")

        def rule(n: int) -> int:
            if n > len(values):
                raise SourceRangeError(n, len(values))
            return values[n - 1]

        return cls(f"table[{len(values)}]", rule)

    @classmethod
    def from_orbit_counts(cls, counts: Sequence[int]) -> "FixSource":
        """Total rule a_n = sum of d * O_d over orbit lengths d dividing n.

        A finite orbit multiset defines counts for every n, so unlike a plain
        table this source has no range limit.
        """
        table = list(counts)
        for i, c in enumerate(table):
            if type(c) is not int and (type(c) is bool or not isinstance(c, int)) or c < 0:
                raise ValueError(f"orbit count {i + 1} is {c!r}")

        def rule(n: int) -> int:
            return sum(d * table[d - 1] for d in range(1, len(table) + 1) if n % d == 0)

        return cls(f"orbits[{len(table)}]", rule)


class InversionError(ValueError):
    """A series could not be read back as a zeta series."""

    reason = "inversion"

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class ConstantTermNotOne(InversionError):
    reason = "constant_term_not_one"


class NonIntegerLogCoefficient(InversionError):
    reason = "non_integer_log_coefficient"


class NegativeCount(InversionError):
    reason = "negative_count"


def _int_first(x):
    """x as an int when it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def _exp_counts(a: Sequence) -> Series:
    """exp(sum a_k z^k / k) to order len(a), by the exp recurrence."""
    coeffs = [1]
    for n in range(1, len(a) + 1):
        acc = sum(map(mul, a, reversed(coeffs)))
        q, r = divmod(acc, n)
        coeffs.append(Fraction(acc, n) if r else q)
    return Series(tuple(coeffs))


def _log_counts(f: Series) -> Iterator:
    """a_1, ..., a_order of f = exp(sum a_n z^n / n), lazily, by the log
    recurrence; needs f_0 = 1."""
    c = [_int_first(x) for x in f.coeffs]
    out = []
    for n in range(1, len(c)):
        out.append(_int_first(n * c[n] - sum(map(mul, out, reversed(c[1:n])))))
        yield out[-1]


def zeta_from_fix(source: FixSource, order: int) -> Series:
    """Zeta series exp(sum a_n z^n / n) truncated at the given order."""
    _check_int(order, "order")
    if order < 0:
        raise ValueError("order must be >= 0")
    return _exp_counts(source.prefix(order))


def log_series(f: Series) -> Series:
    """Logarithm of a series with constant term 1, truncated at f.order."""
    if f.coeffs[0] != 1:
        raise ConstantTermNotOne(f"log needs constant term 1, got {f.coeffs[0]}")
    return Series((0, *(Fraction(a, n) for n, a in enumerate(_log_counts(f), 1))))


def exp_series(g: Series) -> Series:
    """Exponential of a series with constant term 0, truncated at g.order."""
    if g.coeffs[0] != 0:
        raise ValueError(f"exp needs constant term 0, got {g.coeffs[0]}")
    return _exp_counts([_int_first(k * c) for k, c in enumerate(g.coeffs[1:], 1)])


def fix_from_zeta(f: Series) -> list[int]:
    """Recover counts a_n = n * [z^n] log f, checking they are counts.

    Raises ConstantTermNotOne, NonIntegerLogCoefficient or NegativeCount
    (each carrying the first offending index) when f is not a zeta prefix.
    At equal index a non-integral a_n is reported before a negative one.
    """
    if f.coeffs[0] != 1:
        raise ConstantTermNotOne(
            f"constant term is {f.coeffs[0]}, a zeta series starts at 1"
        )
    out = []
    for n, a in enumerate(_log_counts(f), 1):
        if a.denominator != 1:
            raise NonIntegerLogCoefficient(f"a_{n} = {a} is not an integer", n)
        if a < 0:
            raise NegativeCount(f"a_{n} = {a} is negative", n)
        out.append(a)
    return out


def series_mul(f: Series, g: Series) -> Series:
    """Cauchy product truncated at the common order."""
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")
    a, b = f.coeffs, g.coeffs
    return Series(
        tuple(sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(f.order + 1))
    )


def series_pow(f: Series, r) -> Series:
    """f**r = exp(r * log f) for an exact rational exponent; needs f_0 = 1."""
    if isinstance(r, (float, bool)):
        raise ValueError(f"series exponent is {r!r}, not an exact number")
    r = Fraction(r)
    logs = log_series(f)
    return exp_series(Series(tuple(r * c for c in logs.coeffs)))


def time_change_fix(h: Callable[[int], int], source: FixSource, length: int) -> list[int]:
    """Prefix of the time-changed counts: entry n is a_{h(n)}.

    The values of h are taken once (_map_values; dynzeta.words tells how
    each kind of map is read). Counts are read in the order of n, so a
    failing source lookup is reported before a map error at a larger n.
    """
    _check_int(length, "length")
    if length < 1:
        raise ValueError("length must be >= 1")
    invalid = "time-change value h({n}) = {m!r}; expected an integer >= 1"
    return [source.value(m) for m in _map_values(h, length, invalid)]


@dataclass(frozen=True)
class ZetaVerdict:
    """Whether a series is a zeta prefix, and if not, why."""

    passed: bool
    reason: str | None = None  # an InversionError reason, "sign", or "dold"
    index: int | None = None

    def describe(self) -> str:
        if self.passed:
            return "pass"
        at = f" at n={self.index}" if self.index is not None else ""
        return f"fail: {self.reason}{at}"


def is_zeta(f: Series) -> ZetaVerdict:
    """Check that f is the order-f.order prefix of some dynamical zeta series."""
    try:
        entries = fix_from_zeta(f)
    except InversionError as err:
        return ZetaVerdict(False, err.reason, err.index)
    if not entries:
        return ZetaVerdict(True)
    verdict: RealizabilityVerdict = check_realizable(entries)
    if verdict.passed:
        return ZetaVerdict(True)
    return ZetaVerdict(False, verdict.failure, verdict.index)


@dataclass(frozen=True)
class TimeChangeComparison:
    """Coefficient-by-coefficient comparison of a directly computed
    time-changed zeta series against a candidate closed form."""

    prime: int
    order: int
    fix_entries: tuple[int, ...]
    realizability: RealizabilityVerdict
    direct: Series
    closed_form: Series
    first_mismatch: int | None

    def rows(self):
        """(n, direct coefficient, closed-form coefficient, equal?) tuples."""
        return [
            (n, self.direct.coeffs[n], self.closed_form.coeffs[n],
             self.direct.coeffs[n] == self.closed_form.coeffs[n])
            for n in range(self.order + 1)
        ]


def two_shift_comparison(p: int, order: int) -> TimeChangeComparison:
    """Time-change the full 2-shift by the map that multiplies n by p whenever
    p divides n, and compare the resulting zeta series with the candidate
    closed form (1 - 2 z^p)^(-1/p) * (1 - 2 z)^(-1) * (1 - 2^p z^p).

    The direct side is computed from the definitions alone; the closed form is
    evaluated independently. Nothing is assumed about whether they agree, the
    report simply records the comparison. (The candidate fails from z^p on.
    Splitting the log series sum 2^h(n) z^n / n by whether p divides n gives
    the direct side exactly: (1 - 2 z)^(-1) * (1 - 2^p z^p)^(1/p) *
    (1 - 2^(p^2) z^p)^(-1/p), which the tests check.)
    """
    shift = FixSource.geometric(2)
    entries = time_change_fix(lambda n: p * n if n % p == 0 else n, shift, order)
    realizability = check_realizable(entries)
    direct = zeta_from_fix(FixSource.table(entries), order)

    one_minus_2zp = Series.of([1] + [0] * (p - 1) + [-2], order)
    one_minus_2z = Series.of([1, -2], order)
    poly = Series.of([1] + [0] * (p - 1) + [-(2**p)], order)
    closed = series_mul(
        series_mul(series_pow(one_minus_2zp, Fraction(-1, p)), series_pow(one_minus_2z, -1)),
        poly,
    )

    first = None
    for n in range(order + 1):
        if direct.coeffs[n] != closed.coeffs[n]:
            first = n
            break
    return TimeChangeComparison(
        prime=p,
        order=order,
        fix_entries=tuple(entries),
        realizability=realizability,
        direct=direct,
        closed_form=closed,
        first_mismatch=first,
    )
