"""Compile a valid exponent spec into a generator word, together with the
explicit agreement set on which the word provably equals the target map.

Per prime, a valid spec's table is non-decreasing and at or above its
index until it reaches its eventual value, so it is the exponent table of
a word, and compile_spec builds the shortest one (words._PrimeMaps.word):
for each value c that the table first reaches at an index a < c, in
descending c, the run

    bump(p, a), bump(p, a+1), ..., bump(p, c - 1)

which raises a to c and takes along every exponent after a that ends at c.
Order matters: a bump moves every exponent at its level, so taken
ascending, a low run can lift an exponent into a later run's levels and
overshoot (targets 3 at exponent 1 and 5 at exponent 2 collide at level 3).
Taken descending, the exponents that end higher already stand above c and
those that end lower still stand below a.

Bounded shapes additionally append a cap at the eventual value M after all
bumps. The cap is a no-op on exponents the bumps already settled (their
targets are <= M) and sends every larger exponent to M, so the compiled word
is exact for all n on bounded and defaulted primes. Unbounded tables promise
nothing beyond their range; the agreement set records that honestly instead
of extrapolating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import _check_int, is_prime
from .exponents import BOUNDED, ExponentSpec, SpecViolation, apply_spec, validate_spec
from .words import Generator, Word, eval_word

__all__ = [
    "InvalidSpecError",
    "CompileResult",
    "Mismatch",
    "block_gadget",
    "compile_spec",
    "verify_compile",
]


class InvalidSpecError(ValueError):
    def __init__(self, violations: list[SpecViolation]):
        self.violations = violations
        details = "; ".join(v.message for v in violations)
        super().__init__(f"spec is not valid: {details}")


@dataclass(frozen=True)
class CompileResult:
    """A compiled word plus, per unbounded-table prime, the largest valuation
    the word is guaranteed on. Bounded and defaulted primes are exact
    everywhere and appear in no constraint."""

    word: Word
    agreement: dict[int, int]

    def admits(self, n: int) -> bool:
        """Whether n lies in the agreement set: no agreement prime p has
        p**(bound + 1) dividing n."""
        _check_int(n, "n")
        if n < 1:
            raise ValueError(f"the agreement set holds integers n >= 1, got {n}")
        return all(bound >= 0 and n % p ** (bound + 1) for p, bound in self.agreement.items())


def block_gadget(prime: int, level: int, target: int) -> Word:
    """The bump run raising valuation `level` to `target` (empty if equal)."""
    _check_int(prime, "prime")
    _check_int(level, "level")
    _check_int(target, "target")
    if target < level:
        raise ValueError(f"target exponent {target} is below level {level}")
    return Word(tuple(Generator.bump(prime, t) for t in range(level, target)))


def compile_spec(spec: ExponentSpec) -> CompileResult:
    """Compile a valid spec into the shortest word with its tables: bumps
    per prime (ascending), then the caps of the bounded primes. The word is
    its own normal form."""
    violations = validate_spec(spec)
    if violations:
        raise InvalidSpecError(violations)
    agreement = {p: fn.table_bound for p, fn in spec.functions.items() if fn.shape != BOUNDED}
    return CompileResult(spec._maps.word(), agreement)


@dataclass(frozen=True)
class Mismatch:
    n: int
    got: int
    expected: int


def verify_compile(result: CompileResult, spec: ExponentSpec, max_n: int) -> Mismatch | None:
    """Compare the compiled word against the spec on every n <= max_n inside
    the agreement set; None means they agree everywhere checked.

    Decided on the prefix 1..max_n but computed prime by prime. The word and
    the spec each rewrite every exponent v_p(n) on its own (unmapped primes
    keep theirs), and n is admitted when v_p(n) <= bound for each agreement
    prime. So they differ at an admitted n exactly when some prime's word
    table and spec function differ at v_p(n), and the first such n is the
    smallest differing admitted p**v. The first admitted n beyond an
    unbounded table, where the spec raises TableRangeError, is likewise the
    smallest admitted p**(table_bound + 1), where the spec's table ends.
    Whichever comes first is evaluated pointwise: it raises, or gives the
    mismatch.
    """
    _check_int(max_n, "max_n")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    for p in result.agreement:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    if any(bound < 0 for bound in result.agreement.values()):
        return None  # no n is admitted
    n = result.word._maps.first_difference(spec._maps, result.agreement, max_n)
    if n is None:
        return None
    return Mismatch(n, eval_word(result.word, n), apply_spec(spec, n))
