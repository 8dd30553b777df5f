"""Exact arithmetic for dynamical zeta functions and the monoid of
zeta-preserving time-changes.

The pieces, bottom up; each imports only those above it, and series and
exponents both sit on words, neither importing the other:

    arith       factorization, valuations, Moebius, primes
    sequences   fixed-point count prefixes, realizability verdicts
    words       bump/cap generator maps, words, normal forms, map kinds and readers
    series      exact rational power series, zeta both ways, time-changes
    exponents   per-prime exponent specs, membership refutation
    compiler    specs compiled to words with explicit agreement sets
    jsonio      the JSON wire formats
    cli         the `dynzeta` command
"""

from .arith import divisors, factorize, is_prime, moebius, primes_up_to, valuation
from .compiler import (
    CompileResult,
    InvalidSpecError,
    Mismatch,
    block_gadget,
    compile_spec,
    verify_compile,
)
from .exponents import (
    BOUNDED,
    UNBOUNDED,
    ClaimResult,
    DivisibilityReport,
    ExponentFunction,
    ExponentSpec,
    MembershipReport,
    MembershipWitness,
    PreimageStructure,
    SpecViolation,
    TableRangeError,
    apply_spec,
    check_divisibility_properties,
    membership_test,
    preimage_structure,
    spec_from_word,
    validate_spec,
)
from .sequences import (
    DOLD,
    SIGN,
    RealizabilityError,
    RealizabilityVerdict,
    check_realizable,
    disjoint_union,
    fix_from_orbits,
    hadamard,
    mobius_transform,
    orbit_counts,
    reg,
)
from .series import (
    ConstantTermNotOne,
    FixSource,
    InversionError,
    NegativeCount,
    NonIntegerLogCoefficient,
    Series,
    SourceRangeError,
    TimeChangeComparison,
    ZetaVerdict,
    exp_series,
    fix_from_zeta,
    is_zeta,
    log_series,
    series_mul,
    series_pow,
    time_change_fix,
    two_shift_comparison,
    zeta_from_fix,
)
from .words import (
    BUMP,
    CAP,
    Generator,
    Witness,
    Word,
    equal_upto,
    eval_generator,
    eval_range,
    eval_word,
    is_normal_shape,
    normal_form,
    random_word,
)

__version__ = "0.1.0"
