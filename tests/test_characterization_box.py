"""The paper's characterization, checked on every map in a small box.

A map that acts prime by prime through exponent tables (an unbounded spec,
read on a prefix 1..N) is a member on 1..N exactly when each table it
covers there is non-decreasing and, from its first entry below its index
on, constant. Three verdicts of the library must agree with that rule on
every map of the box: validate_spec (a valid spec has the shape),
membership_test, on the table path and on a plain callable, with max_k the
largest value on 1..N, so every orbit length that can divide a value and
refute is probed, and compile_spec with verify_compile, which must turn
every valid spec, and the bounded reading of every other map of that
shape, into a word equal to the map on 1..N, a word that is its own normal
form. The per-n brute force (oracles.pointwise_membership) gives the same
report as membership_test at max_k up to 64; above that its cost grows
with max_k times N squared, which the box cannot afford.

The box:
- one prime: 2 with tables of 1-4 entries, 3 with 1-3 and 5 with 1-2,
  values 0-5, read on 1..p**L - 1, where the table covers every exponent;
- primes 2 and 3: 2-tables of 1-3 entries with values 0-4 and 3-tables of
  1-2 entries with values 0-3, read on 1..min(2**L2, 3**L3) - 1.
"""

import itertools

from dynzeta.compiler import compile_spec, verify_compile
from dynzeta.exponents import (
    ExponentFunction,
    ExponentSpec,
    apply_spec,
    membership_test,
    validate_spec,
)
from dynzeta.words import normal_form

from oracles import has_member_shape, pointwise_membership

ORACLE_MAX_K = 64


def single_prime_box():
    for p, top in ((2, 4), (3, 3), (5, 2)):
        for length in range(1, top + 1):
            for table in itertools.product(range(6), repeat=length):
                yield {p: table}, p**length - 1


def two_prime_box():
    for l2, l3 in itertools.product(range(1, 4), range(1, 3)):
        for t2 in itertools.product(range(5), repeat=l2):
            for t3 in itertools.product(range(4), repeat=l3):
                yield {2: t2, 3: t3}, min(2**l2, 3**l3) - 1


def covered(p, table, max_n):
    """The entries v of table with p**v <= max_n."""
    return [c for v, c in enumerate(table) if p**v <= max_n]


def report_tuple(report):
    w = report.witness
    return None if w is None else (w.k, w.verdict.failure, w.verdict.index, w.verdict.value)


def test_every_map_in_the_box():
    counts = {"maps": 0, "members": 0, "valid": 0}
    oracle = {}  # values on 1..N -> the brute-force report, which reads them alone
    for tables, max_n in itertools.chain(single_prime_box(), two_prime_box()):
        spec = ExponentSpec({p: ExponentFunction.unbounded(t) for p, t in tables.items()})
        values = tuple(apply_spec(spec, n) for n in range(1, max_n + 1))
        plain = lambda n: values[n - 1]
        max_k = max(values)
        shape = all(has_member_shape(covered(p, t, max_n)) for p, t in tables.items())
        valid = not validate_spec(spec)

        got = report_tuple(membership_test(spec._maps, max_k, max_n))
        assert got == report_tuple(membership_test(plain, max_k, max_n)), tables
        assert (got is None) == shape, tables
        assert not valid or shape, tables
        if got is not None:
            assert got[0] <= max_k and any(v % got[0] == 0 for v in values)

        small_k = min(max_k, ORACLE_MAX_K)
        if (values, small_k) not in oracle:
            oracle[values, small_k] = pointwise_membership(plain, small_k, max_n)
        assert report_tuple(membership_test(plain, small_k, max_n)) == oracle[values, small_k]

        if shape:
            # a valid spec compiles as it is; any member compiles read as
            # bounded on the entries it covers
            target = spec if valid else ExponentSpec(
                {p: ExponentFunction.bounded(covered(p, t, max_n)) for p, t in tables.items()}
            )
            result = compile_spec(target)
            assert verify_compile(result, target, max_n) is None, tables
            assert normal_form(result.word) == result.word
        counts["maps"] += 1
        counts["members"] += shape
        counts["valid"] += valid
    assert counts["maps"] == 1554 + 258 + 42 + 155 * 20
    assert counts["valid"] < counts["members"] < counts["maps"]
