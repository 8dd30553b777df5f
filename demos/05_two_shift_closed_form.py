#!/usr/bin/env python3
"""Time-changing the full 2-shift, exactly, against a candidate closed form.

The map that multiplies n by p whenever p divides n preserves realizability.
Applying it to the 2-shift (counts 2^n) gives counts 2^n off the multiples
of p and 2^(p*p*k) at n = p*k, which grow fast; exact big integers keep the
series honest. A tidy product formula has been suggested for the result:

    (1 - 2 z^p)^(-1/p) * (1 - 2 z)^(-1) * (1 - 2^p z^p)

This script computes both sides to order 30 and prints the comparison rather
than assuming the formula. The direct side is realizable (as it must be);
the product disagrees with it from n = p on, and from z^p onward it is not
even integral, so whatever the product describes, it is not this series.

Splitting the log series sum 2^h(n) z^n / n by whether p divides n gives
the form that does hold:

    (1 - 2 z)^(-1) * (1 - 2^p z^p)^(1/p) * (1 - 2^(p^2) z^p)^(-1/p)

The script checks it against the direct side as well.
"""

from fractions import Fraction

from dynzeta import Series, series_mul, series_pow, two_shift_comparison


def derived_form(p, order):
    def factor(c, d, r):
        return series_pow(Series.of([1] + [0] * (d - 1) + [c], order), r)

    return series_mul(
        series_mul(factor(-2, 1, -1), factor(-(2**p), p, Fraction(1, p))),
        factor(-(2 ** (p * p)), p, Fraction(-1, p)),
    )


for p in (2, 3):
    report = two_shift_comparison(p, 30)
    print(f"multiplier prime p = {p}")
    print("  time-changed counts start:", list(report.fix_entries[:6]), "...")
    print("  realizability of the counts:", report.realizability.describe())
    print("  first coefficient mismatch at n =", report.first_mismatch)
    print("  derived form equals the direct side:", derived_form(p, 30) == report.direct)
    print("  n | direct | closed form")
    for n, direct, closed, equal in report.rows()[:8]:
        marker = " " if equal else "*"
        print(f"  {n} {marker} {direct} | {closed}")
    tail = report.rows()[-1]
    print(f"  ... up to n=30, e.g. direct coefficient there: {tail[1]}")
    print()
