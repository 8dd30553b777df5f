#!/usr/bin/env python3
"""The bump and cap generator maps and their rewriting rules.

bump(p, t) multiplies n by p exactly when the p-adic valuation of n is t;
cap(p, t) cuts the p-part down to p^t. Both preserve realizability under
time-change, and finite words over them approximate a rich family of maps.

Caps commute with everything except the same-prime same-level bump, where
pushing the cap past the bump raises its level by one. Every word has a
canonical bumps-then-caps normal form, the shortest word with its map:
two words are equal everywhere exactly when their normal forms are equal.
"""

from dynzeta import (
    Generator,
    Word,
    equal_upto,
    eval_word,
    normal_form,
    random_word,
)

B, C = Generator.bump, Generator.cap

print("bump(2,0) doubles odd numbers only:")
print(" ", [eval_word(Word((B(2, 0),)), n) for n in range(1, 11)])
print("cap(2,1) cuts 2-parts down to 2:")
print(" ", [eval_word(Word((C(2, 1),)), n) for n in range(1, 11)])
print()

doubling = Word((B(2, 2), B(2, 1), B(2, 0)))
print("bumps at levels 2,1,0 (highest applied first) double everything < 8:")
print(" ", [eval_word(doubling, n) for n in range(1, 10)])
print()

constant = Word((B(2, 0), C(2, 1), C(3, 0), C(5, 0)))
print("make even, cap the 2-part, strip 3s and 5s: constantly 2 below 7:")
print(" ", [eval_word(constant, n) for n in range(1, 10)])
print()

print("same-prime same-level bump and cap do not commute:")
left, right = Word((B(2, 0), C(2, 0))), Word((C(2, 0), B(2, 0)))
witness = equal_upto(left, right, 100)
print(f"  first disagreement at n={witness.n}: {witness.left} vs {witness.right}")
print("but the level-raising exchange holds on the whole range tested:")
print("  cap(2,0) then bump(2,0)  ==  bump(2,0) then cap(2,1):",
      equal_upto(Word((C(2, 0), B(2, 0))), Word((B(2, 0), C(2, 1))), 10**4) is None)
print()

word = random_word(12345, 14, 7, 4)
reduced = normal_form(word)
print("a random word and its normal form:")
print("  word       :", word)
print("  normal form:", reduced)
print("  equal up to 10^4:", equal_upto(word, reduced, 10**4) is None)
print()

left, right = Word((B(3, 2), C(3, 0), C(5, 1))), Word((C(3, 0), C(5, 1)))
print("the cap(3,0) erases the bump(3,2) before it, so these words are equal:")
print("  left  :", left, " normal form:", normal_form(left))
print("  right :", right, " normal form:", normal_form(right))
print("  equal up to 10^30:", equal_upto(left, right, 10**30) is None,
      " same normal form:", normal_form(left) == normal_form(right))
