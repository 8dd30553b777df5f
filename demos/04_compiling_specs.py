#!/usr/bin/env python3
"""From per-prime exponent tables to generator words.

A spec lists, for finitely many primes, how the exponent of that prime must
change; every other prime is untouched. Valid specs compile to a word of
bumps (one descending run of blocks per prime) followed by caps for the
bounded primes. The compiler also reports the agreement set: exponent bounds
inside which the word provably equals the target map.
"""

from dynzeta import (
    ExponentFunction,
    ExponentSpec,
    apply_spec,
    compile_spec,
    eval_word,
    membership_test,
    spec_from_word,
    verify_compile,
)


def demo(title, spec, probe):
    result = compile_spec(spec)
    print(title)
    print("  word     :", result.word)
    print("  agreement:", result.agreement or "exact everywhere")
    print("  verified :", verify_compile(result, spec, 5000) is None)
    shown = {n: eval_word(result.word, n) for n in probe}
    print("  samples  :", shown)
    print()
    return result


doubling = ExponentSpec({2: ExponentFunction.unbounded([1, 2, 3])})
demo("double every n (exponent table v -> v+1 for v <= 2):", doubling, range(1, 8))

squaring = ExponentSpec({p: ExponentFunction.unbounded([0, 2, 4]) for p in (2, 3, 5)})
demo("square the 2,3,5-parts (tables v -> 2v for v <= 2):", squaring, [6, 10, 15, 45])

constant = ExponentSpec(
    {2: ExponentFunction.bounded([1]), 3: ExponentFunction.bounded([0]),
     5: ExponentFunction.bounded([0])}
)
result = demo("the constant map n -> 2 on 5-smooth numbers:", constant, range(1, 8))

print("reading tables back off the compiled constant word (capped primes are bounded):")
recovered = spec_from_word(result.word, 5, 3)
for p, fn in recovered.functions.items():
    print(f"  prime {p}: {fn.shape} exponents {fn.values}")
again = compile_spec(recovered).word
assert again == result.word
print("  compiled again:", again, "(the same word)")
print()

print("compiled words pass single-orbit membership probes, as they must;")
print("a word's exponent tables settle it for every k, a plain callable is probed:")
f = result.word.as_map()
print("  constant word:", membership_test(f, 24, 200).describe())
print("  target map   :", membership_test(lambda n: apply_spec(constant, n), 24, 200).describe())
