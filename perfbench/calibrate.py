"""A fixed pure-Python kernel that measures how fast the machine runs right now.

The shared virtual machine the benchmark was written on runs the same code
up to twice as fast or slow for stretches of seconds to minutes. run.py
keeps this module running in a process of its own and times the kernel
there at every round boundary of the workload process (which then waits),
and after every set-up. It scales each measured time by REFERENCE_S divided
by the kernel's time around it, so reported times are seconds at the speed
at which the kernel takes REFERENCE_S; the unscaled times are printed
beside them. The kernel mixes the operations dynzeta spends its time on:
big and small integer arithmetic, Fractions, dict updates and list
building. It runs in a process with a small, steady heap and never touches
dynzeta, so no change to the program can move it.

    python3 -I perfbench/calibrate.py   # one kernel time per input line
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.008  # kernel seconds at the reference speed


def _kernel() -> int:
    x = 3**300
    s = 0
    for i in range(1, 12000):
        s += (x * i) % 1000003
    f = Fraction(0)
    for i in range(1, 400):
        f += Fraction(1, i)
    d = {}
    for i in range(18000):
        d[i % 101] = d.get(i % 101, 0) + i
    return s + f.denominator % 7 + len([j % 7 for j in range(30000)]) + len(d)


def kernel_seconds(repeats: int = 3) -> float:
    """Median time of a few kernel runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


if __name__ == "__main__":
    import sys

    for _ in sys.stdin:
        print(kernel_seconds(), flush=True)
