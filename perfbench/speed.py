"""Machine-speed calibration.

The 2-vCPU sandbox this benchmark was built on changes speed by up to ~80 %
in phases that last from under a second to minutes, on each core apart.
Run to run, raw pass times spread by 17-54 % (quartile distance over the
median).  So each invocation is bracketed by two calibrations on the same
core, and its time is scaled to a fixed reference speed in two parts: the
time to import by the start-up calibration, the rest by the compute one.
Neither calibration runs orbitcalc code, so a change to the program moves
the scaled times as it moves the raw ones.
"""

import subprocess
import sys
import time
from fractions import Fraction

# the two calibrations' times in the fast phase of that sandbox (about the
# 5th percentile of their samples); constants, so scaled times compare
REFERENCE_COMPUTE_S = 0.0145
REFERENCE_START_S = 0.0115

_PERM = tuple((i * 5 + 3) % 24 for i in range(24))


def kernel(steps=1000, entries=15000):
    """Pure-Python work of the program's kinds: Fraction arithmetic, tuple
    permutation products, and building a dict of tuple keys (allocation
    heavy, so it slows with the memory system as the program does)."""
    acc = Fraction(0)
    counts = {}
    p = tuple(range(24))
    for s in range(steps):
        acc = (acc + Fraction(s % 97 + 1, s % 89 + 2) * Fraction(3, s % 13 + 1)) % 7
        p = tuple(p[_PERM[i]] for i in range(24))
        key = (p[0], p[5], s % 11)
        counts[key] = counts.get(key, 0) + 1
    table = {}
    for i in range(entries):
        table[(i * 7919) % 100003, i & 7] = i
    return acc, len(counts), len(table)


def calibrate():
    """(compute, start-up) seconds: kernel() here, then a bare interpreter
    process (no site import, which keeps it cheap)."""
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], stdin=subprocess.DEVNULL, check=True)
    return t1 - t0, time.perf_counter() - t1


def scales(before, after):
    """(start-up, compute) factors to the reference speed for an invocation
    between two calibrations."""
    return (2 * REFERENCE_START_S / (before[1] + after[1]),
            2 * REFERENCE_COMPUTE_S / (before[0] + after[0]))
