"""Reference kernel: a yardstick for the host's speed at a given moment.

On a shared VM the same query can take twice as long in one few-second spell
as in the next, because neighbours slow the host, not because the program
changed.  The benchmark times this fixed piece of pure-Python work (Fraction,
tuple, dict and string work, like the program's own) right next to every
timed piece of the program, and quotes the program's time at the speed where
the kernel takes REFERENCE_S:

    scaled = seconds * REFERENCE_S / kernel_seconds

The kernel runs with the garbage collector off, so its time does not depend
on how many objects the program keeps alive.  This module imports nothing
from klrblocks, so the fresh interpreters that time the import can use it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# The kernel's time on an Intel Xeon 2.1 GHz vCPU: a rough median of that
# host's drifting speed, so scaled times stay close to its wall times.
REFERENCE_S = 0.0006


def kernel() -> float:
    """Seconds taken by the fixed piece of work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 160):
            acc += Fraction(i % 13 + 1, i + 3)
            table[(i % 11, i % 7, i)] = acc
        ",".join(str(k[2]) for k in sorted(table, key=lambda k: (k[1], -k[2])))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, kernel_seconds: float) -> float:
    """`seconds` at the speed where the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / kernel_seconds
