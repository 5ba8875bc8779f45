"""Machine-speed reference: a fixed kernel timed between the operations.

On a shared machine the speed of the same code swings by up to 1.7x over
seconds and minutes, and a core's CPU time swings with its wall time, so
neither clock alone can tell a slower program from a slower machine.  The
benchmark therefore times a fixed pure-Python kernel (``kernel``) right
before every operation and once after the last one, and scales each
operation's time by ``REF_S`` over the local median of those passes.  A
reported time is the time the operation would take on a machine on which
one pass of the kernel takes ``REF_S`` seconds.

The kernel lives in the benchmark, not in the library, so a change to the
library moves the scaled times in full; it uses the same kinds of work as
the library (``Fraction`` and big-integer arithmetic, tuple keys in a
dict), so that it slows down with the machine as the library does.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Seconds of one kernel pass on the reference machine.  Any constant would
# do; this one is close to a pass on an unloaded core of a 2-CPU VM, so
# scaled times read close to wall times there.
REF_S = 0.003


def kernel() -> float:
    """Seconds that one pass of the reference kernel takes now."""
    start = time.perf_counter()
    acc = Fraction(0)
    seen: dict[tuple[int, int, int], int] = {}
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        key = (i % 7, i % 5, i % 3)
        seen[key] = seen.get(key, 0) + i
    return time.perf_counter() - start


def scale(seconds: float, passes: list[float]) -> float:
    """``seconds`` scaled to the reference machine, given nearby kernel passes."""
    return seconds * REF_S / statistics.median(passes)


def scaled_ops(op_s: list[float], kernel_s: list[float]) -> list[float]:
    """Scaled operation times of a repeat.

    ``kernel_s[i]`` is the pass just before operation ``i`` and
    ``kernel_s[i + 1]`` the one just after it; each operation is scaled by
    the median of the four passes around it, so one pass that was
    interrupted does not move it.
    """
    return [scale(t, kernel_s[max(0, i - 1) : i + 3]) for i, t in enumerate(op_s)]
