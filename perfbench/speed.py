"""Machine-speed calibration of the benchmark's wall times.

The reference machine is a shared virtual machine: with the load of other
tenants its speed drifts by a third or more over minutes, and the same run
repeated a few minutes later reads that much faster or slower.  So every op
is preceded by a fixed pure-Python reference kernel, whose wall time tracks
the machine's speed at that moment, and each latency is reported at
reference speed: its wall time times ``REF_NOMINAL_S`` over the median
kernel time of the ops around it.  The kernel is not library code, so a
change to mirrorcheck moves the calibrated figures exactly as it moves the
wall times; the raw wall times are printed next to them.
"""

from __future__ import annotations

import itertools
import statistics
import time
from fractions import Fraction

# Kernel time on the reference machine at its usual speed, so calibrated
# figures read close to wall times there.
REF_NOMINAL_S = 0.0011
# Ops on each side of an op whose kernel times set its speed factor.
WINDOW = 7

_FACETS = (((1, -2, 3), 4), ((-3, 1, 1), 2), ((2, 2, -1), 5), ((0, -1, 2), 3), ((1, 1, 1), 3))
_MATRIX = ((3, -1, 4, 1, -5), (9, 2, -6, 5, 3), (5, -8, 9, 7, 9), (-3, 2, 3, -8, 4),
           (6, 2, -6, 4, 3))


def reference() -> int:
    """Fixed work shaped like the library's inner loops: a box scan with
    small-integer dot products over tuples and dict updates, then exact
    Fraction elimination of a fixed 5x5 matrix (no zero pivot arises)."""
    seen = {}
    for p in itertools.product(range(-2, 3), repeat=3):
        slacks = [sum(a * b for a, b in zip(n, p)) + c for n, c in _FACETS]
        if min(slacks) >= 0:
            seen[p] = len(seen)
    for _ in range(3):
        m = [[Fraction(x) for x in row] for row in _MATRIX]
        for c in range(5):
            for r in range(c + 1, 5):
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return len(seen)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def slowness(ref_times: list[float], window: int = WINDOW) -> list[float]:
    """Per-sample factor: median kernel time of the surrounding samples over
    the nominal one (above 1 when the machine runs slow)."""
    return [statistics.median(ref_times[max(0, i - window):i + window + 1]) / REF_NOMINAL_S
            for i in range(len(ref_times))]


def calibrate(times: list[float], ref_times: list[float]) -> list[float]:
    """Wall times rescaled to reference speed."""
    return [t / f for t, f in zip(times, slowness(ref_times))]
