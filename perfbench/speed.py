"""Machine-speed gauge for timings taken on a shared, noisy host.

On a host shared with other tenants the same Python work can take twice as
long from one ten-second stretch to the next, while CPU time tracks wall
time, so the slowdown is the machine's and not a wait.  The gauge times a
fixed pure-Python reference before and after each short stretch of
problems; the stretch's times are scaled by REFERENCE_S over the mean of
those two reference times.  A scaled time reads as seconds on a machine that runs
the reference in REFERENCE_S.  The reference never calls fpcert, so a
change to fpcert moves scaled times as it moves raw ones.  On the 2-core
host where the benchmark was defined, a localize problem timed between
reference runs varied by 80% across 1.6-second windows, and its ratio to
the reference by 6%.
"""

from __future__ import annotations

import math
import time

# Median reference time on the 2-core CPython 3.11 host where the
# benchmark was defined.
REFERENCE_S = 0.009


class _Pair:
    """Interval-like pair; the reference mimics interval arithmetic's mix
    of allocation, attribute access, float products and min/max."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def add(self, other):
        return _Pair(self.lo + other.lo, self.hi + other.hi)

    def mul(self, other):
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Pair(min(p), max(p))


def reference() -> float:
    x = _Pair(0.5, 0.75)
    acc = _Pair(0.0, 0.0)
    seen = {}
    for i in range(6000):
        acc = acc.add(x.mul(_Pair(math.sin(i * 1e-3), 1.0)))
        seen[i & 255] = acc.lo
    return acc.hi


class Gauge:
    def __init__(self):
        self.last = self._measure()

    @staticmethod
    def _measure() -> float:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Scale for the work timed since the previous call (or creation)."""
        now = self._measure()
        f = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        return f
