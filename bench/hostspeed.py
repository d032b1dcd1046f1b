"""Host speed, sampled between ops, to state wall times in reference seconds.

On a shared host the CPU speed a process gets drifts by 30-40% over tens of
seconds to minutes, with the load other tenants put on the same cores; the
process's CPU time drifts with it, so it is no escape. The benchmark
therefore times a fixed pure-Python integer loop (`kernel_s`) between ops,
at least every INTERVAL_S, and states each wall interval in *reference
seconds*: the interval times REF_KERNEL_S over the median of the samples
taken within WINDOW_S of it, i.e. the time it would have taken with the loop
at its reference speed. One sample catches the speed of a few milliseconds;
the median over a window of seconds follows the drift, which is slower, and
not the flicker. The loop allocates no container objects, so neither the
program's heap nor its garbage collector reaches it; its own time is left
out of every interval.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Dict, List

KERNEL_LOOPS = 20_000
KERNEL_REPS = 3  # a sample is the fastest of these, which drops interrupts
# Seconds of one sample at the reference speed: the loop's typical time on
# the 2-vCPU x86_64 (Intel Xeon) VM the baseline was measured on.
REF_KERNEL_S = 1.8e-3
INTERVAL_S = 0.2  # at most this long between samples, op lengths permitting
WINDOW_S = 1.0  # samples this close to an interval set its speed


def kernel_s() -> float:
    best = float("inf")
    for _ in range(KERNEL_REPS):
        t0 = time.perf_counter()
        x = 0
        for i in range(KERNEL_LOOPS):
            x = (x * 31 + i) & 0xFFFF
        best = min(best, time.perf_counter() - t0)
    return best


class HostClock:
    """Speed samples on one timeline; converts wall intervals to reference seconds."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.values: List[float] = []
        self._scale: Dict[int, float] = {}  # gap after sample k -> its scale

    def sample(self) -> float:
        """Take a sample now; returns its end, where timing may resume."""
        t0 = time.perf_counter()
        value = kernel_s()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.values.append(value)
        return self.ends[-1]

    def tick(self) -> None:
        """Sample if the last sample is INTERVAL_S old; call only between ops."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def sampling_s(self, t0: float, t1: float) -> float:
        """Wall seconds spent sampling inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return sum(self.ends[k] - self.starts[k] for k in range(lo, hi))

    def _gap_scale(self, k: int) -> float:
        """Reference seconds per wall second between samples k and k + 1."""
        if k not in self._scale:
            lo = bisect.bisect_left(self.starts, self.ends[k] - WINDOW_S)
            hi = bisect.bisect_right(self.ends, self.starts[k + 1] + WINDOW_S)
            self._scale[k] = REF_KERNEL_S / statistics.median(self.values[lo:hi])
        return self._scale[k]

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1], less the sampling in it.

        A sample must end at or before t0 and another start at or after t1;
        call it once the samples WINDOW_S after t1 have been taken.
        """
        k = bisect.bisect_right(self.ends, t0) - 1
        if k < 0 or self.starts[-1] < t1:
            raise ValueError("interval not bracketed by speed samples")
        total, a = 0.0, t0
        while True:
            b = min(t1, self.starts[k + 1])
            total += (b - a) * self._gap_scale(k)
            if b >= t1:
                return total
            k += 1
            a = self.ends[k]
