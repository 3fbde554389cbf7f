"""Host-speed normalisation of wall times.

On a shared 2-vCPU virtual machine the speed of one core drifts by up to
2.5x over seconds to minutes (measured on the machine this benchmark was
written on: one fixed clutter mission took 0.29 s to 0.72 s in one process).
Averaging over a longer run does not remove drift that lasts minutes, so the
benchmark times a fixed calibration kernel every `PERIOD_S` seconds and
scales each stretch of wall time by `REF_KERNEL_S / kernel time` measured
around it.  The calibration time itself is left out of every interval.
Reported times are therefore milliseconds or seconds at a reference host
speed at which the kernel takes `REF_KERNEL_S`.
"""
from __future__ import annotations

import bisect
import math
import time
from typing import List

import numpy as np

PERIOD_S = 0.25          # sample the host speed at most this often
REPEATS = 5              # kernel runs per sample; the fastest is kept
REF_KERNEL_S = 0.001     # kernel time that defines the reference speed
_ARRAY = np.arange(4096, dtype=float)
_SLOTS = [0.0] * 1024


def kernel() -> float:
    """Fixed work mixing an interpreted loop, list stores and numpy ops.

    It creates no object the cyclic garbage collector tracks, so sampling at
    time-dependent moments cannot move the program's collections.
    """
    acc = 0.0
    slots = _SLOTS
    for i in range(3000):
        x = math.sin(i * 0.001) * 3.0
        slots[i & 1023] = x
        acc += x * x
    for _ in range(20):
        acc += float(np.sqrt(_ARRAY * _ARRAY + 1.0).sum())
    return acc


class SpeedClock:
    """Calibration samples (start, end, kernel seconds) in time order."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.kernel_s: List[float] = []

    def sample(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and self.ends and start - self.ends[-1] < PERIOD_S:
            return
        fastest = math.inf
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            fastest = min(fastest, time.perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.kernel_s.append(fastest)

    def work_s(self, a: float, b: float, normalised: bool = True) -> float:
        """Time in [a, b] outside calibrations, scaled to the reference speed.

        Between two samples the kernel time is their mean; before the first
        and after the last sample it is that sample's.
        """
        n = len(self.starts)
        if n == 0:
            raise ValueError("no calibration sample")
        total = 0.0
        i = max(bisect.bisect_right(self.ends, a) - 1, -1)
        while True:
            lo = self.ends[i] if i >= 0 else -math.inf
            hi = self.starts[i + 1] if i + 1 < n else math.inf
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                k = (self.kernel_s[max(i, 0)] + self.kernel_s[min(i + 1, n - 1)]) / 2.0
                total += overlap * (REF_KERNEL_S / k if normalised else 1.0)
            if hi >= b:
                return total
            i += 1
