"""Machine-speed reference for the end-to-end timings.

On the reference machine (2 vCPUs of a shared Intel Xeon host at 2.1 GHz)
the same Python code runs 20-60 % slower for tens of seconds at a time, as
other tenants of the host come and go; whole runs fall into such phases, so
raw job times of one code version spread across runs by more than any useful
bound.  A fixed reference kernel, which calls nothing in the library, is
timed between jobs every ``SAMPLE_EVERY_S`` seconds.  It exercises what the
library's jobs spend their time on: ``Fraction`` arithmetic, integer bit
operations with dict stores, and small numpy products.  A job's latency is
scaled by ``REFERENCE_KERNEL_S`` over the median of the ``WINDOW`` kernel
samples nearest the job in time, which gives its time at the reference
machine's nominal speed.  A library change moves the job times and not the
kernel, so it shows in full; a phase of the host moves both.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

# median kernel time on the reference machine; only sets the scale
REFERENCE_KERNEL_S = 0.0045
SAMPLE_EVERY_S = 0.1
WINDOW = 10
WARMUP = 5

_MATRIX = np.arange(100.0).reshape(10, 10)


def kernel():
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    table: dict = {}
    acc = 0
    for i in range(1, 6000):
        m = (i * 2654435761) & 0xFFFF
        acc += (m & (m >> 3)).bit_count()
        table[m & 511] = acc
    x = np.ones(10)
    for _ in range(300):
        x = _MATRIX @ x
        x /= x.sum()
    return total, acc, x


class SpeedSampler:
    """Kernel timings taken between jobs, and the speed factor at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times: list[float] = []
        self.costs: list[float] = []
        self.next_at = 0.0
        for _ in range(WARMUP):
            kernel()

    def sample(self) -> None:
        t0 = self.clock()
        kernel()
        t1 = self.clock()
        self.times.append((t0 + t1) / 2)
        self.costs.append(t1 - t0)
        self.next_at = t1 + SAMPLE_EVERY_S

    def maybe_sample(self) -> None:
        if self.clock() >= self.next_at:
            self.sample()

    def factor(self, t: float) -> float:
        """Reference kernel time over the median of the samples nearest t."""
        i = bisect.bisect(self.times, t)
        hi = min(len(self.times), max(i + WINDOW // 2, WINDOW))
        lo = max(0, hi - WINDOW)
        return REFERENCE_KERNEL_S / statistics.median(self.costs[lo:hi])
