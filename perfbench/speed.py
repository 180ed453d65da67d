"""The speed of the core a pass runs on, sampled all through the pass.

Shared hosts change the speed of a core by up to 1.9x for minutes at a time
(co-tenant load on the same physical core), so raw times of the same code
spread by 10-25% from one run to the next.  A Speedometer samples that speed
from a timer signal: every SAMPLE_EVERY_S it runs small reference kernels,
which never touch the package, of the kinds of work the workload spends its
time in, and compares each with its time on an idle core.  run.py reads each
operation's time at the speed sampled while it ran.

The handler runs in the main thread between two bytecodes, so a long numpy
call delays the next sample until it returns.  The time the handler takes is
summed in `spent`; Pass.op takes it out of the operation it interrupted.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.05
SMOOTH = 5  # samples in the running median

_MATRIX = np.random.default_rng(12345).standard_normal((20, 20)) * (1 + 1j)
_BUFFER = np.ones(1 << 21)  # 16 MB, past the last-level cache


def _python_kernel() -> None:
    acc = 0
    for i in range(3000):
        acc += i * i % 7


def _numpy_kernel() -> None:
    np.einsum("xu,yu,zu->xyz", _MATRIX, _MATRIX, _MATRIX)


def _memory_kernel() -> None:
    _BUFFER.copy()


# kind -> (kernel, its time in seconds on an idle core: the 5th percentile of
# 7748 samples on a 2-vCPU Intel Xeon host with one BLAS thread)
KERNELS = {
    "python": (_python_kernel, 1.84e-4),
    "numpy": (_numpy_kernel, 4.21e-4),
    "memory": (_memory_kernel, 2.49e-3),
}

# Set-up is interpreted module code over bytes just read from the page cache.
SETUP_KINDS = ("python", "memory")

# The kinds of work each workload spends its time in: interpreted group and
# character code around the Verlinde einsum; interpreted code over dense
# class functions; numpy over state vectors; interpreted cyclotomic snapping.
WORKLOAD_KINDS = {
    "modular": ("python", "numpy"),
    "walls": ("python", "memory"),
    "lattice": ("numpy", "memory"),
    "render": ("python",),
}


class Speedometer:
    """Slowdown samples of one pass: 1.0 on an idle core, 1.5 on one running
    at two thirds of that speed (the geometric mean over the kernels)."""

    def __init__(self, kinds):
        self.kernels = [KERNELS[k] for k in kinds]
        self.at: list[float] = []
        self.slowdown: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        log = 0.0
        for kernel, idle_s in self.kernels:
            start = time.perf_counter()
            kernel()
            log += math.log((time.perf_counter() - start) / idle_s)
        self.at.append(t0)
        self.slowdown.append(math.exp(log / len(self.kernels)))
        self.spent += time.perf_counter() - t0

    def take(self, n: int) -> None:
        """Take n samples now, one after another."""
        for _ in range(n):
            self._sample(None, None)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _smoothed(self) -> list[float]:
        h = SMOOTH // 2
        s = self.slowdown
        return [statistics.median(s[max(0, i - h):i + h + 1]) for i in range(len(s))]

    def during(self, spans) -> list[float]:
        """Slowdown while each (start, end) span ran: the mean of the smoothed
        samples taken from one span length before it to one after it (a long
        numpy call has none inside), else of those inside it, else of the
        nearest one on each side."""
        if not self.slowdown:
            return [1.0] * len(spans)
        smooth = self._smoothed()
        out = []
        for start, end in spans:
            d = end - start
            lo = bisect.bisect_left(self.at, start - d)
            hi = bisect.bisect_right(self.at, end + d)
            if hi - lo < 2:
                lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_right(self.at, end)
            if hi > lo:
                out.append(statistics.fmean(smooth[lo:hi]))
            else:
                out.append(statistics.fmean(smooth[max(0, lo - 1):lo + 1]))
        return out

    def median(self) -> float:
        """Median of the samples taken so far (1.0 when there are none)."""
        return statistics.median(self.slowdown) if self.slowdown else 1.0
