"""Machine speed, sampled throughout a run, to put every time on one scale.

Shared machines switch between a fast and a slow state (about 1.5x apart)
for stretches of a fraction of a second to several seconds, so the same
work measures very differently from run to run.  While a run measures, an
interval timer interrupts it every PERIOD_S seconds and runs a fixed kernel
of tuple, set, dict and integer work that does not touch tracecodes.  An
interval measured in between is reported as its measured length, minus the
kernel runs inside it, times REF_NS over the mean kernel time around it:
seconds on a machine where the kernel takes REF_NS.  A change to tracecodes
moves these numbers; a change of machine state mostly does not.  The kernel
costs about 5% of the run.  While a child process runs, sampling waits for
it to end (``held``).
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

PERIOD_S = 0.05
KERNEL_LOOPS = 5000
REF_NS = 2_000_000
# An interval is scaled by the kernel samples from WINDOW_NS before it to
# WINDOW_NS after it: several samples even around a child process, during
# which no sample is taken, and still shorter than most machine states.
WINDOW_NS = 250_000_000


def kernel() -> None:
    seen = {}
    acc = 0
    for k in range(KERNEL_LOOPS):
        word = (k & 7, k >> 3 & 7, k % 5)
        acc += len({word[0], word[1], word[2]}) + (k * k) % 7
        seen[k & 255] = word


@contextlib.contextmanager
def held():
    """Hold sampling while a child process runs.

    Run beside the child, the kernel would compete with it for the core.
    A tick that falls due meanwhile samples as soon as the child has ended.
    """
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class SpeedClock:
    """Context manager that samples the kernel while it is entered."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter_ns()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter_ns())

    def __enter__(self) -> "SpeedClock":
        for _ in range(3):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def seconds(self, start: int, end: int) -> float:
        """Normalised length of the interval [start, end] (perf_counter_ns values)."""
        starts, ends = self.starts, self.ends
        lo = bisect.bisect_left(starts, start - WINDOW_NS)
        hi = bisect.bisect_right(starts, end + WINDOW_NS)
        if lo == hi:  # no sample nearby: use the closest one
            lo = min(lo, len(starts) - 1)
            hi = lo + 1
        kernel_ns = 0
        inside = 0
        for i in range(lo, hi):
            length = ends[i] - starts[i]
            kernel_ns += length
            if starts[i] >= start and ends[i] <= end:
                inside += length
        return (end - start - inside) * REF_NS * (hi - lo) / kernel_ns / 1e9

    def mean_scale(self) -> float:
        """REF_NS over the mean kernel time of the whole run, for the report."""
        mean = sum(e - s for s, e in zip(self.starts, self.ends)) / len(self.starts)
        return REF_NS / mean
