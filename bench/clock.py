"""A clock that counts time at a fixed reference speed of the host CPU.

The benchmark runs on shared hosts whose effective CPU speed drifts by a
third and more within tens of seconds as neighbours come and go, and stays
shifted for whole runs.  Every ``INTERVAL_S`` a SIGALRM handler times a fixed
pure-Python kernel; the clock then advances at ``REFERENCE_S`` / (kernel
time) of real time, so a stretch of work reads the same whether the host ran
fast or slow.  Time spent in the handler itself is excluded.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.05
# The kernel's time on the nominal host; one clock second is the time in
# which the kernel would run 1 / REFERENCE_S times.
REFERENCE_S = 1e-3
_WINDOW = 3


def reference_kernel():
    """Fixed interpreter work: integer arithmetic, a dict and a builtin call."""
    acc = 0
    table = {}
    for i in range(4000):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 63] = i
        acc ^= len(table)
    return acc


class ReferenceClock:
    """Start it before measuring and stop it after; ``now()`` reads it.

    Each tick appends (clock reading, real time, slowdown) to an append-only
    history; a real time maps through the last entry that precedes it.  Real
    times taken by the measured code never fall inside the handler.
    """

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0
        self._history = []
        self._real = []
        self._previous = None

    def _sample(self):
        """Time the kernel once; return the slowdown over the last few samples."""
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)
        return statistics.median(self.samples[-_WINDOW:]) / REFERENCE_S

    def _mark(self, virtual, slowdown):
        real = time.perf_counter()
        self._history.append((virtual, real, slowdown))
        self._real.append(real)
        return real

    def _tick(self, signum, frame):
        entered = time.perf_counter()
        virtual = self.at(entered)
        left = self._mark(virtual, self._sample())
        self.handler_s += left - entered

    def start(self):
        for _ in range(_WINDOW):
            slowdown = self._sample()
        self._mark(0.0, slowdown)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def at(self, real):
        """The clock reading at ``real``, a ``time.perf_counter()`` value."""
        k = max(bisect.bisect_right(self._real, real) - 1, 0)
        virtual, last, slowdown = self._history[k]
        return virtual + (real - last) / slowdown

    def now(self):
        """Seconds at the reference speed since ``start``."""
        return self.at(time.perf_counter())
