"""Machine-speed probe: rescales measured times to a fixed machine speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x over periods of seconds to minutes, without any steal time showing.  The
drift hits all interpreted Python code alike.  So a fixed block of pure
Python work (Fraction arithmetic and dict updates, like infalex's inner
loops, but the benchmark's own code, which no change to infalex can speed
up) is timed every ``INTERVAL_S`` of the run, from a SIGALRM handler in the
measured process itself.  A stretch of the run is then rescaled by
``NOMINAL_S / probe``, where probe is the smoothed block time nearest to
it.  The result reads as "seconds on a machine where the block takes
NOMINAL_S", and the probes' own time is left out.  The raw times are
reported next to it.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

NOMINAL_S = 0.005       # the block's time on the quiet 2-vCPU x86 machine used here
INTERVAL_S = 0.25       # probe spacing: about 2% of the run
SMOOTH = 2              # probes on each side in the running median


def reference_block() -> float:
    """Time one fixed block of interpreted work; returns seconds."""
    t0 = time.perf_counter()
    acc: dict[tuple[int, int], int] = {}
    s = Fraction(0)
    for i in range(1, 1400):
        s += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 13, i % 5)
        acc[key] = acc.get(key, 0) + i
    return time.perf_counter() - t0


def factor(block_s: float) -> float:
    return NOMINAL_S / block_s


class SpeedSampler:
    """Probes the machine speed every INTERVAL_S while active (a context
    manager), then rescales intervals of perf_counter time."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._factors: list[float] = []
        self._bounds: list[float] = []

    def _probe(self, *_signal_args):
        t0 = time.perf_counter()
        reference_block()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        n = len(durations)
        self._factors = [factor(statistics.median(durations[max(0, i - SMOOTH):i + SMOOTH + 1]))
                         for i in range(n)]
        # probe i governs the time between the midpoints to its neighbours
        self._bounds = [(self.ends[i] + self.starts[i + 1]) / 2 for i in range(n - 1)]
        return False

    def _busy(self, a: float, b: float) -> float:
        """Probe time inside [a, b]."""
        lo = max(0, bisect_right(self.ends, a) - 1)
        hi = bisect_left(self.starts, b)
        return sum(max(0.0, min(b, self.ends[j]) - max(a, self.starts[j]))
                   for j in range(lo, hi))

    def rescale(self, a: float, b: float) -> float:
        """Probe-free time in [a, b], rescaled to the nominal speed."""
        out = 0.0
        i = bisect_right(self._bounds, a)
        lo = a
        while lo < b:
            hi = min(b, self._bounds[i]) if i < len(self._bounds) else b
            out += (hi - lo - self._busy(lo, hi)) * self._factors[i]
            lo, i = hi, i + 1
        return out

    def summary(self) -> dict:
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        return {"probes": len(durations), "probe_median_s": statistics.median(durations),
                "probe_min_s": min(durations), "probe_max_s": max(durations)}
