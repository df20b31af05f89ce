"""Host-speed-scaled timing.

The host this benchmark runs on is shared: the same job's wall time swings by
up to 2x between phases lasting seconds as other tenants come and go, and a
process's CPU time swings with it.  ``SpeedProbe`` samples the host's speed
with a fixed loop around and inside each timed interval and scales the wall
time to a reference speed.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# Seconds the probe loop takes at the reference host speed: its median over
# 20 s on a shared 2-vCPU Intel Xeon host under Python 3.11, so that scaled
# seconds read close to that host's typical wall seconds.
PROBE_REF_S = 0.001


def probe_loop():
    """A fixed loop of the program's kind of work (Fraction arithmetic, small
    tuples, dict stores) that never calls the program; returns its wall
    seconds.  Timed side by side on the same passes, Fraction work tracks the
    program's slowdowns about three times better than plain integer work."""
    t0 = perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(100):
        x = Fraction(i - 50, 7)
        acc += x * x - Fraction(3, 5) * x
        seen[(i % 97, i % 89)] = (acc.denominator, i * i)
    return perf_counter() - t0


class WallClock:
    """Plain wall seconds."""

    def start(self):
        self._t0 = perf_counter()

    def stop(self):
        """(wall seconds, speed factor)"""
        return perf_counter() - self._t0, 1.0


class SpeedProbe(WallClock):
    """Times an interval and samples the host's speed before, during and
    after it: the probe loop runs at both ends and every INTERVAL_S inside
    (from a SIGALRM handler, in this thread).  The interval's wall
    time, less the probes inside it, is scaled by PROBE_REF_S over the mean
    probe time.  ``unprobed`` is a clock that stands still while a probe runs,
    so that spans timed with it exclude the probes.
    """

    INTERVAL_S = 0.02

    def __init__(self):
        self.probed_s = 0.0

    def _probe(self):
        dt = probe_loop()
        self.probed_s += dt
        self._samples.append(dt)

    def _tick(self, signum, frame):
        self._probe()

    def unprobed(self):
        probed = self.probed_s  # read first: a probe may land before the return
        return perf_counter() - probed

    def start(self):
        self._samples = []
        self._probe()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        super().start()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, _ = super().stop()
        signal.signal(signal.SIGALRM, self._old)
        wall -= sum(self._samples[1:])
        self._probe()
        return wall, PROBE_REF_S * len(self._samples) / sum(self._samples)
