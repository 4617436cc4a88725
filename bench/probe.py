"""Host-speed probe: times a fixed reference loop while a workload runs.

On a shared host the CPU switches between speeds about 1.6x apart within
seconds, and the mix drifts over minutes: identical work measured 13.5-19.4 s
in one quarter hour. Every PERIOD_S a SIGALRM handler times `reference`, a
fixed loop of interpreter arithmetic and numpy scalar indexing, in the
workload's own thread. The trimmed mean of those samples tracks the speed the
workload ran at, and `scaled_s` rescales the window's wall time (minus the
probing itself) to a host on which the loop takes NOMINAL_S. On 14 runs of
the abstraction workload that turned 13.5-19.4 s of wall time into
15.0-16.7 s at nominal speed.

A set-up lasts 0.2-3 s, so it is probed every SETUP_PERIOD_S instead, from
inside the fresh interpreter that does the work (bench/setup_once.py). Over
189 fresh-interpreter imports on a 2-core host that held the spread of the
rescaled time to 8%, against 20% for the raw wall time and for the same
time rescaled by samples taken in the waiting parent process.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.25
SETUP_PERIOD_S = 0.01
NOMINAL_S = 3.0e-4
MIN_SAMPLES = 5
_POINTS = np.random.default_rng(0).uniform(size=(50, 2))


def reference() -> float:
    s = 0.0
    for j in range(400):
        s += math.hypot(_POINTS[j % 50, 0] - 0.5, _POINTS[j % 50, 1] - 0.5)
    return s


def trimmed_mean(values, cut: float = 0.1) -> float:
    """Mean without the lowest and highest `cut` share (preempted samples)."""
    v = sorted(values)
    k = int(len(v) * cut)
    v = v[k:len(v) - k] or v
    return sum(v) / len(v)


class SpeedProbe:
    """`with SpeedProbe() as p: work()` then `p.wall_s`, `p.scaled_s`.

    Signal handlers run only in the main thread, between bytecodes, so the
    probe must wrap work on the main thread; a numpy call delays a sample
    until it returns. `start`, a perf_counter reading, makes the window
    begin before the probe does, so that work done before the probe could
    be imported is timed too.
    """

    def __init__(self, period_s: float = PERIOD_S, start: float | None = None):
        self.period_s = period_s
        self.start = start
        self.samples: list[float] = []
        self.probing_s = 0.0
        self.wall_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.probing_s += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._t0 = time.perf_counter() if self.start is None else self.start
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s -= self.probing_s
        while len(self.samples) < MIN_SAMPLES:   # window too short for its period
            self._sample()
        return False

    @property
    def scaled_s(self) -> float:
        """Wall time at NOMINAL_S per reference loop."""
        return self.wall_s * NOMINAL_S / trimmed_mean(self.samples)
