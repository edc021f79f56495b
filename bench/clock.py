"""Command timings rescaled to a fixed reference speed.

On a host shared with other tenants the same command's wall time swings by
up to 1.7x from one minute to the next, while its CPU time stays equal to
its wall time: the processor itself runs slower or faster.  Medians inside
one run cannot remove a swing that lasts longer than the run.

``HostClock`` therefore samples the host's speed for the whole run.  A timer
interrupts the process every ``PERIOD`` seconds and runs ``probe``, a fixed
mix of interpreter arithmetic and small numpy calls on arrays of the
encoder's size that the program never runs.  A command's wall time is its
elapsed time less the probes that ran inside it; its time in reference
seconds is that wall time scaled by ``NOMINAL`` over the mean probe time
from ``WINDOW`` seconds before the command to ``WINDOW`` seconds after it:
the wall time the command would take on this host while a probe takes
``NOMINAL`` seconds.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

PERIOD = 0.05       # seconds between probes
WINDOW = 0.25       # seconds around a command whose probes rate its speed
NOMINAL = 0.66e-3   # median probe time on the reference host (see the README)

_H = np.random.default_rng(0).random((35, 16))
_W = np.random.default_rng(1).random((16, 16)) * 0.1


def _unit() -> None:
    for _ in range(25):
        h = np.maximum(_H @ _W, 0.0)
        s = h.sum(axis=1)
        e = np.exp(s - s.max())
        (e / e.sum()) @ h
    acc = 0
    for i in range(2000):
        acc += i * i


def probe() -> float:
    """Seconds one fixed unit of work takes now, timed on its second pass so
    that what the interrupted program left in the caches does not count.  It
    allocates no object the garbage collector tracks, so it never triggers a
    collection of the program's objects."""
    _unit()
    t0 = time.perf_counter()
    _unit()
    return time.perf_counter() - t0


@dataclass
class Interval:
    start: float
    end: float = 0.0


class HostClock:
    """Probes the host's speed between ``start`` and ``stop``; ``measure``
    times a block.  Uses SIGALRM, so it must run in the main thread."""

    def __init__(self):
        self._starts: list[float] = []     # when each probe's handler began
        self._spans: list[float] = []      # how long each handler ran
        self._probes: list[float] = []     # the timed pass of each probe
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        seconds = probe()
        self._starts.append(t0)
        self._probes.append(seconds)
        self._spans.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def measure(self):
        interval = Interval(time.perf_counter())
        try:
            yield interval
        finally:
            interval.end = time.perf_counter()

    def wall(self, iv: Interval) -> float:
        """Seconds of the interval, the probes inside it left out."""
        lo = bisect.bisect_left(self._starts, iv.start)
        hi = bisect.bisect_left(self._starts, iv.end)
        return iv.end - iv.start - sum(self._spans[lo:hi])

    def reference(self, iv: Interval) -> float:
        """``wall`` in reference seconds."""
        lo = bisect.bisect_left(self._starts, iv.start - WINDOW)
        hi = bisect.bisect_left(self._starts, iv.end + WINDOW)
        around = self._probes[lo:hi] or self._probes
        return self.wall(iv) * NOMINAL / statistics.fmean(around)
