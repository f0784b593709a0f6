"""Host-speed probes, independent of the program.

A shared machine's speed drifts while a run goes on: on the 2-core Xeon VM
where the benchmark was defined, by up to 2x within seconds.  So a timed pass
runs a probe every ``PERIOD_S`` of wall time, from a SIGALRM handler in the
benchmark's own thread, and subtracts the probes' time from the item that
they interrupted.  A probe does a fixed piece of work of the kinds the
workloads do: Fraction elimination, small complex numpy determinants and
tuple/dict bookkeeping.  ``HostSpeed.scale`` turns seconds on this host, now,
into seconds on a host where one probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

PERIOD_S = 0.2
PROBE_REF_S = 0.005

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(6)]
           for i in range(6)]
_rng = np.random.default_rng(0)
_COMPLEX = [_rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8)) for _ in range(8)]


def _bareiss(rows):
    a = [list(r) for r in rows]
    n, prev = len(a), Fraction(1)
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return a[-1][-1]


def _bookkeeping():
    index = {cfg: i for i, cfg in enumerate(combinations(range(10), 4))}
    return sum(index[tuple(sorted(set(c) ^ {0, 9}))] for c in index if len(set(c) ^ {0, 9}) == 4)


def probe() -> float:
    """Seconds taken by one probe."""
    t0 = time.perf_counter()
    for _ in range(3):
        _bareiss(_MATRIX)
    for _ in range(25):
        for m in _COMPLEX:
            np.linalg.det(m)
    for _ in range(4):
        _bookkeeping()
    return time.perf_counter() - t0


class HostSpeed:
    """Probes the host every ``period`` seconds of wall time while in use.

    ``spent`` is the time the probes took, for subtraction from the clock.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples = []
        self.spent = 0.0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one period
            self.samples.append(probe())

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def scale(self) -> float:
        return PROBE_REF_S / statistics.fmean(self.samples)
