"""Host-speed calibration for every time the benchmark reports.

Other tenants of a shared host slow all work on it, in phases that last from
seconds to minutes: on a 2-core VM, back-to-back cold (2,2) verifies took
from 9.5 to 16 s.  Steal time did not move while they ran, so the
slowdown is contention inside the cores, and CPU time would not hide it
either.  What does track it is a fixed pass of exact-rational work (a
truncated product of two grids of ``Fraction`` values with 60- to 100-bit
numerators and denominators, held in dicts: interpreter-bound arithmetic like
fglab's) timed while the measured work runs.  ``Ticker`` times one pass every
``INTERVAL_S`` from a ``SIGALRM`` handler, so its samples interleave with the
program's own work.  A time is then reported as the measured time minus the
passes' own time, divided by the slowdown over the same window: the harmonic
mean of its pass times divided by ``REFERENCE_S``.  The ticks come at equal
intervals of wall time, so this divides each interval by the slowdown
measured in it, and it follows the host's speed when it changes within the
window.  Over twelve cold (2,2) verifies the spread between the first and
third quartile of the times was 0.25 of their median raw, 0.14 when divided
by the median pass time, and 0.04 when divided by the harmonic mean.  The raw
times go to the details line next to the calibrated ones.

The pass uses no fglab code, so a change to the program cannot move it.  The
collector is off while it runs: a collection would walk the session's heap,
whose size the program sets.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Median pass time on a 2-core x86-64 VM (Intel Xeon) with Python 3.11 when
# this benchmark was written.  It only fixes the scale of the calibrated times.
REFERENCE_S = 0.0045
GRID = 6
INTERVAL_S = 0.25  # Ticker: one pass per this much wall time (about 2% of it)


def one_pass() -> dict:
    a = {
        (i, j): Fraction(3 ** (40 + i) + j, 5 ** (30 + j) + i)
        for i in range(GRID)
        for j in range(GRID)
    }
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in a.items():
            if i + k < GRID and j + l < GRID:
                out[i + k, j + l] = out.get((i + k, j + l), 0) + x * y
    return out


def timed_pass() -> float:
    """One pass with the collector off; returns its time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        one_pass()
        return time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()


def slowdown_of(passes: list) -> float:
    return statistics.harmonic_mean(passes) / REFERENCE_S


def slowdown(seconds: float) -> float:
    """The slowdown over ``seconds`` of back-to-back passes."""
    times = []
    end = time.monotonic() + seconds
    while not times or time.monotonic() < end:
        times.append(timed_pass())
    return slowdown_of(times)


class Ticker:
    """Times one pass every INTERVAL_S of wall time from a SIGALRM handler,
    between the bytecodes of whatever the process is running."""

    def __init__(self):
        self.passes: list = []  # pass times, in the order taken
        self.spent = 0.0  # wall time inside the handler
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        self.passes.append(timed_pass())
        self.spent += time.perf_counter() - t
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        """A point to measure from: (handler time so far, passes so far)."""
        return self.spent, len(self.passes)

    def since(self, mark: tuple) -> dict:
        """The handler's time since ``mark`` and the slowdown over the same
        window (None when no pass fell inside)."""
        spent0, n0 = mark
        passes = self.passes[n0:]
        return {
            "spent": self.spent - spent0,
            "slowdown": slowdown_of(passes) if passes else None,
        }
