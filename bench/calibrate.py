"""A fixed slice of pure-Python work that measures the machine's speed.

On a shared machine the same round can take twice as long a minute
later.  While a round's operations run, a timer interrupts them every
``EVERY_S`` seconds to run one slice; the calibrated metrics divide each
operation's time by the mean time of the slices run during it and
within ``WINDOW_S`` of it, which cancels most of that drift.  ``Calibrator.clock`` stops while a slice
runs, so slices never count in an operation's latency or a span.  The
slice never calls the program, and the collector is off while it runs,
so a change to the program cannot move it.  It does the kinds of work
the program's hot paths do: parsing, dicts keyed by monomials, and
exact Fraction elimination.

Set-up is calibrated the same way, in CPU time: ``child.py`` runs
``SETUP_SLICES`` slices before and after its set-up, and scales the
set-up's CPU time to a machine on which one slice takes ``REF_SLICE_S``.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

import reference as R

TEXTS = (
    "((x(xy))(x(xy)))-x^2(x^2y^2)",
    "x^3(xy^2)-x^2(x^2y^2)",
    "x^2((xy)(xy))-x^2(x^2y^2)",
    "x(x^3y^2)-x((xy)(x^2y))",
    "(x^3(xy))y-(x^2(x^2y))y",
    "x(x(x^2y^2))-x(x((xy)(xy)))",
)
SIZE = 9
EVERY_S = 0.05
WINDOW_S = 0.25
SETUP_SLICES = 8
REF_SLICE_S = 0.003  # about one slice's CPU time on an idle 2-vCPU Xeon


def work():
    for _ in range(4):
        span = R.Echelon()
        for text in TEXTS:
            f = R.parse(text)
            R.peirce(f)
            span.add(f)
    rows = [[Fraction(1, i + j + 1) for j in range(SIZE)] for i in range(SIZE)]
    for col in range(SIZE):
        pivot = rows[col]
        inv = 1 / pivot[col]
        for r in rows[col + 1 :]:
            factor = r[col] * inv
            for j in range(col, SIZE):
                r[j] -= factor * pivot[j]


def timed_slice(clock=time.perf_counter) -> float:
    """Seconds one slice takes on ``clock``.  The collector is off while it runs: the
    slice frees all it allocates, so a collection that the program's
    allocations have made due still runs in the program's time, and its
    cost, which grows with the program's heap, never enters ``cal``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        work()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Runs a slice on every SIGALRM between ``start`` and ``stop``."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []  # (clock at start, seconds)
        self.paused = 0.0

    def clock(self) -> float:
        """perf_counter, less the time spent in slices."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if paused == self.paused:  # no slice ran in between
                return now - paused

    def _slice(self, signum=None, frame=None):
        start = time.perf_counter()
        spent = timed_slice()
        self.slices.append((start - self.paused, spent))
        self.paused += spent

    def local(self, start: float, end: float) -> float:
        """Mean slice time within WINDOW_S of the clock interval [start, end]."""
        near = [d for t, d in self.slices if start - WINDOW_S <= t <= end + WINDOW_S]
        return sum(near) / len(near)

    def start(self):
        self._slice()
        signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._slice()
