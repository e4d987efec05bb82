"""Host-speed calibration: times on a shared host, scaled to a fixed speed.

On a shared host the same fixed work can take 1.4-2 times as long
from one stretch of seconds to the next, whatever the program does.
The benchmark therefore runs a short, fixed pure-Python loop
(:func:`probe`) before and after each measured stretch and scales the
stretch's time by ``REFERENCE_MS / mean(probe before, probe after)``:
the time it would have taken on a host that runs the loop in
:data:`REFERENCE_MS`.  Work that the host's slow spells slow less than
they slow the loop is scaled by a power of that ratio (``sensitivity``
in :func:`scale`).  The loop is benchmark code only, so a change to
the program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import time

#: The probe's time, in ms, on the reference host speed: its usual
#: time on a 2-vCPU Intel Xeon VM when the host is not contended.
REFERENCE_MS = 2.0
ROUNDS = 150


def _spin(rounds: int) -> int:
    """List pushes and pops, small tuples and a dict build.  Of the
    loops tried, its time followed the program's best as the host's
    speed changed."""
    acc = 0
    for r in range(rounds):
        stack = list(range(40))
        out = []
        while stack:
            out.append((stack.pop(), r))
        table = {i: (i,) for i in range(40)}
        acc += len(out) + sum(len(v) for v in table.values())
    return acc


def probe() -> float:
    """The faster of two timings of the fixed loop, in ms (so a single
    interruption does not count), with the cyclic collector off so the
    garbage an op left behind does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            start = time.perf_counter()
            _spin(ROUNDS)
            times.append((time.perf_counter() - start) * 1000.0)
        return min(times)
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before_ms: float, after_ms: float,
          sensitivity: float = 1.0) -> float:
    """``seconds`` measured between two probes, at the reference speed.

    ``sensitivity`` is the share (as an exponent) of the probe's
    slowdown the measured work feels: 1 for interpreter-bound work,
    less for work that waits on the kernel or on memory.
    """
    return seconds * (REFERENCE_MS / ((before_ms + after_ms) / 2.0)) \
        ** sensitivity


class Stopwatch:
    """Sums stretches of work, each scaled by the probes around it.

    ``lap()`` ends the current stretch (the time since the previous
    lap, not counting the probes) and starts the next.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.probes: list[float] = [probe()]
        self._start = time.perf_counter()

    def lap(self) -> float:
        """End the stretch; return its time at the reference speed."""
        seconds = time.perf_counter() - self._start
        after = probe()
        scaled = scale(seconds, self.probes[-1], after)
        self.raw_s += seconds
        self.ref_s += scaled
        self.probes.append(after)
        self._start = time.perf_counter()
        return scaled
