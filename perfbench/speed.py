"""Machine-speed sampling: a fixed pure-Python probe, independent of invquot.

The machine this benchmark was written on is a shared host whose speed
flips: a pinned process runs the same loop in 6.5 ms or in 11 ms, in states
that last from half a second to minutes, while it is never descheduled (wall
and CPU time agree). No run length averages that out. So each child samples
the probe before, during and after its timed operation, and the harness
scales every time the child reports by REFERENCE_S over the mean sample: a
time at a fixed reference speed. A change to invquot cannot move the probe,
so it moves the scaled times exactly as it moves the raw ones.

During the operation a SIGALRM timer runs one probe every TICK_S, between
bytecodes of the main thread. The time spent in those probes is left out of
clock(), which times the operation and its spans.
"""

from __future__ import annotations

import gc
import signal
import time

# The mean probe time on the machine this was written on, in its fast state
# (a shared two-core Intel Xeon, Python 3.11.7). Scaled times equal raw ones
# when the machine runs at this speed.
REFERENCE_S = 0.0010
EDGE_SAMPLES = 8     # probes before and after the operation
TICK_S = 0.1         # probe interval during the operation


def _arith():
    s = 0
    for i in range(6_000):
        s += i * i % 7
    return s


def _dicts():
    d: dict = {}
    for i in range(2_500):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i % 7
    return len(d)


def probe() -> float:
    """Seconds for one pass of an arithmetic loop and a dict-of-tuples loop,
    with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _arith()
        _dicts()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probe samples around and during one timed operation."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0      # seconds spent probing inside the operation

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def edge(self):
        self.samples.extend(probe() for _ in range(EDGE_SAMPLES))

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def start(self):
        self.edge()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.edge()

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)
