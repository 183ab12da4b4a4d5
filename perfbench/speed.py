"""Machine-speed correction of the benchmark's timings.

The benchmark runs on a small virtual machine whose cores are shared with
other tenants.  There, the 5-second medians of a fixed pure-Python loop moved
between 3.5 and 5.6 ms within three minutes, a 1-row request's median moved
with them (1.24 to 2.19 ms, the ratio of the two staying within ±8%), and
runs of the same seed differed by up to 60%.  Longer runs do not remove a
drift that lasts minutes, so the client measures the machine's current speed
with :func:`probe` between operations and reports every duration at a fixed
reference speed: a duration is multiplied by ``REFERENCE_PROBE_S`` over the
median of the most recent probes.  The probe runs no program code, so a change
to the program moves the corrected timings exactly as it moves the raw ones;
the run prints both.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Deque, List

import numpy as np

#: What :func:`probe` takes at the reference speed: its fastest steady value
#: on the 2-vCPU Xeon guest the reference numbers in REFERENCE.json come
#: from.  Corrected timings read as raw timings taken at that speed.
REFERENCE_PROBE_S = 0.00023

_ROW = np.random.default_rng(0).random((1, 6))
_WEIGHTS = np.random.default_rng(1).random(6)


def probe() -> float:
    """Seconds one fixed slice of interpreter loop and tiny-array numpy calls
    takes: the mix a 1-row request, a monitor merge and a tree fit spend
    their time in."""
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i % 7
    for _ in range(20):
        shifted = np.maximum(0.0, np.asarray(_ROW, dtype=np.float64) @ _WEIGHTS - 0.5)
        total += float(np.exp(-shifted).sum())
    return time.perf_counter() - start


class Clock:
    """Scales measured durations to the reference speed.

    ``tick()`` between operations probes every ``every`` ticks; ``measure(n)``
    probes ``n`` times now.  ``scale`` is ``REFERENCE_PROBE_S`` over the
    median of the last ``window`` probes, raised to ``elasticity``: the
    power by which the workload's durations move with the probe's (1 for
    work as interpreter-bound as the probe).  ``probes`` keeps every probe's
    duration, so callers can take the probing time out of a wall time.
    """

    def __init__(self, every: int = 1, window: int = 15, elasticity: float = 1.0) -> None:
        self.every = every
        self.elasticity = elasticity
        self.scale = 1.0
        self.probes: List[float] = []
        self._recent: Deque[float] = deque(maxlen=window)
        self._ticks = 0

    def tick(self) -> None:
        if self._ticks % self.every == 0:
            self.measure()
        self._ticks += 1

    def measure(self, n: int = 1) -> None:
        for _ in range(n):
            seconds = probe()
            self._recent.append(seconds)
            self.probes.append(seconds)
        self.scale = (REFERENCE_PROBE_S / statistics.median(self._recent)) ** self.elasticity

    def slowdown(self) -> float:
        """Median probe over the reference: 1.0 at the reference speed."""
        return statistics.median(self.probes) / REFERENCE_PROBE_S if self.probes else 1.0

    def divisor(self) -> float:
        """What a wall time of the whole run is divided by to reach the
        reference speed: the slowdown raised to ``elasticity``."""
        return self.slowdown() ** self.elasticity
