"""A speed probe that rescales measured times to a reference machine speed.

On a shared 2-core machine the interpreter's speed drifts by a third over
minutes, so raw wall times from two sets of runs minutes apart differ by
more than any useful bound. The probe times a fixed pure-Python work unit
(tuple indexing, dict lookups, integer arithmetic; it allocates no
containers, so the garbage collector never runs inside it) every
INTERVAL_S between operations throughout a pass. A pass's time is then
multiplied by the mean of REFERENCE_UNIT_S / unit time over that pass: the
result is the time the pass would have taken at the speed where one unit
takes REFERENCE_UNIT_S. Probe time itself is excluded from the pass and
from every operation.
"""

from __future__ import annotations

import statistics
import time

# About the fastest unit time on the 2-core machine that set the baseline.
REFERENCE_UNIT_S = 0.002
INTERVAL_S = 0.05

_CYCLE = tuple(range(1, 24)) + (0,)
_INDEX = {i: (i * 7) % 24 for i in range(24)}


def unit() -> float:
    """Time one fixed unit of pure-Python work."""
    start = time.perf_counter()
    cycle, index = _CYCLE, _INDEX
    acc = 0
    for _ in range(1000):
        for i in cycle:
            acc = (acc * 31 + cycle[index[i]]) % 1000003
    return time.perf_counter() - start


class SpeedProbe:
    """Runs `unit` at most every INTERVAL_S of other work, when asked."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        d = unit()
        self.samples.append(d)
        self.spent += d
        self._last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, since: int) -> float:
        """Mean measured speed over the reference speed, from the samples
        taken since the `since`-th one. Samples are spread evenly over the
        pass's time, so the mean speed is the work done per second."""
        return statistics.fmean(REFERENCE_UNIT_S / d for d in self.samples[since:])

    def local_factor(self, at: int) -> float:
        """The factor from the samples just before and just after work that
        started when `at` samples had been taken."""
        return statistics.fmean(REFERENCE_UNIT_S / d for d in self.samples[at - 1:at + 1])
