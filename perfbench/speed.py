"""Machine-speed probe, so that timings compare across runs.

The machine this benchmark was built on is shared: other tenants slow
it by up to 2x, in phases of seconds to minutes (measured on 2 vCPUs
with a fixed covered solve: 21 ms and 38-42 ms medians in alternating
2 s windows).  A run's wall times therefore depend on the phase it fell
in, and a minimum or median over one run does not remove that: over
five seeds, covered-engine's unscaled `inst_per_s` spread 55%
(interquartile range over median; 24% when each instance's fastest
call is used).

The probe is a small fixed job of the same kind as the program's hot
path (sorting Fractions, building tuple-keyed dicts).  The benchmark
runs it between calls, outside the timed region, and scales every
timing by REF_S / (median probe time within WINDOW_S of it).  A timing
then reads as seconds at the speed where the probe takes REF_S.  Scaled,
the same five seeds spread 2%.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

# A fixed scale: the probe's median time between `color` calls on the
# reference machine (2 vCPUs, Python 3.11.7) in its faster phase was 6.2 ms
REF_S = 0.006
EVERY_S = 0.25  # least time between two probes
WINDOW_S = 1.0  # probes within this distance of a timing scale it

_rng = random.Random(0)
_DATA = [Fraction(_rng.randint(-10**6, 10**6), _rng.randint(1, 1000)) for _ in range(1000)]


def _probe() -> float:
    t0 = time.perf_counter()
    sorted(_DATA)
    table = {}
    for i, f in enumerate(_DATA):
        table[(f, i)] = [f + 1]
    return time.perf_counter() - t0


class Speed:
    """Probe samples over a run, and the scale factor at any moment."""

    def __init__(self):
        self._at: list = []  # perf_counter() of each probe
        self._took: list = []

    def maybe_probe(self) -> None:
        """Probe unless the last probe is less than EVERY_S old."""
        now = time.perf_counter()
        if not self._at or now - self._at[-1] >= EVERY_S:
            took = _probe()
            self._at.append(now)
            self._took.append(took)

    def factor(self, at: float) -> float:
        """REF_S over the median probe time within WINDOW_S of `at`."""
        lo = bisect.bisect_left(self._at, at - WINDOW_S)
        hi = bisect.bisect_right(self._at, at + WINDOW_S)
        if lo == hi:  # no probe that close: take the nearest one
            i = min(bisect.bisect_left(self._at, at), len(self._at) - 1)
            lo, hi = i, i + 1
        return REF_S / statistics.median(self._took[lo:hi])
