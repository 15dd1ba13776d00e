"""A fixed pure-Python job whose time tracks the speed of the host.

The benchmark's host runs pure-Python code at 1.0x to 1.9x its best speed,
in phases that last from seconds to minutes. The probe below does the kind
of work the program does (disjointness tests and unions over a family of
small frozensets, about 2 MB) and takes about 2 ms. Timed every 0.1 s next
to the questions, its time shows the host's speed around every question,
and `scale` turns a measured time into the time it would have taken at
the probe's nominal speed.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

NOMINAL_S = 0.002  # about the probe's median time on the 2-vCPU Xeon VM of the baseline
WINDOW = 9  # probes around a timing that give the host's speed there

_rng = random.Random(0)
_FAMILY = [frozenset(_rng.sample(range(50_000), 3)) for _ in range(6_000)]


def probe() -> float:
    """Run the fixed job once; returns its wall time in seconds."""
    start = time.perf_counter()
    seen: set = set()
    for edge in _FAMILY:
        if edge.isdisjoint(seen):
            seen |= edge
    return time.perf_counter() - start


class Speed:
    """Probe times against the moment they were taken."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.at.append(time.perf_counter())
            self.took.append(probe())

    def scale(self, seconds: float, at: float) -> float:
        """`seconds` measured at time `at`, scaled to the nominal speed by the
        median of the WINDOW probes nearest to `at`."""
        i = bisect.bisect(self.at, at)
        lo = min(max(i - WINDOW // 2, 0), max(len(self.at) - WINDOW, 0))
        local = statistics.median(self.took[lo:lo + WINDOW])
        return seconds * NOMINAL_S / local
