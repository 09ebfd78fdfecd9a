"""Machine-speed reference for timings taken on a shared host.

On a host shared with other tenants the same pure-Python work runs at
speeds that drift by ±15 % over tens of seconds, in step for all code in
the process. The runner times this fixed loop (the benchmark's own code,
independent of the package) between jobs and scales every timing of a pass
by NOMINAL_S over the median loop time measured around it. Timings
are therefore seconds at the speed where the loop takes NOMINAL_S; a change
to the package moves them, a change of the host's load mostly does not.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

NOMINAL_S = 0.002
EVERY_S = 0.1  # job time between two reference samples

# The reference mixes the package's kinds of work: interning short tuples in
# a dict, growing lists of positions, and scanning a sequence for equal
# values. It runs with the cyclic garbage collector paused, so its time does
# not depend on how many objects the workload keeps alive.
_DATA = tuple(random.Random(0).randint(1, 4) for _ in range(7 * 600))


def sample() -> float:
    """Seconds the reference loop takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        data, palette, ids = _DATA, {}, []
        for i in range(0, len(data), 7):
            ids.append(palette.setdefault(data[i : i + 7], len(palette)))
        points = [0]
        for d in (1, 2, 3, 5, 8, 13, 21):
            grown = list(points)
            for p in points:
                grown.append(p + d)
            points = grown
        equal = 0
        for a in range(40):
            first = ids[a]
            for d in range(1, 500):
                if ids[a + d] == first:
                    equal += 1
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def local_factors(samples: list[float], after: list[int]) -> list[float]:
    """Per-job scale: job j ran after reference sample after[j], and its scale
    is NOMINAL_S over the median of the five samples around it."""
    return [factor(samples[max(0, k - 2) : k + 3]) for k in after]


def factor(samples: list[float]) -> float:
    """Scale from measured seconds to seconds at the nominal speed."""
    return NOMINAL_S / statistics.median(samples)
