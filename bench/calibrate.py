"""CPU-speed calibration of wall-clock timings on a shared host.

On a shared host the CPU speed a process gets can change by a factor of
two within seconds; on the 2-core VM where this benchmark was written, a
fixed 20 ms loop took anywhere from 15 to 27 ms, and a median over a
half-minute run did not remove it (spread across runs of 15 to 25%).  So each
timed unit of work is bracketed by a fixed probe, and its wall time is
scaled to the time it would have taken at the speed at which the probe
takes ``REFERENCE_S``.  The probe is code of the benchmark, so a change
to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.030


def probe_s() -> float:
    """Wall time of a fixed mix of interpreter loop, NumPy sort, and a
    pointer chase through a list larger than L2 cache, the way
    union-find walks its parent list.  It allocates about 5 MB for a
    moment, which sets a floor under the peak RSS a run reports."""
    t0 = perf_counter()
    x = 0
    for i in range(300_000):
        x += i & 7
    np.sort(np.random.default_rng(0).random(300_000))
    order = np.random.default_rng(1).permutation(1 << 17)
    chain = np.empty_like(order)
    chain[order] = np.roll(order, -1)  # one cycle through every entry
    chain = chain.tolist()
    j = 0
    for _ in range(100_000):
        j = chain[j]
    return perf_counter() - t0


class Calibrator:
    """Probes once now and once after each unit of work; ``scale`` the
    unit's wall time by the mean speed of the probes on either side."""

    def __init__(self):
        self._last = probe_s()

    def scale(self, wall_s: float) -> float:
        p = probe_s()
        factor = REFERENCE_S / ((self._last + p) / 2.0)
        self._last = p
        return wall_s * factor
