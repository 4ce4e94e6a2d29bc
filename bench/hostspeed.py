"""Host-speed probe for normalising the benchmark's timings.

On the shared 2-core host the benchmark was built on, the same code runs up
to ~1.8x faster or slower from one minute to the next, in both wall and CPU
time, so run-to-run spreads of raw timings reached 30-40%. A fixed loop of
plain Python, which uses nothing from krfactor, is timed between rounds in
the same process; its mean time over the run, divided by REFERENCE_S, is the
run's slowdown. Reported times are divided by it and rates multiplied by it,
which gives the figures the run would show on that host at its usual speed.
Program changes cannot move the probe; host speed moves both. Set-up time
is left raw: process start-up did not follow the probe.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# median probe time on the reference host (2 cores, Python 3.11.7)
REFERENCE_S = 0.0026


def probe() -> float:
    """Seconds taken by one fixed pass of interpreter work (~2.6 ms)."""
    t0 = perf_counter()
    table: dict[int, int] = {}
    recent: list[int] = []
    x = 0
    for i in range(6000):
        x = (x * 31 + i) & 0xFFFFF
        table[x & 1023] = i
        recent.append(table.get(i & 1023, 0))
        if len(recent) > 64:
            recent.clear()
    return perf_counter() - t0


def slowdown(samples) -> float:
    """Mean probe time, dropping the top and bottom tenth, over REFERENCE_S."""
    xs = sorted(samples)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut : len(xs) - cut]) / REFERENCE_S
