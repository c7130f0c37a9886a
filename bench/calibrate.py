"""Host-speed calibration.

A fixed pure-Python loop that calls no euctype code is timed just before
and just after each job.  A job's raw seconds are multiplied by
``C_REF / mean(c_before, c_after)``, so every time reads as seconds on a
host whose calibration sample takes ``C_REF`` seconds.  One sample is the
median of five passes of the loop, which keeps a single preemption from
setting the scale of a whole job.
"""

from __future__ import annotations

import time

# Median calibration sample on the reference host (README, "Calibration").
C_REF = 0.000155

PASSES = 5
ITERATIONS = 600


def _loop_pass() -> float:
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(ITERATIONS):
        acc = (acc * 1103515245 + i) & 0xFFFF
        table[acc & 255] = i
    return time.perf_counter() - t0


def sample() -> float:
    passes = sorted(_loop_pass() for _ in range(PASSES))
    return passes[PASSES // 2]


def scale(raw: float, c_before: float, c_after: float) -> float:
    return raw * C_REF / ((c_before + c_after) / 2)
