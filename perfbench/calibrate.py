"""A fixed reference computation that tells how fast the machine runs right now.

On a shared virtual machine the same single-threaded Python work takes up to
a third longer during some minutes than during others, and such phases last
longer than a benchmark run. The benchmark therefore runs this kernel
next to every timed call and rescales the call's wall time to the speed at
which the kernel takes `REFERENCE_SECONDS`:

    seconds at reference speed = wall seconds * REFERENCE_SECONDS / kernel seconds

The kernel does not touch scar, so a change to scar cannot move it. Its mix
mirrors the program's: numpy gathers and segment reductions over an int64
successor table, a Python loop over numpy scalars, exact Fraction
arithmetic, and sorted JSON output.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

# the kernel's median on the machine the benchmark was defined on:
# 2 vCPUs, Python 3.11.7, numpy 2.4.6
REFERENCE_SECONDS = 0.045


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._offsets = np.arange(0, 400_001, 4)
        self._targets = rng.integers(0, 100_000, 400_000)
        self._values = rng.integers(0, 100, 100_000)
        self._report = {str(i): [i, 2 * i, "x" * 5] for i in range(4000)}

    def seconds(self) -> float:
        """Wall seconds of one run of the kernel."""
        start = time.perf_counter()
        vals = self._values
        for _ in range(6):
            lo = np.minimum.reduceat(vals[self._targets], self._offsets[:-1])
            vals = np.where(lo > 50, lo - 1, lo + 1)
        bits = 0
        for x in vals[:30_000]:
            bits |= int(x)
        q, gamma = Fraction(0), Fraction(99, 100)
        for i in range(2_000):
            q = max(q, gamma * (q + Fraction(1, i + 2)))
        json.dumps(self._report, sort_keys=True)
        return time.perf_counter() - start


def at_reference_speed(seconds: float, kernel_seconds: float) -> float:
    return seconds * REFERENCE_SECONDS / kernel_seconds
