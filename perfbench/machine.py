"""A reference loop that tracks how fast the machine runs right now.

On a shared host the same code runs fast, or about 1.6 times as slow,
as other tenants come and go; the state flips within a second, and the
share of slow time drifts over minutes.  A run of the benchmark catches
some share of slow time, so its raw timings spread between runs of the
same code by more than a regression bound can hold, and a median of
small operations jumps from one state to the other as the share passes
one half.  The benchmark therefore times a fixed chunk of its own --
pure Python arithmetic and small numpy matrix products, no ``repro``
code, so no change to the program can move it -- at most every
``INTERVAL_S`` between the calls it times, and reports timings at the
reference speed, where one chunk takes ``REFERENCE_CHUNK_S``:

* each latency sample is scaled by the median of the last
  ``LOCAL_CHUNKS`` chunks timed before it, so it is compared with the
  state it ran in (the median drops a chunk that a collection or an
  interrupt happened to hit);
* a run's aggregate timings and rates are scaled by the chunks' mean
  over the run, which moves with the share of slow time as they do.

The chunks' own time is taken out of every interval they fall in.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

# One chunk's time when this two-vCPU VM runs undisturbed, the state the
# scaled timings are reported in.  A constant: changing it rescales
# every timing of the benchmark.
REFERENCE_CHUNK_S = 300e-6
# At most one chunk per interval: about 0.6% of a run.
INTERVAL_S = 0.05
# Chunks whose median is a latency sample's local speed.
LOCAL_CHUNKS = 3


def reference_chunk() -> int:
    """Fixed work, about 0.3 ms: integer arithmetic and 32x32 products."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    matrix = np.full((32, 32), 0.5)
    weights = np.eye(32) * 0.9
    for _ in range(30):
        matrix = np.tanh(matrix @ weights)
    return total


class MachineClock:
    """Chunk times of the reference loop, sampled while a workload runs."""

    def __init__(self) -> None:
        self.chunks: List[float] = []
        # Seconds spent in chunks, to take out of the intervals they fall in.
        self.spent = 0.0
        self._next = 0.0
        self._local_scale = 1.0

    def tick(self) -> None:
        """Time one chunk if ``INTERVAL_S`` has passed since the last."""
        start = time.perf_counter()
        if start < self._next:
            return
        reference_chunk()
        end = time.perf_counter()
        self.chunks.append(end - start)
        self.spent += end - start
        self._next = end + INTERVAL_S
        self._local_scale = REFERENCE_CHUNK_S / statistics.median(self.chunks[-LOCAL_CHUNKS:])

    def reference_s(self, seconds: float) -> float:
        """``seconds`` measured after the last tick, at the reference speed."""
        return seconds * self._local_scale

    def chunk_s(self) -> float:
        return statistics.fmean(self.chunks)

    def slowdown(self) -> float:
        """How much slower than the reference state the machine ran.

        The mean, not the median: with two states, the mean moves with
        the share of slow time as the workload's own timings do.
        """
        return self.chunk_s() / REFERENCE_CHUNK_S


class UntimedClock:
    """The clock of a traced pass: spans time it, the reference loop stays idle."""

    def tick(self) -> None:
        pass

    def reference_s(self, seconds: float) -> float:
        return seconds
