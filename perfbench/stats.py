"""Benchmark arithmetic: percentiles from raw samples and failure shares.

Kept free of ``repro`` imports so its tests run without the library.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple

# Percentiles a tail may be reported at, lowest first.  p99.9 is left
# out: on a shared two-core box its value moves with every scheduler
# stall, so it would not repeat between runs of the same code.
PERCENTILE_LADDER: Tuple[str, ...] = ("50", "90", "99")
# A percentile is reported only when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(percentile: str, count: int) -> int:
    """Nearest-rank index (1-based) of ``percentile`` among ``count`` samples."""
    return max(1, math.ceil(Fraction(percentile) * count / 100))


def samples_beyond(percentile: str, count: int) -> int:
    """How many of ``count`` sorted samples lie above the percentile's rank."""
    return count - _rank(percentile, count)


def tail_percentile(count: int) -> Optional[str]:
    """The highest ladder percentile with enough samples beyond it, or None."""
    chosen = None
    for percentile in PERCENTILE_LADDER:
        if samples_beyond(percentile, count) >= MIN_SAMPLES_BEYOND:
            chosen = percentile
    return chosen


def percentile(sorted_samples: Sequence[float], percentile_: str) -> float:
    """Nearest-rank percentile of already sorted samples."""
    return float(sorted_samples[_rank(percentile_, len(sorted_samples)) - 1])


def latency_summary(passes: Sequence[Sequence[float]], repeats: bool) -> Dict[str, object]:
    """p50 and tail of the passes' samples, in ms (samples in s).

    The p50 is that of every sample pooled.  When every pass repeats the
    same work (``repeats``), the tail is each pass's tail percentile and
    the median of those over passes: on a shared host a rare stall of a
    few milliseconds can delay a whole window of requests in one pass
    (one socket pass read p99 20 ms where its neighbours read 7-8), and
    pooled it would set the run's tail.  When the passes do different
    work, each pass's tail differs with it, and the tail is that of the
    pooled samples.  The tail percentile is the highest on the ladder
    with at least ``MIN_SAMPLES_BEYOND`` samples beyond it -- in the
    smallest pass when the tail is taken per pass.  Raises
    ``ValueError`` when the samples cannot support even a median.
    """
    pooled = sorted(sample for samples in passes for sample in samples)
    counted = min(len(samples) for samples in passes) if repeats else len(pooled)
    tail = tail_percentile(counted)
    if tail is None:
        raise ValueError(
            f"{counted} latency samples cannot support a median with "
            f"{MIN_SAMPLES_BEYOND} samples beyond it"
        )
    if repeats:
        tail_s = statistics.median(percentile(sorted(samples), tail) for samples in passes)
    else:
        tail_s = percentile(pooled, tail)
    return {
        "samples": len(pooled),
        "passes": len(passes),
        "p50_ms": percentile(pooled, "50") * 1e3,
        "tail_percentile": tail,
        "tail_ms": tail_s * 1e3,
    }


# Counters, as named in the fleet report's phases and the server summary,
# that count an attempted operation which did not end in a decision.
# Stale-session rejections are the expected answer to a stale probe and
# are deliberately absent.
_PHASE_FAILURES = ("errors",)
_SERVER_FAILURES = (
    "busy_rejections",
    "protocol_errors",
    "replies_dropped",
    "flush_loop_errors",
    "pending",
    "parked_replies",
    "failed",
)


def attempts_and_failures(
    phases: Sequence[Mapping[str, object]], server: Mapping[str, object]
) -> Tuple[int, int]:
    """(attempted, failed) for one fleet run.

    Attempted counts decisions, burst probes and stale probes.  Failed
    counts errors, BUSY replies, protocol errors, dropped replies,
    flush-loop faults, failed tickets and work left undrained (pending
    requests and parked replies).
    """
    attempted = 0
    failed = 0
    for phase in phases:
        attempted += int(phase["decisions"]) + int(phase["probe_decisions"])
        attempted += int(phase["stale_rejections"]) + int(phase["errors"])
        failed += sum(int(phase.get(key, 0)) for key in _PHASE_FAILURES)
    failed += sum(int(server.get(key, 0) or 0) for key in _SERVER_FAILURES)
    return attempted, failed


def failed_share(attempted: int, failed: int) -> float:
    if attempted <= 0:
        raise ValueError("failed_share needs at least one attempt")
    return failed / attempted
