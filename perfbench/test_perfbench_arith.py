"""The benchmark's own arithmetic: percentile choice, self time, failure share."""

from __future__ import annotations

import json

import pytest

from perfbench import stats
from perfbench.tracing import (
    SpanRecorder,
    covered,
    self_times,
    stage_table,
    timed,
    write_jsonl,
)


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),
        (20, "50"),
        (99, "50"),
        (100, "90"),
        (999, "90"),
        (1000, "99"),
        (9999, "99"),
        (10**6, "99"),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert stats.samples_beyond(expected, count) >= stats.MIN_SAMPLES_BEYOND


def test_latency_summary_reads_raw_samples():
    samples_s = [i / 1000.0 for i in range(1, 1001)]  # 1 ms .. 1000 ms
    summary = stats.latency_summary([list(reversed(samples_s))], repeats=False)
    assert summary["samples"] == 1000 and summary["passes"] == 1
    assert summary["p50_ms"] == pytest.approx(500.0)
    assert summary["tail_percentile"] == "99"
    assert summary["tail_ms"] == pytest.approx(990.0)
    # Exactly ten samples lie beyond the reported tail.
    assert sum(s * 1e3 > summary["tail_ms"] for s in samples_s) == 10


def test_latency_summary_pools_the_passes():
    fast = [0.001] * 400 + [0.004] * 20
    slow = [0.002] * 300  # one pass on a CPU slowed by other tenants
    summary = stats.latency_summary([fast, slow], repeats=False)
    # 720 samples pooled: p90 has 72 beyond it, p99 only 7.
    assert summary["samples"] == 720 and summary["passes"] == 2
    assert summary["tail_percentile"] == "90"
    assert summary["p50_ms"] == pytest.approx(1.0)
    assert summary["tail_ms"] == pytest.approx(2.0)


def test_latency_summary_of_repeated_passes_takes_the_median_pass_tail():
    steady = [0.001] * 900 + [0.002] * 100
    stalled = [0.001] * 900 + [0.020] * 100  # a stall delays a window of requests
    short = [0.001] * 450 + [0.003] * 50  # 500 samples: p90, not p99
    summary = stats.latency_summary([steady, stalled, steady, short], repeats=True)
    assert summary["tail_percentile"] == "90"
    # p90 per pass: 1, 1, 1 and 1 ms, whatever the stalled pass's tail.
    assert summary["tail_ms"] == pytest.approx(1.0)
    summary = stats.latency_summary([steady, stalled, steady], repeats=True)
    assert summary["tail_percentile"] == "99"
    # p99 per pass: 2, 20 and 2 ms; the median drops the stall.
    assert summary["tail_ms"] == pytest.approx(2.0)
    pooled = stats.latency_summary([steady, stalled, steady], repeats=False)
    assert pooled["tail_ms"] == pytest.approx(20.0)


def test_latency_summary_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.latency_summary([[0.001] * 10, [0.001] * 9], repeats=False)
    with pytest.raises(ValueError):
        stats.latency_summary([[0.001] * 100, [0.001] * 19], repeats=True)


def test_machine_clock_ticks_once_per_interval_and_counts_its_time(monkeypatch):
    from perfbench import machine

    now = [100.0]
    monkeypatch.setattr(machine.time, "perf_counter", lambda: now[0])

    def chunk():
        now[0] += 0.0006  # a chunk at twice the reference time

    monkeypatch.setattr(machine, "reference_chunk", chunk)
    clock = machine.MachineClock()
    for _ in range(3):
        clock.tick()
        now[0] += machine.INTERVAL_S / 2
    # Ticks at 0 and one interval later; the one in between is skipped.
    assert len(clock.chunks) == 2
    assert clock.spent == pytest.approx(0.0012)
    assert clock.slowdown() == pytest.approx(2.0)
    assert clock.reference_s(0.010) == pytest.approx(0.005)


def _span(name, start, end, span_id, parent_id):
    return (name, start, end, span_id, parent_id, 1, 0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0, 1, 0),
        _span("a", 1.0, 4.0, 2, 1),
        _span("b", 3.0, 6.0, 3, 1),  # overlaps a
        _span("c", 8.0, 12.0, 4, 1),  # runs past its parent's end
        _span("leaf", 1.5, 2.0, 5, 2),  # grandchild: only a loses it
    ]
    own = self_times(spans)
    # Children cover [1, 6] and [8, 10] of the root: 7 of its 10 seconds.
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(2.5)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(0.5)
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 10.0)]) == pytest.approx(7.0)


def test_stage_rows_sum_to_root_for_nested_spans():
    spans = [
        _span("pass", 0.0, 10.0, 1, 0),
        _span("step", 1.0, 3.0, 2, 1),
        _span("step", 4.0, 6.0, 3, 1),
        _span("decide", 4.5, 5.0, 4, 3),
    ]
    table = stage_table(spans)
    assert sum(row["self_s"] for row in table) == pytest.approx(10.0)
    step = next(row for row in table if row["stage"] == "step")
    assert step["calls"] == 2 and step["self_s"] == pytest.approx(3.5)


def test_recorder_links_spans_and_writes_jsonl(tmp_path):
    recorder = SpanRecorder()
    inner = timed(recorder, "inner", lambda x: x + 1, rows=lambda a, k, r: r)
    outer = timed(recorder, "outer", lambda x: inner(x) * 2)
    for _ in range(2):
        with recorder.trace("pass"):
            outer(1)
    path = tmp_path / "spans.jsonl"
    write_jsonl(str(path), recorder.spans)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert {r["trace_id"] for r in records} == {1, 2}
    by_id = {r["span_id"]: r for r in records}
    for record in records:
        if record["name"] == "pass":
            assert record["parent_id"] is None
        else:
            parent = by_id[record["parent_id"]]
            assert parent["trace_id"] == record["trace_id"]
            assert parent["name"] == {"inner": "outer", "outer": "pass"}[record["name"]]
    assert [r["rows"] for r in records if r["name"] == "inner"] == [2, 2]


def test_failed_share_counts_errors_and_busy_but_not_stale_rejections():
    phases = [
        {"decisions": 100, "probe_decisions": 20, "stale_rejections": 4, "errors": 1},
        {"decisions": 50, "probe_decisions": 0, "stale_rejections": 2, "errors": 0},
    ]
    server = {
        "busy_rejections": 3,
        "protocol_errors": 1,
        "replies_dropped": 0,
        "flush_loop_errors": 0,
        "pending": 0,
        "parked_replies": 2,
        "failed": 0,
    }
    attempted, failed = stats.attempts_and_failures(phases, server)
    assert attempted == 100 + 20 + 4 + 1 + 50 + 2
    assert failed == 1 + 3 + 1 + 2
    assert stats.failed_share(attempted, failed) == pytest.approx(7 / 177)
    clean = dict(server, busy_rejections=0, protocol_errors=0, parked_replies=0)
    assert stats.attempts_and_failures(phases[1:], clean) == (52, 0)
