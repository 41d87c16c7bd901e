"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fleet_inprocess --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--seconds`` is ``run_seconds`` of ``BENCHMARK.json``.  A run warms up
with one discarded pass, then repeats passes of its workload for
``--seconds`` and prints every metric by name with its
unit, the correctness gates, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  It exits non-zero
when a gate fails.

``--trace 0`` reports the end-to-end metrics declared in
``BENCHMARK.json``, measured with no span recording.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer
metrics: the traced passes time calls into each layer's public
functions as spans (written as JSONL under ``.perfbench/out``), and a
stage table of self time per span name is printed, whose rows add up
to a traced pass's wall time.  The untraced passes give
``telemetry.overhead_share``.  Every workload prints every declared
metric; a per-layer metric of a layer the workload does not use reads 0.

End-to-end metrics, on each workload:

* ``setup_s`` -- fleets: a pass's wall time minus its phase seconds
  (server, driver, simulator shards, sessions); design: workload
  synthesis.  Median over passes.
* ``decisions_per_s`` -- fleets: decisions plus burst probes per second
  of phase time, set-up excluded; design: evaluation decisions per
  second of ``LearningAidedPipeline.evaluate``.  Over all passes.
* ``latency_p50_ms``, ``latency_tail_ms`` -- from raw samples of one
  wave (``submit_many`` and ``flush`` of a shard) in-process, one
  client-observed ``decide`` over the socket, and one batched step of
  the GRU policy (rollouts and evaluation) in design.  The p50 pools
  the untraced passes' samples.  The tail is the highest of p90 and p99
  with at least ten samples beyond it: in the fleets, whose passes
  replay one schedule, the median over passes of each pass's tail; in
  design, whose passes are different designs, that of the pooled
  samples (``stats.latency_summary``).
* ``pass_s`` -- fleets: phase seconds of one pass of the schedule;
  design: ``LearningAidedPipeline.run``, traces to interpreted FSM.
  Mean over passes.
* ``peak_rss_mb`` -- median over passes of the peak resident memory
  reached during the pass.

Every timing and rate above is at the reference speed of
``perfbench/machine.py``: the untraced passes tick a fixed reference
loop between the calls they time; a latency sample is scaled by the
loop's speed just before it, and a run's other timings are divided by
the loop's mean slowdown over the run (rates multiplied).  The
slowdown is printed; the per-layer metrics stay raw.

``--workload all`` runs each workload once untraced and once traced in
its own process (so peak memory stays per workload), prints a combined
table, and writes it to ``.perfbench/out/results-seed<seed>.json``.

Everything the benchmark writes (compiled kernel cache, temporary
files, unix sockets, span files) stays under ``.perfbench/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
OUT = WORK / "out"
# Passes with tracing off needed for a median set-up time.
MIN_UNTRACED_PASSES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def prepare_environment() -> None:
    """Point the library's caches inside the checkout and import it from ``src``."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"perfbench: no library source at {ROOT / 'src' / 'repro'}\n")
        raise SystemExit(2)
    for path in (WORK / "kernels", WORK / "tmp", OUT):
        path.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    import tempfile

    tempfile.tempdir = str(WORK / "tmp")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def make_workload(name: str, seed: int):
    from perfbench.design import DesignWorkload
    from perfbench.fleet import InProcessFleet, SocketFleet

    return {
        "fleet_inprocess": lambda: InProcessFleet(seed),
        "fleet_socket": lambda: SocketFleet(seed, str(WORK / "tmp")),
        "design": lambda: DesignWorkload(seed),
    }[name]()


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark at the current size."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass  # no per-pass reset: each pass then reads the process peak


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, recorder=None) -> None:
    """One pass, stamped with the peak resident memory it reached.

    The garbage of earlier passes is collected first, so that every
    pass's peak starts from the same floor.
    """
    gc.collect()
    reset_peak_rss()
    workload.run_pass(recorder)
    workload.passes[-1]["peak_rss_mb"] = peak_rss_mb()


def measure(workload, seconds: float, trace: bool):
    """Warm up, then run passes for ``seconds``; returns the span recorder."""
    from perfbench.machine import MachineClock
    from perfbench.tracing import SpanRecorder

    run_pass(workload)
    workload.passes.clear()
    workload.clock = MachineClock()
    recorder = SpanRecorder() if trace else None
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(workload.passes) % 2 == 1
        run_pass(workload, recorder if traced else None)
        untraced = sum(not p["traced"] for p in workload.passes)
        if (
            time.perf_counter() >= deadline
            and untraced >= MIN_UNTRACED_PASSES
            and (not trace or untraced < len(workload.passes))
        ):
            return recorder


def layer_report(workload, recorder, declared, name: str, seed: int) -> dict:
    from perfbench import stats
    from perfbench.tracing import (
        END,
        PARENT_ID,
        START,
        TRACE_ID,
        format_stage_table,
        stage_table,
        write_jsonl,
    )

    spans = recorder.spans
    metrics = {metric: 0.0 for metric in declared}
    metrics.update(workload.layer_metrics(spans))
    # Each traced pass repeats the work of the untraced pass before it.
    pairs = [(workload.passes[i - 1], p) for i, p in enumerate(workload.passes) if p["traced"]]
    untraced = sum(u["wall_s"] for u, _ in pairs) / len(pairs)
    traced = sum(t["wall_s"] for _, t in pairs) / len(pairs)
    metrics["telemetry.overhead_share"] = (traced - untraced) / untraced
    attempted, failed = workload.attempts()
    metrics["failed_share"] = stats.failed_share(attempted, failed)
    latency = workload.latency()
    metrics["latency.samples"] = latency["samples"]
    metrics["latency.tail_percentile"] = float(latency["tail_percentile"])

    table = stage_table(spans)
    print(format_stage_table(name, table, len(pairs)))
    roots = [s for s in spans if s[PARENT_ID] == 0]
    per_pass = sum(s[END] - s[START] for s in roots) / len(roots)
    print(
        f"  stage rows sum to {per_pass:.4f} s a traced pass; the same work untraced "
        f"takes {untraced:.4f} s; difference {per_pass / untraced - 1:+.1%}"
    )
    # One trace is enough to inspect, and keeps the file a few megabytes.
    spans_path = OUT / f"spans-{name}.jsonl"
    write_jsonl(str(spans_path), [s for s in spans if s[TRACE_ID] == 1])
    print(
        f"  spans of the first traced pass (seed {seed}) written to "
        f"{spans_path.relative_to(ROOT)}"
    )
    return metrics


def run_one(args, spec: dict) -> int:
    workload = make_workload(args.workload, args.seed)
    recorder = measure(workload, args.seconds, bool(args.trace))
    clock = workload.clock
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if args.trace:
        values = layer_report(workload, recorder, units, args.workload, args.seed)
        values["machine.chunk_us"] = clock.chunk_s() * 1e6
    else:
        values = workload.end_to_end()
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json"
        )
    latency = workload.latency()
    print(
        f"{args.workload}: {len(workload.passes)} passes; latency from the "
        f"{latency['samples']} samples of {latency['passes']} untraced passes, the tail "
        f"at p{latency['tail_percentile']}, with at least 10 samples beyond it"
    )
    print(f"  the reference loop ran {clock.slowdown():.4f}x its reference time")
    for metric in declared:
        print(f"  {metric['name']:<44}{values[metric['name']]:>16.6g} {metric['unit']}")
    gates = workload.gates()
    for label, ok, detail in gates:
        print(f"  gate {'PASS' if ok else 'FAIL'}: {label} {detail}".rstrip())
    attempted, failed = workload.attempts()
    correct = all(ok for _, ok, _ in gates) and failed == 0
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                status = 1
            if lines and lines[-1].startswith("{"):
                results[f"{workload['name']}/trace{trace}"] = json.loads(lines[-1])
    print(f"\nall workloads, seed {args.seed}:")
    for key, result in results.items():
        print(
            f"  {key}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"    {name:<44}{metric['value']:>16.6g} {metric['unit']}")
    summary_path = OUT / f"results-seed{args.seed}.json"
    summary_path.write_text(json.dumps(results, indent=2) + "\n")
    correct = status == 0 and all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "results": str(summary_path.relative_to(ROOT))}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="how long a run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.workload != "all" and args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    prepare_environment()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
