"""The two fleet workloads: simulated storage nodes asking a compiled FSM
for core-allocation decisions, in-process and over a unix socket.

Both are closed loops driven by :class:`repro.loadgen.FleetDriver`: the
benchmark is one caller that sends one wave per shard and waits for it
before stepping the simulators.  Every pass of a run replays the same
seeded schedule (steady, churn storm with stale probes, flash crowd) on
a fresh server, so every pass must produce the same deterministic
report digest.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional
from unittest import mock

import numpy as np

import repro.serving.netserver as netserver_module
from repro.engine.backends import CompiledFSMBackend
from repro.engine.compiled_fsm import CompiledFSMPolicy
from repro.env.environment import StorageAllocationEnv
from repro.env.reward import RewardConfig
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.fsm.machine import FiniteStateMachine
from repro.loadgen import (
    FleetDriver,
    FleetSchedule,
    InProcessTransport,
    LoadPhase,
    LoadReport,
    SocketTransport,
)
from repro.qbn.autoencoder import build_observation_qbn
from repro.qbn.quantize import code_key
from repro.serving.netserver import PolicyClient, PolicyNetServer
from repro.serving.server import PolicyServer
from repro.storage.migration import NUM_ACTIONS, MigrationAction
from repro.storage.simulator import StorageSystemConfig
from repro.workloads.generator import GeneratorConfig, StandardWorkloadGenerator

from perfbench import stats
from perfbench.machine import MachineClock, UntimedClock
from perfbench.tracing import (
    END,
    SPAN_ID,
    START,
    SpanRecorder,
    patched,
    rows_of_result,
    self_times,
    spans_named,
    total_duration,
    total_rows,
    us_per_row,
)

PHASES = ("steady", "churn_storm", "flash_crowd")
# With five-interval traces half of a shard's episodes end within eight
# or nine steps, so at a recycle threshold of one half every shard of the
# in-process fleet recycles about twice inside the timed phases.
TRACE_DURATION = 5
RECYCLE_THRESHOLD = 0.5
# The served FSM is a fixed artifact; the seed drives the fleet.
ARTIFACT_SEED = 0
MAX_BATCH = 4096


def fleet_schedule(sessions: int, shard_size: int, steps: int) -> FleetSchedule:
    return FleetSchedule(
        sessions=sessions,
        shard_size=shard_size,
        trace_duration=TRACE_DURATION,
        trace_variants=8,
        recycle_threshold=RECYCLE_THRESHOLD,
        phases=[
            LoadPhase(name="steady", steps=steps),
            LoadPhase(
                name="churn_storm", steps=steps, churn_rate=0.02, stale_probes_per_step=4
            ),
            LoadPhase(
                name="flash_crowd",
                steps=steps,
                burst_multiplier=2,
                burst_tenant_fraction=0.2,
            ),
        ],
    )


def build_fsm_artifact(seed: int = ARTIFACT_SEED):
    """A small compiled FSM over real simulator observations.

    Four states with random actions, prototypes from a recorded episode
    and random transitions: quick to build, and it exercises the same
    table gathers and nearest-prototype fallback as an extracted machine.
    """
    env = StorageAllocationEnv(
        StorageSystemConfig(), reward_config=RewardConfig(mode="per_step_penalty"), rng=seed
    )
    trace = StandardWorkloadGenerator(env.system_config, GeneratorConfig(), rng=seed).generate(
        "web_server", duration=24
    )
    rng = np.random.default_rng(seed + 9)
    observation = env.reset(trace)
    rows = []
    while True:
        rows.append(observation.raw())
        result = env.step(MigrationAction(int(rng.integers(NUM_ACTIONS))))
        observation = result.observation
        if result.done:
            break
    stream = np.array(rows)
    qbn = build_observation_qbn(stream.shape[1], latent_dim=6, hidden_dim=16, rng=seed + 4)
    fsm = FiniteStateMachine()
    codes = []
    while len(codes) < 4:
        code = tuple(int(c) for c in rng.integers(0, 3, size=5))
        if code not in fsm.states:
            fsm.add_state(code, MigrationAction(int(rng.integers(NUM_ACTIONS))))
            codes.append(code)
    for vector in env.observation_encoder.normalize_batch(stream)[:5]:
        key = code_key(qbn.discrete_code(vector))
        fsm.observation_prototypes.setdefault(key, np.asarray(vector, float))
    keys = list(fsm.observation_prototypes)
    for _ in range(20):
        fsm.add_transition(
            codes[int(rng.integers(len(codes)))],
            keys[int(rng.integers(len(keys)))],
            codes[int(rng.integers(len(codes)))],
        )
    fsm.initial_state = codes[1]
    fsm.validate()
    encoder = env.observation_encoder
    return CompiledFSMPolicy.compile(fsm, qbn, encoder=encoder), encoder


class SampledInProcessTransport(InProcessTransport):
    """Ticks the machine clock before every wave and keeps the wave's
    latency (submit + flush) at the reference speed."""

    def __init__(self, server: PolicyServer, samples: List[float], clock) -> None:
        super().__init__(server)
        self.samples = samples
        self.clock = clock

    async def decide_wave(self, slots, gens, raw, hist):
        self.clock.tick()
        start = time.perf_counter()
        actions = await super().decide_wave(slots, gens, raw, hist)
        self.samples.append(self.clock.reference_s(time.perf_counter() - start))
        return actions


class TickingSocketTransport(SocketTransport):
    """Ticks the machine clock before every wave, when no request is in flight."""

    def __init__(self, clients, per_connection_window: int, clock) -> None:
        super().__init__(clients, per_connection_window=per_connection_window)
        self.clock = clock

    async def decide_wave(self, slots, gens, raw, hist):
        self.clock.tick()
        return await super().decide_wave(slots, gens, raw, hist)


class SampledClient:
    """A :class:`PolicyClient` whose ``decide`` latencies are kept at the
    reference speed of the clock's last tick."""

    def __init__(self, client: PolicyClient, samples: List[float], clock) -> None:
        self._client = client
        self.samples = samples
        self.clock = clock

    def __getattr__(self, attribute):
        return getattr(self._client, attribute)

    async def decide(self, handle, observation):
        start = time.perf_counter()
        action = await self._client.decide(handle, observation)
        self.samples.append(self.clock.reference_s(time.perf_counter() - start))
        return action


def _phase_wrappers(
    recorder: Optional[SpanRecorder], clock: MachineClock, ticks: Dict[str, float]
):
    """``LoadReport.begin_phase`` and ``finish_phase`` that store in
    ``ticks`` each phase's seconds spent in the machine clock, and with a
    recorder open a span over the phase."""
    begin, finish = LoadReport.begin_phase, LoadReport.finish_phase
    open_phases: List[tuple] = []

    def begin_phase(report, name):
        span = recorder.begin("loadgen.phase") if recorder is not None else None
        open_phases.append((span, clock.spent))
        return begin(report, name)

    def finish_phase(report, counters, seconds):
        span, spent = open_phases.pop()
        ticks[counters["name"]] = clock.spent - spent
        try:
            return finish(report, counters, seconds)
        finally:
            if span is not None:
                recorder.end(span)

    return begin_phase, finish_phase


def layer_targets():
    """Public functions timed in a traced fleet pass: (owner, name, span, rows)."""
    return [
        (VectorStorageAllocationEnv, "step", "env.step", lambda a, k, r: a[0].num_envs),
        (VectorStorageAllocationEnv, "raw_observations", "env.observe", rows_of_result),
        (VectorStorageAllocationEnv, "reset", "storage.reset", lambda a, k, r: len(a[1])),
        (StandardWorkloadGenerator, "generate", "workloads.generate", None),
        (CompiledFSMBackend, "decide", "engine.decide", lambda a, k, r: len(a[2])),
        (PolicyServer, "submit_many", "serving.submit", rows_of_result),
        (PolicyServer, "submit", "serving.submit", lambda a, k, r: 1),
        (PolicyServer, "flush", "serving.flush", lambda a, k, r: r),
        (PolicyServer, "open_sessions", "sessions.open", rows_of_result),
        (PolicyServer, "close_sessions", "sessions.close", lambda a, k, r: len(a[1])),
        (FleetDriver, "_setup", "loadgen.setup", None),
        (InProcessTransport, "decide_wave", "loadgen.wave", lambda a, k, r: len(a[1])),
        # A socket wave's self time is what no timed call covers: asyncio,
        # socket I/O, the server's dispatch and settle, client bookkeeping.
        (SocketTransport, "decide_wave", "netserver.wave", lambda a, k, r: len(a[1])),
        (netserver_module, "encode_frame", "netserver.encode", None),
        (netserver_module, "decode_body", "netserver.decode", None),
    ]


class _FleetWorkload:
    """What the two fleet workloads share: passes, gates and metrics."""

    sessions: int
    shard_size: int
    steps: int

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.schedule = fleet_schedule(self.sessions, self.shard_size, self.steps)
        self.compiled, self.encoder = build_fsm_artifact()
        self.passes: List[Dict[str, object]] = []
        self.clock = MachineClock()

    def _server(self) -> PolicyServer:
        return PolicyServer(
            CompiledFSMBackend(self.compiled),
            self.encoder,
            initial_capacity=self.sessions,
            max_batch_size=MAX_BATCH,
        )

    def run_pass(self, recorder: Optional[SpanRecorder] = None) -> Dict[str, object]:
        """One full schedule on a fresh server; set-up is wall minus phases.

        The machine clock ticks between the waves of an untraced pass,
        and its time is taken out of the phase it fell in.
        """
        samples: List[float] = []
        fallbacks = self.compiled.fallback_count
        ticks: Dict[str, float] = {}
        begin_phase, finish_phase = _phase_wrappers(recorder, self.clock, ticks)
        start = time.perf_counter()
        with mock.patch.object(LoadReport, "begin_phase", begin_phase), \
                mock.patch.object(LoadReport, "finish_phase", finish_phase):
            if recorder is None:
                report, server_summary = self._drive(samples, self.clock)
            else:
                with recorder.trace("loadgen.pass"), patched(recorder, layer_targets()):
                    report, server_summary = self._drive(samples, UntimedClock())
        phase_s = {name: report.phase_seconds[name] - ticks[name] for name in PHASES}
        wall = time.perf_counter() - start - sum(ticks.values())
        phase_seconds = sum(phase_s.values())
        det = report.deterministic_dict()
        attempted, failed = stats.attempts_and_failures(det["phases"], server_summary)
        record = {
            "traced": recorder is not None,
            "wall_s": wall,
            "setup_s": wall - phase_seconds,
            "phase_s": phase_s,
            "phases": det["phases"],
            "decisions": det["decisions_total"] + det["probe_decisions_total"],
            "recycles": det["recycles"],
            "churn_cycles": det["churn_cycles_total"],
            "stale_rejections": det["stale_rejections_total"],
            "final_occupancy": det["occupancy_timeline"][-1],
            "digest": report.digest,
            "deterministic_json": report.deterministic_json(),
            "server": server_summary,
            "fallback_rows": self.compiled.fallback_count - fallbacks,
            "attempted": attempted,
            "failed": failed,
            "samples": samples,
        }
        self.passes.append(record)
        return record

    # -- results ------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        runs = [p for p in self.passes if not p["traced"]]
        phase_s = [sum(p["phase_s"].values()) for p in runs]
        latency = self.latency()
        slowdown = self.clock.slowdown()
        return {
            "setup_s": statistics.median([p["setup_s"] for p in runs]) / slowdown,
            "decisions_per_s": sum(p["decisions"] for p in runs) / sum(phase_s) * slowdown,
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "pass_s": statistics.fmean(phase_s) / slowdown,
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in runs]),
        }

    def latency(self) -> Dict[str, object]:
        return stats.latency_summary(
            [p["samples"] for p in self.passes if not p["traced"]], repeats=True
        )

    def attempts(self):
        return (
            sum(p["attempted"] for p in self.passes),
            sum(p["failed"] for p in self.passes),
        )

    def gates(self) -> List[tuple]:
        digests = {p["digest"] for p in self.passes}
        return [
            ("same digest on every pass of one seed", len(digests) == 1, f"{len(digests)} digests"),
            (
                "occupancy held at the end of every pass",
                all(p["final_occupancy"] == self.sessions for p in self.passes),
                f"{[p['final_occupancy'] for p in self.passes]} of {self.sessions}",
            ),
            (
                "no failed or undrained work",
                all(p["failed"] == 0 for p in self.passes),
                f"{sum(p['failed'] for p in self.passes)} failed",
            ),
        ]

    def layer_metrics(self, spans: List[tuple]) -> Dict[str, float]:
        traced = [p for p in self.passes if p["traced"]]
        count = len(traced)
        own = self_times(spans)
        decide = spans_named(spans, "engine.decide")
        flush = spans_named(spans, "serving.flush")
        submit = spans_named(spans, "serving.submit")
        decisions = total_rows(decide)
        setup = spans_named(spans, "loadgen.setup")
        churn = [
            s
            for s in spans_named(spans, "sessions.")
            if not any(a[START] <= s[START] and s[END] <= a[END] for a in setup)
        ]
        churn_cycles = sum(p["churn_cycles"] for p in traced)
        # Rates per phase come from the untraced passes, undisturbed by spans.
        untraced = [p for p in self.passes if not p["traced"]]
        phase_rates = {}
        for phase in PHASES:
            seconds = sum(p["phase_s"][phase] for p in untraced)
            made = sum(
                int(entry["decisions"]) + int(entry["probe_decisions"])
                for p in untraced
                for entry in p["phases"]
                if entry["name"] == phase
            )
            phase_rates[f"loadgen.phase_decisions_per_s.{phase}"] = made / seconds
        server = [p["server"] for p in traced]
        return {
            "env.step_us_per_row": us_per_row(spans_named(spans, "env.step")),
            "env.observe_us_per_row": us_per_row(spans_named(spans, "env.observe")),
            "serving.submit_us_per_decision": _per_self(submit, own),
            "serving.flush_self_us_per_decision": _ratio(
                total_duration(flush) - total_duration(decide), decisions
            )
            * 1e6,
            "engine.decide_us_per_decision": us_per_row(decide),
            "loadgen.self_s": sum(own[s[SPAN_ID]] for s in spans_named(spans, "loadgen."))
            / count,
            "sessions.churn_us_per_cycle": _ratio(total_duration(churn), churn_cycles) * 1e6,
            "storage.reset_us_per_row": us_per_row(spans_named(spans, "storage.reset")),
            "storage.recycles": sum(p["recycles"] for p in traced) / count,
            "workloads.generate_s": total_duration(spans_named(spans, "workloads.generate"))
            / count,
            "engine.fallback_share": _ratio(sum(p["fallback_rows"] for p in traced), decisions),
            **phase_rates,
            "serving.batch_size_mean": _ratio(
                sum(s["decisions"] for s in server), sum(s["batches"] for s in server)
            ),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _per_self(spans, own) -> float:
    return _ratio(sum(own[s[SPAN_ID]] for s in spans), total_rows(spans)) * 1e6


class InProcessFleet(_FleetWorkload):
    sessions = 8192
    shard_size = 512
    steps = 8

    def _drive(self, samples, clock):
        server = self._server()
        transport = SampledInProcessTransport(server, samples, clock)
        report = FleetDriver(self.schedule, transport, base_seed=self.seed).run()
        broker = server.stats()
        summary = {
            "pending": server.pending,
            "failed": broker.failed,
            "decisions": broker.decisions,
            "batches": broker.batches,
        }
        return report, summary

    def gates(self) -> List[tuple]:
        return super().gates() + [
            (
                "pending queue empty after every pass",
                all(p["server"]["pending"] == 0 for p in self.passes),
                "",
            ),
            _exercised("storage.recycles", self.passes, "recycles"),
            _exercised("session churn cycles", self.passes, "churn_cycles"),
            _exercised("stale-probe rejections", self.passes, "stale_rejections"),
        ]


class SocketFleet(_FleetWorkload):
    sessions = 2048
    shard_size = 2048
    steps = 3
    connections = 2
    window = 32

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed)
        self.workdir = workdir

    def _drive(self, samples, clock):
        return asyncio.run(self._drive_async(samples, clock))

    async def _drive_async(self, samples, clock):
        server = self._server()
        netserver = PolicyNetServer(
            server, flush_interval=0.001, max_inflight=2 * self.window
        )
        # A short relative path: unix socket paths are limited to ~100 bytes.
        socket_dir = os.path.relpath(tempfile.mkdtemp(prefix="sock-", dir=self.workdir))
        try:
            await netserver.start(unix_path=os.path.join(socket_dir, "fleet.sock"))
            clients = [
                SampledClient(
                    await PolicyClient.connect_unix(os.path.join(socket_dir, "fleet.sock")),
                    samples,
                    clock,
                )
                for _ in range(self.connections)
            ]
            transport = TickingSocketTransport(clients, self.window, clock)
            try:
                driver = FleetDriver(self.schedule, transport, base_seed=self.seed)
                report = await driver.run_async()
            finally:
                for client in clients:
                    await client.close()
            # drain() cancels whatever is still queued or parked and then
            # reports both as 0, so they are read before it; the work it
            # cancels shows in the counters it returns.
            left = netserver.summary()
            drained = await netserver.drain()
        finally:
            shutil.rmtree(socket_dir, ignore_errors=True)
        summary = dict(drained)
        summary["pending"] = left["pending"]
        summary["parked_replies"] = left["parked_replies"]
        summary["drain_failed"] = drained["failed"] - left["failed"]
        return report, summary

    def reference_matches(self) -> bool:
        """The cross-transport contract: same seed and schedule in-process."""
        server = self._server()
        report = FleetDriver(self.schedule, InProcessTransport(server), base_seed=self.seed).run()
        return all(p["deterministic_json"] == report.deterministic_json() for p in self.passes)

    def layer_metrics(self, spans: List[tuple]) -> Dict[str, float]:
        traced = [p["server"] for p in self.passes if p["traced"]]
        codec = spans_named(spans, "netserver.encode") + spans_named(spans, "netserver.decode")
        frames = len(spans_named(spans, "netserver.encode"))
        return {
            **super().layer_metrics(spans),
            "netserver.codec_us_per_frame": _ratio(total_duration(codec), frames) * 1e6,
            "netserver.flushes": sum(s["batches"] for s in traced) / len(traced),
            **{
                f"netserver.{key}": sum(int(s[key]) for s in traced) / len(traced)
                for key in (
                    "requests_total",
                    "busy_rejections",
                    "protocol_errors",
                    "replies_dropped",
                    "flush_loop_errors",
                )
            },
        }

    def gates(self) -> List[tuple]:
        left = [
            (p["server"]["pending"], p["server"]["parked_replies"], p["server"]["drain_failed"])
            for p in self.passes
        ]
        clean = all(entry == (0, 0, 0) for entry in left)
        return super().gates() + [
            ("drain finds pending = parked = 0 and fails nothing", clean, "" if clean else f"{left}"),
            ("socket report equals the in-process report", self.reference_matches(), ""),
            (
                "netserver requests_total > 0",
                all(int(p["server"].get("requests_total", 0)) > 0 for p in self.passes),
                "",
            ),
        ]


def _exercised(label: str, passes, key: str) -> tuple:
    values = [p[key] for p in passes]
    return (f"{label} > 0 on every pass", all(v > 0 for v in values), f"{values}")
