"""The design workload: train a heuristic, extract its FSM, evaluate it.

An offline batch.  Each pass synthesises the workload traces, runs
:meth:`LearningAidedPipeline.run` on a fixed small configuration
(behaviour cloning, curriculum A2C, greedy rollout, QBN training, FSM
extraction and interpretation), evaluates the result against the
default, handcrafted and greedy heuristics, and verifies the compiled
FSM against the interpreted one.  Pass ``i`` of a run with seed ``s``
designs from pipeline seed ``s * 1000 + i``, so a run's median averages
over several designs instead of hanging on one seed's episode lengths.

Latency samples are the GRU policy's batched steps
(``RecurrentPolicyValueNet.act_batch``) wherever a pass makes one: the
A2C and extraction rollouts and the evaluation.  Evaluation alone holds
about 50 ms of them per pass, too short a window on a shared machine
whose speed changes within seconds, and their percentiles did not
repeat between seeds; the whole pass holds about three times as many.
The machine clock (``perfbench/machine.py``) ticks before each step,
and each sample is kept at the reference speed.  The compiled FSM's decisions are not used: whether a batch holds a row
that falls back to the nearest prototype splits them into two modes,
and the mix moves with every extracted machine.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List, Optional
from unittest import mock

import repro.pipeline.learning_aided as learning_aided
from repro.agents.default import DefaultPolicy
from repro.agents.greedy import GreedyUtilizationPolicy
from repro.agents.handcrafted import HandcraftedFSMPolicy
from repro.drl.curriculum import CurriculumTrainer
from repro.drl.imitation import BehaviorCloningTrainer
from repro.drl.policy import RecurrentPolicyValueNet
from repro.drl.rollout import BatchedRolloutCollector
from repro.engine.backends import AgentBatchBackend, CompiledFSMBackend, GRUPolicyBackend
from repro.engine.evaluation import EvaluationEngine
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.fsm.extraction import FSMExtractor
from repro.pipeline.experiments import small_pipeline_config
from repro.pipeline.learning_aided import LearningAidedPipeline, PipelineConfig
from repro.qbn.trainer import QBNTrainer, QBNTrainingConfig

from perfbench import stats
from perfbench.machine import MachineClock, UntimedClock
from perfbench.tracing import (
    PARENT_ID,
    SPAN_ID,
    SpanRecorder,
    patched,
    rows_of_result,
    spans_named,
    total_duration,
    total_rows,
    us_per_row,
)

# Workload synthesis is short, so each pass repeats it and keeps the median.
SYNTHESIS_REPEATS = 3


def design_config(seed: int) -> PipelineConfig:
    """``small_pipeline_config`` cut to a couple of seconds per design.

    The held-out set (24 traces, as many as the real-trace pool allows)
    makes evaluation a measurable share of a pass.
    """
    config = small_pipeline_config(
        seed=seed,
        standard_epochs=2,
        real_epochs=2,
        hidden_size=32,
        trace_duration=32,
        num_real_traces=24,
        num_eval_traces=24,
    )
    config.bc_pretrain_epochs = 3
    config.qbn = QBNTrainingConfig(epochs=12, observation_latent_dim=12, hidden_latent_dim=16)
    config.qbn_fine_tune_epochs = 6
    return config


def layer_targets():
    """Public functions timed in a traced design pass: (owner, name, span, rows)."""
    return [
        (LearningAidedPipeline, "build_workloads", "workloads.synthesis", None),
        (LearningAidedPipeline, "run", "pipeline.design", None),
        (LearningAidedPipeline, "evaluate", "pipeline.evaluate", None),
        (LearningAidedPipeline, "verify_fidelity", "pipeline.fidelity", None),
        (BehaviorCloningTrainer, "collect_demonstrations", "drl.bc", None),
        (BehaviorCloningTrainer, "fit", "drl.bc", None),
        (CurriculumTrainer, "train_with_curriculum", "drl.a2c", None),
        (
            BatchedRolloutCollector,
            "collect_batch",
            "drl.collect",
            lambda a, k, r: sum(len(t) for t in r),
        ),
        (QBNTrainer, "train", "qbn.train", None),
        (FSMExtractor, "extract", "fsm.extract", None),
        (learning_aided, "interpret_fsm", "fsm.interpret", None),
        (EvaluationEngine, "evaluate", "engine.evaluate", lambda a, k, r: sum(r.makespans)),
        (CompiledFSMBackend, "decide", "engine.decide", lambda a, k, r: len(a[2])),
        (GRUPolicyBackend, "decide", "engine.decide", lambda a, k, r: len(a[2])),
        (AgentBatchBackend, "decide", "engine.decide", lambda a, k, r: len(a[2])),
        (VectorStorageAllocationEnv, "step", "env.step", lambda a, k, r: a[0].num_envs),
        (VectorStorageAllocationEnv, "raw_observations", "env.observe", rows_of_result),
        (VectorStorageAllocationEnv, "reset", "storage.reset", lambda a, k, r: len(a[1])),
    ]


def _finite(result) -> bool:
    return all(math.isfinite(v) for v in list(result.makespans) + list(result.total_rewards))


def _sampled_act_batch(samples: List[float], clock):
    """``RecurrentPolicyValueNet.act_batch`` keeping each batched step's
    latency at the reference speed, and ticking ``clock`` between steps."""
    act_batch = RecurrentPolicyValueNet.act_batch

    def sampled(policy, *args, **kwargs):
        clock.tick()
        start = time.perf_counter()
        output = act_batch(policy, *args, **kwargs)
        samples.append(clock.reference_s(time.perf_counter() - start))
        return output

    return sampled


def _counted_fsm_decide(counts: Dict[str, int]):
    """``CompiledFSMBackend.decide`` counting rows and nearest-prototype fallbacks."""
    decide = CompiledFSMBackend.decide

    def counted(backend, table, slots, raw, normalized):
        before = backend.policy.fallback_count
        actions = decide(backend, table, slots, raw, normalized)
        counts["fsm_rows"] += len(slots)
        counts["fallback_rows"] += backend.policy.fallback_count - before
        return actions

    return counted


class DesignWorkload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.passes: List[Dict[str, object]] = []
        self.clock = MachineClock()

    def run_pass(self, recorder: Optional[SpanRecorder] = None) -> Dict[str, object]:
        # A traced pass repeats the design of the untraced pass before it,
        # so the two walls differ by the tracing alone.
        index = sum(not p["traced"] for p in self.passes) - (recorder is not None)
        if recorder is None:
            record = self._design(index, self.clock)
        else:
            with recorder.trace("design.pass"), patched(recorder, layer_targets()):
                record = self._design(index, UntimedClock())
        record["traced"] = recorder is not None
        self.passes.append(record)
        return record

    def _design(self, index: int, sampling) -> Dict[str, object]:
        config = design_config(self.seed * 1000 + index)
        clock = self.clock
        start, start_spent = time.perf_counter(), clock.spent
        synthesis = []
        for _ in range(SYNTHESIS_REPEATS):
            began = time.perf_counter()
            pipeline = LearningAidedPipeline(config)
            standard, real = pipeline.build_workloads()
            synthesis.append(time.perf_counter() - began)
        samples: List[float] = []
        counts = {"fsm_rows": 0, "fallback_rows": 0}
        sampled = _sampled_act_batch(samples, sampling)
        with mock.patch.object(RecurrentPolicyValueNet, "act_batch", sampled):
            began, spent = time.perf_counter(), clock.spent
            result = pipeline.run(standard, real)
            design_s = time.perf_counter() - began - (clock.spent - spent)
            began, spent = time.perf_counter(), clock.spent
            with mock.patch.object(CompiledFSMBackend, "decide", _counted_fsm_decide(counts)):
                evaluations = pipeline.evaluate(
                    result,
                    baselines=[DefaultPolicy(), HandcraftedFSMPolicy(), GreedyUtilizationPolicy()],
                )
            evaluate_s = time.perf_counter() - began - (clock.spent - spent)
            fidelity = pipeline.verify_fidelity(result)
        wall = time.perf_counter() - start - (clock.spent - start_spent)
        makespan = {name: ev.mean_makespan() for name, ev in evaluations.items()}
        return {
            "wall_s": wall,
            "setup_s": statistics.median(synthesis),
            "design_s": design_s,
            "evaluate_s": evaluate_s,
            "eval_decisions": sum(sum(ev.makespans) for ev in evaluations.values()),
            "finite": all(_finite(ev) for ev in evaluations.values())
            and _finite(fidelity.interpreted),
            "identical": fidelity.identical,
            "fsm_vs_default": makespan["extracted_fsm"] / makespan["default"],
            "fsm_vs_handcrafted": makespan["extracted_fsm"] / makespan["handcrafted_fsm"],
            "agreement": result.qbn_result.action_agreement,
            "raw_states": result.extraction.num_raw_states,
            "states": result.extraction.fsm.num_states,
            "samples": samples,
            **counts,
        }

    # -- results ------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        runs = [p for p in self.passes if not p["traced"]]
        latency = self.latency()
        slowdown = self.clock.slowdown()
        return {
            "setup_s": statistics.median([p["setup_s"] for p in runs]) / slowdown,
            "decisions_per_s": sum(p["eval_decisions"] for p in runs)
            / sum(p["evaluate_s"] for p in runs)
            * slowdown,
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "pass_s": statistics.fmean(p["design_s"] for p in runs) / slowdown,
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in runs]),
        }

    def latency(self) -> Dict[str, object]:
        return stats.latency_summary(
            [p["samples"] for p in self.passes if not p["traced"]], repeats=False
        )

    def attempts(self):
        attempted = sum(p["eval_decisions"] for p in self.passes)
        failed = sum(0 if p["finite"] else p["eval_decisions"] for p in self.passes)
        return attempted, failed

    def gates(self) -> List[tuple]:
        return [
            (
                "verify_fidelity(...).identical on every design",
                all(p["identical"] is True for p in self.passes),
                f"{[p['identical'] for p in self.passes]}",
            ),
            ("evaluation results finite", all(p["finite"] for p in self.passes), ""),
        ]

    def layer_metrics(self, spans: List[tuple]) -> Dict[str, float]:
        traced = [p for p in self.passes if p["traced"]]
        count = len(traced)
        collect = spans_named(spans, "drl.collect")
        # Only the evaluation that decisions_per_s times: verify_fidelity's
        # runs (one replays the interpreted FSM per slot) are left out.
        timed_evaluations = {s[SPAN_ID] for s in spans_named(spans, "pipeline.evaluate")}
        evaluate = [
            s for s in spans_named(spans, "engine.evaluate") if s[PARENT_ID] in timed_evaluations
        ]
        decide = spans_named(spans, "engine.decide")

        def seconds(name: str) -> float:
            return total_duration(spans_named(spans, name)) / count

        return {
            "env.step_us_per_row": us_per_row(spans_named(spans, "env.step")),
            "env.observe_us_per_row": us_per_row(spans_named(spans, "env.observe")),
            "engine.decide_us_per_decision": us_per_row(decide),
            "storage.reset_us_per_row": us_per_row(spans_named(spans, "storage.reset")),
            "engine.fallback_share": sum(p["fallback_rows"] for p in traced)
            / sum(p["fsm_rows"] for p in traced),
            "drl.bc_s": seconds("drl.bc"),
            "drl.a2c_s": seconds("drl.a2c"),
            "drl.collect_steps_per_s": total_rows(collect) / total_duration(collect),
            "qbn.train_s": seconds("qbn.train"),
            "fsm.extract_s": seconds("fsm.extract"),
            "fsm.raw_states": sum(p["raw_states"] for p in traced) / count,
            "fsm.states": sum(p["states"] for p in traced) / count,
            "engine.eval_us_per_decision": us_per_row(evaluate),
            # The first pass's design depends on the seed alone.
            "fsm.makespan_vs_default": self.passes[0]["fsm_vs_default"],
            "fsm.makespan_vs_handcrafted": self.passes[0]["fsm_vs_handcrafted"],
            "fsm.action_agreement": self.passes[0]["agreement"],
        }
