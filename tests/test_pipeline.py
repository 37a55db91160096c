"""Pipeline orchestration tests over the scripted backend.

Every test records (or replays) against the deterministic scripted transport,
so the numbers asserted here are frozen by the script, not by chance.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import pickle
import random
import shutil
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from tempfile import TemporaryDirectory
from types import FrameType, SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, CORPUS_DIR, REPO_ROOT
from decisionflow import cli, gateway, pipeline
from decisionflow.core import (
    DecisionProblem,
    FilterPolicy,
    feasible_actions,
    parse_constraint,
)
from decisionflow.datasets import write_json
from decisionflow.errors import (
    BackendError,
    DecisionError,
    DecisionFlowError,
    ReplayMissError,
    StageOutputError,
    TransportError,
)
from decisionflow.gateway import (
    GatewayConfig,
    LlmGateway,
    TranscriptStore,
    request_digest,
)
from decisionflow.pipeline import (
    MODES,
    ExperimentContext,
    PipelineConfig,
    attribute_codes,
    execute_run,
    kernel_sweep,
    render_objective,
    run_experiment,
    run_problem,
    usage_totals,
)
from decisionflow.testing import REFUSAL_TEXT, ScriptedTransport, fixture_script
from parser_corpus import CASES, run_case

EPS = 1e-9


class CountingTransport(ScriptedTransport):
    """Scripted backend that counts sends and distinct digests under a lock
    and holds each send for a moment, so concurrent workers overlap."""

    def __init__(self):
        super().__init__(fixture_script)
        self.sends = 0
        self.digests = set()
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.sends += 1
            self.digests.add(request_digest(request))
        time.sleep(0.002)
        return super().send(request)


class FailingTransport(ScriptedTransport):
    """Scripted backend whose `fail_at`-th send raises BackendError; `failed`
    is set from that moment on."""

    def __init__(self, fail_at):
        super().__init__(fixture_script)
        self.fail_at = fail_at
        self.sends = 0
        self.failed = threading.Event()
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.sends += 1
            failing = self.sends == self.fail_at
        if failing:
            self.failed.set()
            raise BackendError("scripted failure")
        time.sleep(0.002)
        return super().send(request)


class HoldingTransport(ScriptedTransport):
    """Scripted backend whose third weigh send raises BackendError while the
    first weigh send is held until that failure; `after` counts the weigh
    sends that begin once the failure has been raised."""

    def __init__(self):
        super().__init__(fixture_script)
        self.weighs = 0
        self.after = 0
        self.failed = threading.Event()
        self._lock = threading.Lock()

    def send(self, request):
        if request.stage_tag != "weigh":
            return super().send(request)
        with self._lock:
            self.weighs += 1
            index = self.weighs
            if self.failed.is_set():
                self.after += 1
        if index == 1:
            assert self.failed.wait(10)
            time.sleep(0.1)
        elif index == 3:
            self.failed.set()
            raise BackendError("scripted failure")
        return super().send(request)


def completion_events(trace):
    return [e for e in trace if e["kind"] == "completion"]


def stage_tags(trace):
    return [e["payload"]["stage_tag"] for e in completion_events(trace)]


class TestStructuredRun:
    def test_case_study_utilities_and_answer(self, ctx_factory, bomber_problem):
        ctx = ctx_factory("decisionflow")
        outcome = run_problem(bomber_problem, ctx)
        assert outcome.answer == 1
        assert outcome.utilities[0] == pytest.approx(0.625, abs=EPS)
        assert outcome.utilities[1] == pytest.approx(1.62, abs=EPS)
        rationale = next(e["payload"] for e in outcome.trace
                         if (e["kind"], e["name"]) == ("parsed", "rationale"))
        assert rationale
        assert bomber_problem.actions[outcome.answer] == "Treat the bomber"

    def test_stage_order_and_models(self, ctx_factory, bomber_problem):
        ctx = ctx_factory("decisionflow")
        outcome = run_problem(bomber_problem, ctx)
        tags = stage_tags(outcome.trace)
        assert tags == [
            "extract_info", "summarize_attributes",
            "weigh", "weigh", "weigh", "weigh",
            "ground_and_decide", "rationale",
        ]
        for event in completion_events(outcome.trace):
            payload = event["payload"]
            if payload["stage_tag"] in ("extract_info", "summarize_attributes"):
                assert payload["model"] == "info-model"
            else:
                assert payload["model"] == "reasoning-model"
        stages = [e["stage"] for e in outcome.trace]
        assert stages == sorted(stages), "stage labels must be nondecreasing"

    def test_deterministic_stages_use_attempt_zero(self, ctx_factory,
                                                   bomber_problem):
        ctx = ctx_factory("decisionflow")
        outcome = run_problem(bomber_problem, ctx)
        assert all(e["payload"]["attempt"] == 0
                   for e in completion_events(outcome.trace))

    def test_repeats_share_transcripts(self, ctx_factory, bomber_problem):
        ctx = ctx_factory("decisionflow")
        first = run_problem(bomber_problem, ctx, repeat=0)
        live_after_first = ctx.gateway.live_calls
        second = run_problem(bomber_problem, ctx, repeat=1)
        assert ctx.gateway.live_calls == live_after_first
        assert second.utilities == first.utilities

    def test_objective_rendering_in_trace(self, ctx_factory, bomber_problem):
        ctx = ctx_factory("decisionflow")
        outcome = run_problem(bomber_problem, ctx)
        objective = next(e for e in outcome.trace if e["kind"] == "objective")
        assert objective["payload"]["term"] == (
            "0.9*MC1*x1 + 0.85*SP1*x1 + 0.9*MC2*x2 + 0.9*SP2*x2"
        )
        glossary = objective["payload"]["variables"]
        assert glossary["x1"].startswith("1 if 'Treat the young woman'")
        assert "MC2" in glossary and "SP2" in glossary

    def test_trace_has_no_wall_clock(self, ctx_factory, bomber_problem):
        ctx = ctx_factory("decisionflow")
        outcome = run_problem(bomber_problem, ctx)
        blob = json.dumps(outcome.trace)
        assert "recorded_at" not in blob
        assert "timestamp" not in blob

    def test_degenerate_all_weights_filtered(self, ctx_factory,
                                             degenerate_problem):
        ctx = ctx_factory("decisionflow")
        outcome = run_problem(degenerate_problem, ctx)
        assert outcome.answer == 0
        assert all(u == 0.0 for u in outcome.utilities)
        notes = [e["name"] for e in outcome.trace if e["kind"] == "note"]
        assert "grounding_skipped" in notes
        assert "degenerate" in notes
        assert "ground_and_decide" not in stage_tags(outcome.trace)

    def test_relevance_filter_target(self, ctx_factory, bomber_problem):
        ctx = ctx_factory("decisionflow", filter_target="relevance",
                          filter_policy=FilterPolicy.threshold(0.5))
        outcome = run_problem(bomber_problem, ctx)
        # scores: woman (0.6, 0.1), bomber (0.9, 0.9); 0.5 keeps 0.6 and 0.9s
        assert outcome.utilities[0] == pytest.approx(0.9 * 0.6, abs=EPS)
        assert outcome.utilities[1] == pytest.approx(0.81 + 0.81, abs=EPS)
        assert outcome.answer == 1

    @pytest.mark.parametrize("kind", ["exclusion", "cardinality"])
    def test_rationale_lists_the_active_constraints(self, ctx_factory, kind):
        ctx = ctx_factory("decisionflow")
        free = DecisionProblem(
            problem_id="free", scenario="Pick a storage tier for cold backups.",
            actions=("Keep tape", "Move to disk", "Move to cloud"),
        )
        winner = run_problem(free, ctx).answer
        if kind == "exclusion":
            ruling = parse_constraint(f"x{winner + 1} <= 0")
        else:
            ruling = parse_constraint(
                f"x{winner + 1} + x{(winner + 1) % 3 + 1} <= 0")
        slack = parse_constraint("x1 + x2 + x3 <= 1")  # rules nothing out
        problem = replace(free, problem_id=kind, constraints=(slack, ruling))
        outcome = run_problem(problem, ctx)
        assert outcome.answer != winner
        assert outcome.answer in feasible_actions(problem.constraints, 3)
        prompt = next(e["payload"] for e in outcome.trace
                      if e["kind"] == "prompt" and e["name"] == "rationale")
        block = prompt.split("Constraints that restricted the choice:\n")[1]
        assert block.split("\n\n")[0] == f"- {ruling.source_text}"


class TestReplayAndConcurrency:
    def test_replay_is_byte_identical(self, ctx_factory, bomber_problem):
        record_ctx = ctx_factory("decisionflow")
        recorded = run_problem(bomber_problem, record_ctx)
        replay_ctx = ctx_factory("decisionflow", gateway_mode="replay")
        replayed = run_problem(bomber_problem, replay_ctx)
        assert json.dumps(replayed.trace, sort_keys=True) == \
            json.dumps(recorded.trace, sort_keys=True)
        assert replay_ctx.gateway.live_calls == 0
        assert replayed.utilities == recorded.utilities

    def test_replay_miss_names_digest(self, ctx_factory, bomber_problem):
        ctx = ctx_factory("decisionflow", gateway_mode="replay")
        with pytest.raises(ReplayMissError) as excinfo:
            run_problem(bomber_problem, ctx)
        assert len(excinfo.value.digest) == 64

    def test_replay_digests_and_opens_once_per_call(self, ctx_factory,
                                                    mta_problems, monkeypatch):
        ctx = ctx_factory("decisionflow", gateway_mode="replay",
                          transcript_dir=CORPUS_DIR)
        counts = {"digests": 0, "has": 0, "opens": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        # counted from here on, after the store check the gateway runs on open
        digest = gateway.request_digest
        monkeypatch.setattr(gateway, "request_digest", counting("digests", digest))
        monkeypatch.setattr(pipeline, "request_digest", counting("digests", digest))
        monkeypatch.setattr(gateway.TranscriptStore, "has",
                            counting("has", gateway.TranscriptStore.has))
        monkeypatch.setattr(gateway, "open", counting("opens", open),
                            raising=False)
        records = run_experiment(mta_problems, ctx)
        calls = sum(r.llm_calls for r in records)
        assert calls > 0 and ctx.gateway.cache_hits == calls
        assert counts["digests"] == calls
        assert counts["has"] == 0
        assert counts["opens"] == calls

    @pytest.mark.parametrize("concurrency", [1, 2, 4])
    def test_concurrency_does_not_change_trace(self, ctx_factory,
                                               bomber_problem, tmp_path,
                                               concurrency):
        record_ctx = ctx_factory("decisionflow")
        run_problem(bomber_problem, record_ctx)
        serial = run_problem(
            bomber_problem, ctx_factory("decisionflow", gateway_mode="replay",
                                        max_concurrency=1))
        # replay runs on one thread, so the threaded run records afresh;
        # only run_experiment opens the pool that the weigh cells share
        (threaded,) = run_experiment([bomber_problem], ctx_factory(
            "decisionflow", max_concurrency=concurrency,
            transcript_dir=tmp_path / "threaded"))
        assert json.dumps(serial.trace) == json.dumps(threaded.trace)

    def test_replay_starts_no_thread(self, ctx_factory, mta_problems,
                                     monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("replay started a thread pool")

        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", no_pool)
        ctx = ctx_factory("decisionflow", gateway_mode="replay",
                          transcript_dir=CORPUS_DIR, max_concurrency=4)
        records = run_experiment(mta_problems, ctx)
        assert len(records) == len(mta_problems)
        assert not any(r.abstained for r in records)

    def test_tool_assisted_mode_reuses_structured_transcripts(
            self, ctx_factory, bomber_problem):
        record_ctx = ctx_factory("decisionflow")
        full = run_problem(bomber_problem, record_ctx)
        ctx = ctx_factory("cot_with_tools", gateway_mode="replay")
        outcome = run_problem(bomber_problem, ctx)
        assert outcome.answer == full.answer
        assert outcome.utilities == full.utilities
        assert "rationale" not in stage_tags(outcome.trace)
        assert ctx.gateway.live_calls == 0


class TestBaselines:
    def test_zero_shot_one_hot(self, ctx_factory, bomber_problem):
        ctx = ctx_factory("zero_shot")
        outcome = run_problem(bomber_problem, ctx)
        assert outcome.answer is not None
        expected = tuple(
            1.0 if i == outcome.answer else 0.0
            for i in range(bomber_problem.n_actions)
        )
        assert outcome.utilities == expected
        prompt_event = next(e for e in outcome.trace if e["kind"] == "prompt")
        assert "(1) Treat the young woman" in prompt_event["payload"]
        assert "(2) Treat the bomber" in prompt_event["payload"]

    def test_cot_keeps_reasoning_in_its_completion(self, ctx_factory,
                                                   bomber_problem):
        ctx = ctx_factory("cot")
        outcome = run_problem(bomber_problem, ctx)
        assert stage_tags(outcome.trace) == ["cot"]
        [completion] = completion_events(outcome.trace)
        assert json.loads(completion["payload"]["text"])["Reasoning"]

    def test_self_consistency_attempts_and_temperature(self, ctx_factory,
                                                       bomber_problem):
        ctx = ctx_factory("self_consistency")
        outcome = run_problem(bomber_problem, ctx)
        events = completion_events(outcome.trace)
        assert [e["payload"]["attempt"] for e in events] == [0, 1, 2]
        assert all(e["payload"]["stage_tag"] == "self_consistency"
                   for e in events)
        assert sum(outcome.utilities) == 3.0
        entries = [ctx.gateway.store.read(e["payload"]["digest"])
                   for e in events]
        assert all(entry["request"]["temperature"] == 0.7
                   for entry in entries)

    def test_self_consistency_repeat_offsets_attempts(self, ctx_factory,
                                                      bomber_problem):
        ctx = ctx_factory("self_consistency")
        outcome = run_problem(bomber_problem, ctx, repeat=2)
        events = completion_events(outcome.trace)
        assert [e["payload"]["attempt"] for e in events] == [6, 7, 8]

    def test_self_consistency_tie_breaks_low_index(self, ctx_factory):
        problem = DecisionProblem(
            problem_id="tie", scenario="Pick a storage tier for cold backups.",
            actions=("Keep tape", "Move to disk", "Move to cloud"),
        )

        def tie_script(request):
            if request.stage_tag == "self_consistency":
                return json.dumps({"Answer": request.attempt % 3 + 1})
            return fixture_script(request)

        ctx = ctx_factory("self_consistency", script=tie_script)
        outcome = run_problem(problem, ctx)
        assert outcome.utilities == (1.0, 1.0, 1.0)
        assert outcome.answer == 0

    def test_self_consistency_excludes_abstentions(self, ctx_factory,
                                                   bomber_problem):
        def flaky_script(request):
            if request.stage_tag == "self_consistency" and request.attempt == 0:
                return REFUSAL_TEXT
            if request.stage_tag == "self_consistency":
                return json.dumps({"Answer": 2})
            return fixture_script(request)

        ctx = ctx_factory("self_consistency", script=flaky_script)
        outcome = run_problem(bomber_problem, ctx)
        assert outcome.utilities == (0.0, 2.0)
        assert outcome.answer == 1
        notes = [e["name"] for e in outcome.trace if e["kind"] == "note"]
        assert "sample[0]_abstained" in notes

    def test_self_consistency_all_abstain_is_decision_error(self, ctx_factory,
                                                            bomber_problem):
        def refuse_all(request):
            if request.stage_tag == "self_consistency":
                return REFUSAL_TEXT
            return fixture_script(request)

        ctx = ctx_factory("self_consistency", script=refuse_all)
        with pytest.raises(DecisionError):
            run_problem(bomber_problem, ctx)

    def test_joint_worked_example(self, ctx_factory, surgery_problem):
        ctx = ctx_factory("joint")
        outcome = run_problem(surgery_problem, ctx)
        assert outcome.answer == 0
        assert surgery_problem.actions[0] == "Proceed with surgery for Patient A"
        [completion] = completion_events(outcome.trace)
        assert "Step 1" in completion["payload"]["text"]
        assert outcome.utilities == (1.0, 0.0)


class TestAblations:
    def test_no_scoring_uses_unit_weights(self, ctx_factory, bomber_problem):
        ctx = ctx_factory("ablate_no_scoring")
        outcome = run_problem(bomber_problem, ctx)
        assert outcome.utilities[0] == pytest.approx(0.7, abs=EPS)
        assert outcome.utilities[1] == pytest.approx(1.8, abs=EPS)
        assert "weigh" not in stage_tags(outcome.trace)
        notes = [e["name"] for e in outcome.trace if e["kind"] == "note"]
        assert "scoring_ablated" in notes

    def test_no_filter_keeps_subthreshold_weights(self, ctx_factory,
                                                  degenerate_problem):
        ctx = ctx_factory("ablate_no_filter")
        outcome = run_problem(degenerate_problem, ctx)
        assert any(u > 0.0 for u in outcome.utilities)
        assert "ground_and_decide" in stage_tags(outcome.trace)

    def test_both_ablations_combine(self, ctx_factory, bomber_problem):
        ctx = ctx_factory("ablate_both")
        outcome = run_problem(bomber_problem, ctx)
        assert outcome.utilities[0] == pytest.approx(0.7, abs=EPS)
        assert outcome.utilities[1] == pytest.approx(1.8, abs=EPS)


class TestRunner:
    def test_execute_run_usage_matches_trace(self, ctx_factory,
                                             bomber_problem):
        ctx = ctx_factory("decisionflow")
        record = execute_run(bomber_problem, ctx)
        p, r, calls, latency, approx = usage_totals(record.trace)
        assert (record.prompt_tokens, record.response_tokens) == (p, r)
        assert record.llm_calls == calls == 8
        assert record.latency_total == pytest.approx(latency)
        assert record.wall_time > 0.0
        assert record.usage_approximate is False
        assert not record.abstained

    def test_refusal_becomes_abstention_record(self, ctx_factory,
                                               refusal_problem):
        ctx = ctx_factory("zero_shot")
        record = execute_run(refusal_problem, ctx)
        assert record.abstained
        assert record.answer is None
        assert record.error == "OutputParseError"
        assert record.llm_calls == 1
        assert record.prompt_tokens > 0

    def test_unparseable_extraction_leaves_its_trace_in_the_callers_list(
            self, ctx_factory, bomber_problem):
        def refuse_extraction(request):
            if request.stage_tag == "extract_info":
                return REFUSAL_TEXT
            return fixture_script(request)

        ctx = ctx_factory("decisionflow", script=refuse_extraction)
        trace = []
        with pytest.raises(StageOutputError) as err:
            run_problem(bomber_problem, ctx, 0, trace)
        assert not hasattr(err.value, "trace")
        assert [(e["kind"], e["name"]) for e in trace] == [
            ("note", "run"), ("prompt", "extract_info"),
            ("completion", "extract_info")]
        assert trace[-1]["payload"]["text"] == REFUSAL_TEXT
        assert execute_run(bomber_problem, ctx).trace == tuple(trace)

    def test_unparseable_weigh_cell_at_c3_leaves_its_trace_in_the_callers_list(
            self, ctx_factory, bomber_problem):
        """Record mode at c=3 sends a run's weigh cells at once; the first
        unparseable cell in row-major order ends the trace."""
        line = f'Action: "{bomber_problem.actions[1]}"'

        def refuse_second_row(request):
            if request.stage_tag == "weigh" and line in request.prompt.splitlines():
                return REFUSAL_TEXT
            return fixture_script(request)

        ctx = ctx_factory("decisionflow", script=refuse_second_row,
                          max_concurrency=3)
        trace = []
        with ThreadPoolExecutor(max_workers=8) as pool, \
                pytest.raises(StageOutputError) as err:
            run_problem(bomber_problem, replace(ctx, pool=pool), 0, trace)
        assert not hasattr(err.value, "trace")
        assert (trace[-1]["kind"], trace[-1]["name"]) == ("completion",
                                                          "weigh[1,0]")
        assert trace[-1]["payload"]["text"] == REFUSAL_TEXT
        [record] = run_experiment([bomber_problem], ctx)
        assert record.abstained and record.trace == tuple(trace)

    def test_experiment_ordering_and_repeats(self, ctx_factory, mta_problems,
                                             monkeypatch):
        # reversed, so problem order is not problem_id order
        problems = mta_problems[1::-1]
        started = []
        execute = pipeline.execute_run

        def execute_logged(problem, ctx, repeat=0):
            started.append((problem.problem_id, repeat))
            return execute(problem, ctx, repeat)

        monkeypatch.setattr(pipeline, "execute_run", execute_logged)
        ctx = ctx_factory("zero_shot")
        records = run_experiment(problems, ctx, repeats=2)
        # runs start repeat-major and come back problem-major
        assert started == [
            (problems[0].problem_id, 0), (problems[1].problem_id, 0),
            (problems[0].problem_id, 1), (problems[1].problem_id, 1),
        ]
        assert [(r.problem_id, r.repeat) for r in records] == [
            (problems[0].problem_id, 0), (problems[0].problem_id, 1),
            (problems[1].problem_id, 0), (problems[1].problem_id, 1),
        ]
        assert all(r.mode == "zero_shot" for r in records)

    def test_experiment_parallel_matches_serial(self, ctx_factory,
                                                mta_problems, tmp_path):
        problems = mta_problems[:3]
        record_ctx = ctx_factory("zero_shot")
        serial = run_experiment(problems, record_ctx, repeats=1)
        # replay runs on one thread, so the threaded run records afresh
        threaded_ctx = ctx_factory("zero_shot", max_concurrency=4,
                                   transcript_dir=tmp_path / "threaded")
        threaded = run_experiment(problems, threaded_ctx, repeats=1)
        assert [r.answer for r in threaded] == [r.answer for r in serial]
        assert [json.dumps(r.trace) for r in threaded] == \
            [json.dumps(r.trace) for r in serial]

    @pytest.mark.parametrize("concurrency", [1, 2, 4, 8])
    def test_record_sends_each_digest_once(self, tmp_path, templates,
                                           mta_problems, concurrency):
        transport = CountingTransport()
        gateway = LlmGateway(
            GatewayConfig(mode="record", transcript_dir=tmp_path / "store"),
            transport,
        )
        ctx = ExperimentContext(
            PipelineConfig(mode="decisionflow", max_concurrency=concurrency),
            gateway, templates,
        )
        records = run_experiment(mta_problems, ctx, repeats=3)
        assert transport.sends == len(transport.digests) == \
            gateway.live_calls == len(gateway.store.digests()) == 90
        assert gateway.live_calls + gateway.cache_hits == \
            sum(r.llm_calls for r in records) == 288

    @pytest.mark.parametrize("concurrency", [2, 3])
    def test_record_threads_stay_within_one_pool(self, tmp_path, templates,
                                                 mta_problems, concurrency):
        # c runs at once, each with c weigh calls at once: the calling thread
        # plus c * c - 1 pool threads
        transport = CountingTransport()
        active = []
        send = transport.send

        def counting_send(request):
            active.append(threading.active_count())
            return send(request)

        transport.send = counting_send
        gateway = LlmGateway(
            GatewayConfig(mode="record", transcript_dir=tmp_path / "store"),
            transport,
        )
        ctx = ExperimentContext(
            PipelineConfig(mode="decisionflow", max_concurrency=concurrency),
            gateway, templates,
        )
        before = threading.active_count()
        records = run_experiment(mta_problems, ctx)
        assert len(records) == len(mta_problems)
        assert max(active) - before <= concurrency * concurrency - 1

    @pytest.mark.parametrize("pool_threads", [1, 15])
    def test_nested_maps_run_each_item_once_on_any_pool(self, pool_threads):
        # 4 outer items, each mapping 50 inner ones, on the pool run_experiment
        # would open at c=4 (15 threads) and on one far too small for it
        done = []

        def inner(item):
            done.append(item)
            return item

        def outer(i):
            return pipeline._map(inner, [(i, j) for j in range(50)], ctx)

        def run():
            result.append(pipeline._map(outer, list(range(4)), ctx))

        result = []
        pool = ThreadPoolExecutor(max_workers=pool_threads)
        ctx = SimpleNamespace(pool=pool,
                              config=SimpleNamespace(max_concurrency=4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            runner.join(30)
            assert not runner.is_alive()
        finally:
            sys.setswitchinterval(interval)
            # a deadlocked map waits on a queued helper: cancelling it frees
            # the pool threads
            pool.shutdown(cancel_futures=True)
        expected = [[(i, j) for j in range(50)] for i in range(4)]
        assert result == [expected]
        assert sorted(done) == [cell for row in expected for cell in row]

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_interrupt_stops_further_tasks(self, ctx_factory, mta_problems,
                                           monkeypatch, concurrency):
        interrupt = threading.Event()
        execute = pipeline.execute_run
        first = threading.Lock()

        def execute_then_interrupt(problem, ctx, repeat=0):
            # the first run sets the event after a pause long enough for a
            # runner that queues every task up front to have queued them;
            # the others start only once it is set
            if first.acquire(blocking=False):
                record = execute(problem, ctx, repeat)
                time.sleep(0.1)
                interrupt.set()
                return record
            assert interrupt.wait(10)
            return execute(problem, ctx, repeat)

        monkeypatch.setattr(pipeline, "execute_run", execute_then_interrupt)
        ctx = ctx_factory("zero_shot", max_concurrency=concurrency)
        records = run_experiment(mta_problems, ctx, repeats=2,
                                 interrupt=interrupt)
        # only the tasks already running when the event was set finish
        assert 1 <= len(records) <= concurrency
        order = [p.problem_id for p in mta_problems]
        keys = [(order.index(r.problem_id), r.repeat) for r in records]
        assert keys == sorted(keys)

    def test_fatal_error_stops_further_tasks(self, tmp_path, templates,
                                             mta_problems, monkeypatch):
        concurrency = 2
        transport = FailingTransport(fail_at=6)
        gateway = LlmGateway(
            GatewayConfig(mode="record", transcript_dir=tmp_path / "store"),
            transport,
        )
        ctx = ExperimentContext(
            PipelineConfig(mode="decisionflow", max_concurrency=concurrency),
            gateway, templates,
        )
        late = []
        execute = pipeline.execute_run

        def execute_logged(problem, ctx, repeat=0):
            if transport.failed.is_set():
                late.append(problem.problem_id)
            if problem is mta_problems[0]:
                # the first run outlasts the failing one, so every later run
                # is free to start while the failure waits to be collected
                assert transport.failed.wait(10)
                time.sleep(0.2)
            return execute(problem, ctx, repeat)

        monkeypatch.setattr(pipeline, "execute_run", execute_logged)
        with pytest.raises(BackendError):
            run_experiment(mta_problems, ctx, repeats=1)
        assert len(late) <= concurrency - 1

    @pytest.mark.parametrize("concurrency", [2, 4])
    def test_fatal_send_stops_queued_weigh_cells(self, tmp_path, templates,
                                                 dellma_problems, concurrency):
        problem = next(p for p in dellma_problems if p.n_actions == 7)
        transport = HoldingTransport()
        gateway = LlmGateway(
            GatewayConfig(mode="record", transcript_dir=tmp_path / "store"),
            transport,
        )
        ctx = ExperimentContext(
            PipelineConfig(mode="decisionflow", max_concurrency=concurrency),
            gateway, templates,
        )
        with pytest.raises(BackendError):
            run_experiment([problem], ctx)
        # of the 11 weigh cells behind the failing one, only those already
        # on their way to the backend may still be sent
        assert transport.after <= concurrency - 1

    def test_usage_additivity_against_store(self, ctx_factory,
                                            bomber_problem):
        ctx = ctx_factory("decisionflow")
        record = execute_run(bomber_problem, ctx)
        stored = [ctx.gateway.store.read(d) for d in ctx.gateway.store.digests()]
        assert sum(e["usage"]["prompt_tokens"] for e in stored) == \
            record.prompt_tokens
        assert sum(e["usage"]["response_tokens"] for e in stored) == \
            record.response_tokens
        assert len(stored) == record.llm_calls


class ScheduledTransport(ScriptedTransport):
    """Scripted backend with a seeded schedule and faults: each send sleeps
    0-4 ms, the first 0-2 sends of a digest (chosen by the seed and the
    digest) raise TransportError, every send whose prompt holds ``fault``
    raises BackendError, and send number ``interrupt_at`` sets
    ``interrupt``."""

    def __init__(self, seed, fault=None, interrupt=None, interrupt_at=None):
        super().__init__(fixture_script)
        self.seed, self.fault = seed, fault
        self.interrupt, self.interrupt_at = interrupt, interrupt_at
        self.sends = 0
        self.tries = {}  # digest -> sends made for it
        self._lock = threading.Lock()

    def send(self, request):
        digest = request.digest
        with self._lock:
            self.sends += 1
            tries = self.tries[digest] = self.tries.get(digest, 0) + 1
            if self.sends == self.interrupt_at:
                self.interrupt.set()
        time.sleep(random.Random(f"{self.seed}/{digest}/{tries}").random()
                   * 0.004)
        if self.fault is not None and self.fault in request.prompt:
            raise BackendError(f"scripted failure: {request.stage_tag} "
                               f"attempt {request.attempt}")
        if tries <= random.Random(f"{self.seed}/{digest}").randrange(3):
            raise TransportError("scripted transient failure")
        return super().send(request)


def scheduled_run(problems, templates, root, seed, mode, c, fault=None,
                  interrupt_at=None):
    """Record 2 repeats of ``problems`` into a fresh store under ``root``,
    writing each trace as `run` does. Returns the records (wall time zeroed)
    or the error line, the trace files, and (sends, live calls, cache
    hits)."""
    interrupt = threading.Event()
    transport = ScheduledTransport(seed, fault, interrupt, interrupt_at)
    gateway_ = LlmGateway(GatewayConfig(mode="record",
                                        transcript_dir=root / "store"),
                          transport)
    ctx = ExperimentContext(PipelineConfig(mode=mode, max_concurrency=c),
                            gateway_, templates)
    outcome, files = run_writing_traces(problems, ctx, interrupt,
                                        root / "traces")
    return outcome, files, (transport.sends, gateway_.live_calls,
                            gateway_.cache_hits)


def run_writing_traces(problems, ctx, interrupt, traces):
    """Run 2 repeats of ``problems``, writing each trace under ``traces`` as
    `run` does. Returns the records (wall time zeroed) or the error line,
    and the trace files by name."""
    traces.mkdir(parents=True)

    def write_trace(record):
        write_json(list(record.trace),
                   traces / f"{record.problem_id}__r{record.repeat}.json",
                   sort_keys=False)
        return replace(record, trace=(), wall_time=0.0)

    try:
        outcome = run_experiment(problems, ctx, 2, interrupt, write_trace)
    except DecisionFlowError as err:
        outcome = f"{type(err).__name__}: {err}"
    return outcome, {path.name: path.read_bytes() for path in traces.iterdir()}


@pytest.fixture(scope="module")
def scheduled_problems(mta_problems, edge_problems):
    """Four problems with a bias text each, then the two edge problems,
    which share one (a refusal and a degenerate one)."""
    return mta_problems[3:7] + edge_problems


class TestScheduleAndFaultGuard:
    """At any c, record mode gives c = 1's records, trace bytes and send
    counts; on a fault, c = 1's error and trace files; on an interrupt, trace
    files that equal c = 1's."""

    @settings(derandomize=True, max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 4),
           mode=st.sampled_from(["decisionflow", "self_consistency", "cot"]),
           fault=st.none() | st.integers(0, 3),
           interrupt_at=st.none() | st.integers(1, 40))
    # a fault after the first run: at c > 1 the first runs' traces stay
    @example(seed=0, c=2, mode="decisionflow", fault=1, interrupt_at=None)
    def test_concurrency_changes_no_outcome(self, templates,
                                            scheduled_problems, monkeypatch,
                                            seed, c, mode, fault,
                                            interrupt_at):
        monkeypatch.setattr(gateway, "BACKOFF_S", 0)
        problems = scheduled_problems
        bias = None if fault is None else problems[fault].bias_directive
        with TemporaryDirectory() as tmp:
            ref, ref_files, ref_sends = scheduled_run(
                problems, templates, Path(tmp, "ref"), seed, mode, 1, bias)
            got, files, sends = scheduled_run(
                problems, templates, Path(tmp, "got"), seed, mode, c, bias,
                interrupt_at)
        if interrupt_at is None:
            assert got == ref
            assert files == ref_files
            if fault is None:
                assert sends == ref_sends
        else:
            assert files.items() <= ref_files.items()
            if isinstance(got, str):
                assert got == ref
            elif not isinstance(ref, str):  # else got stopped before the fault
                assert all(record in ref for record in got)


def replay_run(problems, templates, store, traces, c, interrupt=None):
    """Replay 2 repeats of ``problems`` from ``store`` at c, as
    `run_writing_traces` does."""
    gateway_ = LlmGateway(GatewayConfig(mode="replay", transcript_dir=store))
    ctx = ExperimentContext(PipelineConfig(max_concurrency=c), gateway_,
                            templates)
    return run_writing_traces(problems, ctx, interrupt, traces)


@pytest.fixture(scope="module")
def recorded_store(tmp_path_factory, templates, scheduled_problems):
    """A store recorded from ``scheduled_problems``, and the trace files of
    its fault-free c = 1 replay."""
    root = tmp_path_factory.mktemp("recorded")
    gateway_ = LlmGateway(GatewayConfig(mode="record",
                                        transcript_dir=root / "store"),
                          ScriptedTransport(fixture_script))
    run_experiment(scheduled_problems,
                   ExperimentContext(PipelineConfig(), gateway_, templates), 2)
    _, files = replay_run(scheduled_problems, templates, root / "store",
                          root / "traces", 1)
    assert len(files) == 2 * len(scheduled_problems)
    return root / "store", files


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedReplayGuard:
    """Forked replay at any c, over a store with deleted and truncated
    transcripts, fails as c = 1 does and leaves its trace files; a worker
    that dies is the error instead; every trace file left is a fault-free
    replay's, also after an interrupt; and no child is left."""

    @settings(derandomize=True, max_examples=18, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 4),
           deleted=st.integers(0, 2), truncated=st.integers(0, 1),
           interrupt_at=st.none() | st.integers(1, 12),
           death=st.none() | st.tuples(st.integers(0, 11),
                                       st.sampled_from(["exit", "SIGKILL"])))
    @example(seed=0, c=2, deleted=0, truncated=0, interrupt_at=None,
             death=(5, "SIGKILL"))
    # run 0 reads the deleted transcript, and run 1, handed out with it,
    # kills its worker: the death is the error
    @example(seed=7, c=4, deleted=1, truncated=0, interrupt_at=None,
             death=(1, "SIGKILL"))
    def test_faults_fail_as_at_c1(self, templates, scheduled_problems,
                                  recorded_store, seed, c, deleted,
                                  truncated, interrupt_at, death):
        problems, (recorded, clean) = scheduled_problems, recorded_store
        names = [f"{problem.problem_id}__r{repeat}.json"
                 for repeat in range(2) for problem in problems]
        with TemporaryDirectory() as tmp:
            store = TranscriptStore(Path(tmp, "store"))
            shutil.copytree(recorded, store.root)
            rng = random.Random(seed)
            damaged = rng.sample(store.digests(), deleted + truncated)
            for digest in damaged[:deleted]:
                store.path_for(digest).unlink()
            for digest in damaged[deleted:]:
                path = store.path_for(digest)
                path.write_bytes(path.read_bytes()[:rng.randrange(64)])
            ref, ref_files = replay_run(problems, templates, store.root,
                                        Path(tmp, "ref"), 1)
            interrupt, died = threading.Event(), Path(tmp, "died")
            with pytest.MonkeyPatch.context() as patch:
                if interrupt_at is not None:  # once reply k has arrived
                    patch.setattr(pickle, "loads", loads_then_interrupt(
                        interrupt, interrupt_at))
                if death is not None and c > 1:
                    patch.setattr(pipeline, "execute_run", dies_in_run(
                        names[death[0]], death[1], died))
                got, files = replay_run(problems, templates, store.root,
                                        Path(tmp, "got"), c, interrupt)
            pid = died.read_text() if died.exists() else None
        assert ref_files.items() <= clean.items()
        assert files.items() <= clean.items()
        if interrupt_at is None:
            if pid is None:
                assert got == ref
                assert set(ref_files) <= set(files)
            else:
                status = "exit status 3" if death[1] == "exit" else "SIGKILL"
                assert got == (f"DecisionFlowError: replay worker {pid} "
                               f"died: {status}")
                assert set(ref_files) & set(names[:death[0]]) <= set(files)
        assert_no_child_left()


def loads_then_interrupt(interrupt, k):
    """`pickle.loads` that sets ``interrupt`` as it loads the k-th reply."""
    loads, replies = pickle.loads, itertools.count(1)

    def loads_counting(data):
        if next(replies) == k:
            interrupt.set()
        return loads(data)

    return loads_counting


def dies_in_run(name, how, died):
    """`execute_run` whose forked worker, in the run whose trace file is
    ``name``, writes its pid to ``died`` and then ends by ``os._exit(3)`` or
    by SIGKILL."""
    execute, parent = pipeline.execute_run, os.getpid()

    def execute_or_die(problem, ctx, repeat=0):
        if (f"{problem.problem_id}__r{repeat}.json" == name
                and os.getpid() != parent):
            died.write_text(str(os.getpid()), encoding="ascii")
            if how == "exit":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return execute(problem, ctx, repeat)

    return execute_or_die


def fork_ctx():
    """What `_fork_map` reads of a context: c and the cache hit counter."""
    return SimpleNamespace(config=SimpleNamespace(max_concurrency=2),
                           gateway=SimpleNamespace(cache_hits=0))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkMap:
    def test_results_come_back_in_item_order_with_their_hits(self):
        ctx = fork_ctx()

        def fn(item):  # every third item is slow, so replies cross
            time.sleep(0.01 if item % 3 == 0 else 0)
            ctx.gateway.cache_hits += item
            return [item] * item

        assert pipeline._fork_map(fn, list(range(10)), ctx, None) == [
            [item] * item for item in range(10)]
        assert ctx.gateway.cache_hits == 45
        assert_no_child_left()

    def test_a_set_interrupt_hands_out_nothing(self):
        interrupt = threading.Event()
        interrupt.set()
        assert pipeline._fork_map(lambda item: item, [1, 2, 3], fork_ctx(),
                                  interrupt) == [None] * 3
        assert_no_child_left()

    def test_an_unpicklable_result_is_an_error_naming_its_type(self):
        def fn(item):
            return threading.Lock() if item == 2 else item

        with pytest.raises(DecisionFlowError, match="cannot pickle a lock"):
            pipeline._fork_map(fn, list(range(5)), fork_ctx(), None)
        assert_no_child_left()

    def test_a_worker_that_exits_is_an_error_naming_its_status(self):
        def fn(item):
            return os._exit(3) if item == 2 else item

        with pytest.raises(DecisionFlowError,
                           match=r"^replay worker \d+ died: exit status 3$"):
            pipeline._fork_map(fn, list(range(5)), fork_ctx(), None)
        assert_no_child_left()

    def test_a_failing_parent_does_not_wait_on_a_blocked_reply(self):
        # the parent cannot load reply 0 while worker 1 is blocked writing
        # a reply larger than a pipe holds: closing the reply pipes before
        # reaping the workers ends that write with EPIPE instead of a hang
        child = textwrap.dedent("""
            import time
            from types import SimpleNamespace
            from decisionflow import pipeline

            def refuse():
                raise RuntimeError("cannot load this reply")

            class Unloadable:
                def __reduce__(self):
                    return refuse, ()

            def fn(item):
                if item == 0:
                    return Unloadable()
                time.sleep(0.2)
                return bytes(1 << 20)

            ctx = SimpleNamespace(config=SimpleNamespace(max_concurrency=2),
                                  gateway=SimpleNamespace(cache_hits=0))
            try:
                pipeline._fork_map(fn, [0, 1], ctx, None)
            except RuntimeError as err:
                print(err)
        """)
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (
            0, "cannot load this reply\n"), done.stderr


class TestNoCyclicGarbage:
    """Parsing and running leave no reference cycle that holds a package
    object or frame, so each run's objects die with it rather than waiting
    for the cyclic collector. Repaired completions are the case to watch:
    an error kept past its except block holds its own traceback's frame."""

    @pytest.fixture
    def cyclic_garbage(self):
        """A function listing by name the package objects and frames that
        have gone into reference cycles since the fixture began."""
        package = str(Path(pipeline.__file__).parent)

        def found():
            gc.collect()
            return [obj.f_code.co_name if isinstance(obj, FrameType)
                    else type(obj).__name__ for obj in gc.garbage
                    if type(obj).__module__.startswith("decisionflow")
                    or isinstance(obj, FrameType)
                    and obj.f_code.co_filename.startswith(package)]

        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)  # every cycle lands in gc.garbage
        try:
            yield found
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.collect()

    def test_parser_corpus(self, cyclic_garbage):
        for case in CASES:
            run_case(case)
        assert cyclic_garbage() == []

    def test_replay_of_repaired_completions(self, ctx_factory, mta_problems,
                                            cyclic_garbage):
        def trailing_commas(request):
            text = fixture_script(request)
            return text[:-1] + ",}" if request.stage_tag == "weigh" else text

        run_experiment(mta_problems, ctx_factory(script=trailing_commas))
        ctx = ctx_factory(gateway_mode="replay")
        records = run_experiment(mta_problems, ctx)
        assert any(event["kind"] == "completion"
                   and event["payload"]["text"].endswith(",}")
                   for event in records[0].trace)
        assert not any(record.abstained for record in records)
        del records
        assert cyclic_garbage() == []

    def test_cli_run(self, tmp_path, monkeypatch, cyclic_garbage):
        """The command line adds none: its parser is built once."""
        monkeypatch.chdir(REPO_ROOT)
        for _ in range(2):
            assert cli.main([
                "run", "--config",
                str(CONFIG_DIR / "replay_mta_decisionflow.json"),
                "--out", str(tmp_path / "out")]) == 0
        assert cyclic_garbage() == []


class TestKernelSweep:
    def test_sweep_makes_no_new_calls(self, ctx_factory, bomber_problem,
                                      degenerate_problem):
        problems = [bomber_problem, degenerate_problem]
        record_ctx = ctx_factory("decisionflow")
        for problem in problems:
            run_problem(problem, record_ctx)
        replay_ctx = ctx_factory("decisionflow", gateway_mode="replay")
        grid = [FilterPolicy.threshold(e) for e in (0.0, 0.1, 0.3, 0.5, 0.7)]
        settings = kernel_sweep(problems, replay_ctx, grid)
        assert replay_ctx.gateway.live_calls == 0
        assert [s.label for s in settings] == [
            "epsilon=0.0", "epsilon=0.1", "epsilon=0.3", "epsilon=0.5",
            "epsilon=0.7",
        ]
        survivors = [s.surviving_cells for s in settings]
        assert survivors == sorted(survivors, reverse=True)
        for setting in settings:
            assert set(setting.answers) == {p.problem_id for p in problems}

    def test_sweep_epsilon_zero_matches_recorded_run(self, ctx_factory,
                                                     bomber_problem):
        record_ctx = ctx_factory("decisionflow")
        recorded = run_problem(bomber_problem, record_ctx)
        replay_ctx = ctx_factory("decisionflow", gateway_mode="replay")
        (setting,) = kernel_sweep([bomber_problem], replay_ctx,
                                  [FilterPolicy.threshold(0.0)])
        assert setting.answers["mta-utilitarianism-high"] == recorded.answer
        assert setting.utilities["mta-utilitarianism-high"] == \
            pytest.approx(recorded.utilities)

    def test_top_k_grid(self, ctx_factory, bomber_problem):
        record_ctx = ctx_factory("decisionflow")
        run_problem(bomber_problem, record_ctx)
        replay_ctx = ctx_factory("decisionflow", gateway_mode="replay")
        grid = [FilterPolicy.top_k(1), FilterPolicy.top_k(2),
                FilterPolicy.none()]
        settings = kernel_sweep([bomber_problem], replay_ctx, grid)
        assert [s.label for s in settings] == ["top1", "top2", "none"]
        assert settings[0].surviving_cells == 2  # one cell per action row
        assert settings[1].surviving_cells == 4


class TestHelpers:
    def test_attribute_codes_initials_and_collisions(self):
        assert attribute_codes(("Medical condition", "Survival probability"), 2) \
            == ["MC", "SP"]
        assert attribute_codes(("Risk", "Reward"), 2) == ["R", "R2"]
        # "Risk" would take "R3" again; the suffix goes on until it is new
        assert attribute_codes(("R 3", "Rate", "Risk"), 3) == ["R3", "R", "R33"]
        assert attribute_codes(("Yield",), 2) == ["Y"]
        # at 11 actions "R1" would name R11, which "R" names too
        assert attribute_codes(("Risk", "R 1"), 11) == ["R", "R12"]
        # punctuation gives no initial; a name with no letter gives A{j+1}
        assert attribute_codes(("**Risk**", "**Cost**", "---"), 2) \
            == ["R", "C", "A3"]

    # every attribute of each case has a nonzero coefficient for every
    # action, so the terms come action-major in attribute order
    OBJECTIVE_CASES = [
        pytest.param(("Medical condition", "Survival probability"), 2,
                     id="initials"),
        pytest.param(("**Risk**", "**Cost**"), 2, id="punctuation"),
        pytest.param(("Risk", "R 1"), 11, id="R11-twice"),
        pytest.param(("R 3", "Rate", "Risk"), 40, id="R31-twice"),
    ]

    @staticmethod
    def _objective(attributes, n):
        problem = DecisionProblem("p", "s", tuple(f"a{i}" for i in range(n)))
        coefficients = [[0.5] * len(attributes) for _ in range(n)]
        return problem, render_objective(problem, attributes, coefficients)

    @pytest.mark.parametrize("attributes, n", OBJECTIVE_CASES)
    def test_objective_terms_split_into_coefficient_name_variable(
            self, attributes, n):
        _, objective = self._objective(attributes, n)
        terms = objective["term"].split(" + ")
        assert len(terms) == n * len(attributes)
        for t, term in enumerate(terms):
            coefficient, name, variable = term.split("*")
            assert coefficient == "0.5"
            assert name.isalnum(), term
            assert variable == f"x{t // len(attributes) + 1}"

    @pytest.mark.parametrize("attributes, n", OBJECTIVE_CASES)
    def test_objective_glossary_names_each_cell_once(self, attributes, n):
        problem, objective = self._objective(attributes, n)
        m = len(attributes)
        names = [term.split("*")[1] for term in objective["term"].split(" + ")]
        glossary = objective["variables"]
        assert len(set(names)) == n * m
        assert len(glossary) == len(set(names)) + n
        for t, name in enumerate(names):
            i, j = divmod(t, m)
            assert glossary[name] == (f"score of attribute {attributes[j]!r} "
                                      f"for action {problem.actions[i]!r}")

    def test_render_objective_empty_support(self, degenerate_problem):
        objective = render_objective(
            degenerate_problem, ("Expected benefit", "Risk level"),
            [[0.0, 0.0], [0.0, 0.0]],
        )
        assert objective["term"] == "0"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(mode="telepathy")
        with pytest.raises(ValueError):
            PipelineConfig(self_consistency_k=2)
        with pytest.raises(ValueError):
            PipelineConfig(filter_target="vibes")
        assert "decisionflow" in MODES
