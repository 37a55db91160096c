"""Acceptance gates.

Ten checks pin the package's deterministic behavior end to end: kernel
correctness against brute force, the worked triage example from the bundled
replay corpus, frozen metric arithmetic, sweep replay closure, majority-vote
properties, byte-level determinism, bulk invariant trials, usage accounting,
parser robustness, and an optional live-backend smoke test. Each check is a
single test, so the -v report shows one pass/fail line per gate. Tolerances
are pinned inline; everything except the live smoke test runs offline.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from conftest import CONFIG_DIR, CORPUS_DIR, DATASET_DIR, REPO_ROOT
from decisionflow import cli
from decisionflow.core import (
    FilterPolicy,
    WeightMatrix,
    feasible_actions,
    parse_constraint,
    select_action,
    solve_symbolic,
    sparsify_weights,
)
from decisionflow.datasets import MtaRecord, PredictionRow, load_dataset
from decisionflow.errors import (
    AlignmentError,
    AnswerRangeError,
    CompletenessError,
    OutputParseError,
    SchemaError,
)
from decisionflow.gateway import GatewayConfig, LlmGateway, TranscriptStore
from decisionflow.metrics import (
    accuracy_percent,
    average_accuracy,
    bias_score,
    evaluate,
    format_2dp,
    usage_summary,
)
from decisionflow.pipeline import (
    ExperimentContext,
    PipelineConfig,
    execute_run,
    kernel_sweep,
    run_problem,
)
from decisionflow.stages import load_templates
from parser_corpus import CASES, run_case
from test_core import constraint_lines, oracle_solve, random_instance

UTILITY_TOLERANCE = 1e-9
METRIC_TOLERANCE = 0.01

REPLAY_CONFIGS = (
    "replay_mta_decisionflow.json",
    "replay_mta_zero_shot.json",
    "replay_mta_cot.json",
    "replay_mta_self_consistency.json",
    "replay_mta_joint.json",
    "replay_mta_cot_with_tools.json",
    "replay_dellma_decisionflow.json",
    "replay_edge_zero_shot.json",
    "replay_edge_decisionflow.json",
)


def _replay_context(mode="decisionflow", policy=None, **cfg):
    config = PipelineConfig(
        mode=mode,
        filter_policy=policy or FilterPolicy.threshold(0.3),
        **cfg,
    )
    gateway = LlmGateway(GatewayConfig(mode="replay",
                                       transcript_dir=CORPUS_DIR))
    return ExperimentContext(config, gateway, load_templates())


def _mta_problems():
    from decisionflow.datasets import problems_from_records

    records = load_dataset(DATASET_DIR / "mta_small.jsonl", "mta")
    return problems_from_records(records, "mta")


def test_kernel_matches_enumeration_oracle_on_1000_instances():
    rng = random.Random(1009)
    started = time.perf_counter()
    for _ in range(1000):
        relevance, weights, policy, constraints, excluded, n = \
            random_instance(rng)
        solution = solve_symbolic(relevance, WeightMatrix(weights), policy,
                                  constraints)
        want_answer, want_utility = oracle_solve(relevance, weights, policy,
                                                 excluded, n)
        assert solution.answer == want_answer
        assert solution.utilities[want_answer] == want_utility
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"kernel/oracle comparison took {elapsed:.2f}s"


def test_case_study_replay_reproduces_utilities_and_choice():
    ctx = _replay_context()
    problem = next(p for p in _mta_problems()
                   if p.problem_id == "mta-utilitarianism-high")
    outcome = run_problem(problem, ctx)
    assert outcome.utilities[0] == pytest.approx(0.625, abs=UTILITY_TOLERANCE)
    assert outcome.utilities[1] == pytest.approx(1.62, abs=UTILITY_TOLERANCE)
    assert problem.actions[outcome.answer] == "Treat the bomber"
    assert ctx.gateway.live_calls == 0


def test_metric_arithmetic_reproduces_frozen_targets():
    # helper-level arithmetic
    high = accuracy_percent([True] * 181 + [False] * 19)
    low = accuracy_percent([True] * 136 + [False] * 64)
    assert high == pytest.approx(90.50, abs=METRIC_TOLERANCE)
    assert low == pytest.approx(68.00, abs=METRIC_TOLERANCE)
    assert average_accuracy(high, low) == pytest.approx(79.25,
                                                        abs=METRIC_TOLERANCE)
    assert bias_score(high, low) == pytest.approx(22.50, abs=METRIC_TOLERANCE)
    assert bias_score(85.50, 14.50) == pytest.approx(71.00,
                                                     abs=METRIC_TOLERANCE)
    assert (format_2dp(high), format_2dp(low)) == ("90.50", "68.00")

    # full evaluate() path over a synthetic 400-record dataset
    records = []
    predictions = []
    for side, n_correct in (("high", 181), ("low", 136)):
        for i in range(200):
            record_id = f"synth-{side}-{i:03d}"
            records.append(MtaRecord(
                record_id=record_id,
                scenario="A synthetic scenario used for arithmetic checks.",
                choices=(f"Option one {record_id}", f"Option two {record_id}"),
                dma="fairness",
                alignment=side,
                bias_text="Weigh fairness as instructed.",
                gold=0,
            ))
            predictions.append(PredictionRow(
                record_id=record_id, mode="decisionflow", repeat=0,
                answer=0 if i < n_correct else 1,
            ))
    report = evaluate(predictions, records, "mta")
    alignment = report["alignment"]
    assert alignment["high"]["mean"] == pytest.approx(90.50,
                                                      abs=METRIC_TOLERANCE)
    assert alignment["low"]["mean"] == pytest.approx(68.00,
                                                     abs=METRIC_TOLERANCE)
    assert alignment["average"]["mean"] == pytest.approx(79.25,
                                                         abs=METRIC_TOLERANCE)
    assert alignment["bias"]["mean"] == pytest.approx(22.50,
                                                      abs=METRIC_TOLERANCE)


def test_filter_sweep_replays_with_zero_new_calls():
    ctx = _replay_context()
    problems = _mta_problems()
    grid = [FilterPolicy.threshold(e) for e in (0.0, 0.1, 0.3, 0.5, 0.7)]
    settings = kernel_sweep(problems, ctx, grid)
    assert ctx.gateway.live_calls == 0
    survivors = [s.surviving_cells for s in settings]
    assert survivors == sorted(survivors, reverse=True)
    assert all(len(s.answers) == len(problems) for s in settings)


def test_self_consistency_majority_properties_and_transcripts():
    # hand-computed majorities over 100 random vote triples, k = 3
    rng = random.Random(735)
    for _ in range(100):
        n = rng.randint(2, 5)
        triple = [rng.randrange(n) for _ in range(3)]
        counts = [0.0] * n
        for vote in triple:
            counts[vote] += 1.0
        best = max(counts)
        hand_majority = min(i for i, c in enumerate(counts) if c == best)
        assert select_action(counts, frozenset(range(n))) == hand_majority
        for permuted in itertools.permutations(triple):
            permuted_counts = [0.0] * n
            for vote in permuted:
                permuted_counts[vote] += 1.0
            assert permuted_counts == counts
            assert select_action(tuple(permuted_counts),
                                 frozenset(range(n))) == hand_majority

    # every recorded sampling request: temperature 0.7, attempts 0..2
    store = TranscriptStore(CORPUS_DIR)
    sampled = [
        store.read(digest) for digest in store.digests()
        if store.read(digest)["request"]["stage_tag"] == "self_consistency"
    ]
    assert sampled, "corpus holds no sampling transcripts"
    by_prompt: dict[str, set[int]] = {}
    for entry in sampled:
        request = entry["request"]
        assert request["temperature"] == 0.7
        assert request["attempt"] in (0, 1, 2)
        by_prompt.setdefault(request["prompt"], set()).add(request["attempt"])
    assert all(attempts == {0, 1, 2} for attempts in by_prompt.values())


def test_full_fixture_suite_replays_byte_identically(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)

    def replay_all(base: Path):
        codes = {}
        for name in REPLAY_CONFIGS:
            out = base / name.replace(".json", "")
            codes[name] = cli.main([
                "run", "--config", str(CONFIG_DIR / name), "--out", str(out),
            ])
            config = json.loads((CONFIG_DIR / name).read_text())
            assert cli.main([
                "eval", "--predictions", str(out / "predictions.jsonl"),
                "--dataset", config["dataset"],
                "--dataset-kind", config["dataset_kind"],
                "--out", str(out),
            ]) == 0
        return codes

    codes_a = replay_all(tmp_path / "a")
    codes_b = replay_all(tmp_path / "b")
    assert codes_a == codes_b
    assert set(codes_a.values()) <= {0, 2}
    assert codes_a["replay_edge_zero_shot.json"] == 2  # recorded refusal

    compared = 0
    for name in REPLAY_CONFIGS:
        stem = name.replace(".json", "")
        dir_a = tmp_path / "a" / stem
        dir_b = tmp_path / "b" / stem
        for relative in ("predictions.jsonl", "report.json", "report.md"):
            assert (dir_a / relative).read_bytes() == \
                (dir_b / relative).read_bytes(), f"{stem}/{relative}"
            compared += 1
        traces = sorted((dir_a / "traces").glob("*.json"))
        assert traces
        for trace_a in traces:
            trace_b = dir_b / "traces" / trace_a.name
            assert trace_a.read_bytes() == trace_b.read_bytes(), trace_a.name
            compared += 1
    assert compared > 100


def test_invariant_suites_hold_over_bulk_random_trials():
    rng = random.Random(90210)
    trials = 10_000

    def dyadic():
        return rng.randrange(0, 65) / 64.0

    def random_policy():
        roll = rng.random()
        if roll < 0.4:
            return FilterPolicy.threshold(dyadic())
        if roll < 0.8:
            return FilterPolicy.top_k(rng.randint(1, 4))
        return FilterPolicy.none()

    def random_grids():
        n, m = rng.randint(2, 5), rng.randint(1, 5)
        relevance = tuple(tuple(dyadic() for _ in range(m)) for _ in range(n))
        weights = WeightMatrix(tuple(
            tuple(dyadic() for _ in range(m)) for _ in range(n)))
        return relevance, weights

    started = time.perf_counter()

    for _ in range(trials):  # sparsification is idempotent
        _, weights = random_grids()
        policy = random_policy()
        once = sparsify_weights(weights, policy)
        assert sparsify_weights(once, policy).entries == once.entries

    for _ in range(trials):  # filtering only shrinks the support
        _, weights = random_grids()
        policy = random_policy()
        sparse = sparsify_weights(weights, policy)
        n, m = weights.shape
        for i in range(n):
            for j in range(m):
                if sparse.entries[i][j] != 0.0:
                    assert sparse.entries[i][j] == weights.entries[i][j]
            if policy.kind == "top_k":
                surviving = sum(1 for v in sparse.entries[i] if v != 0.0)
                assert surviving <= policy.k

    for _ in range(trials):  # rescaling relevance by 2**e keeps the argmax
        relevance, weights = random_grids()
        policy = random_policy()
        base = solve_symbolic(relevance, weights, policy, ())
        exponent = rng.randint(-3, 3)
        scaled = tuple(tuple(v * 2.0 ** exponent for v in row)
                       for row in relevance)
        assert solve_symbolic(scaled, weights, policy, ()).answer == base.answer

    for _ in range(trials):  # zero-weight columns are neutral
        relevance, weights = random_grids()
        policy = FilterPolicy.none()
        base = solve_symbolic(relevance, weights, policy, ())
        padded_relevance = tuple(row + (dyadic(),) for row in relevance)
        padded_weights = WeightMatrix(tuple(
            row + (0.0,) for row in weights.entries))
        padded = solve_symbolic(padded_relevance, padded_weights, policy, ())
        assert padded.answer == base.answer
        assert padded.utilities == base.utilities

    for _ in range(trials):  # the selected action is always feasible
        relevance, weights = random_grids()
        n = weights.shape[0]
        excluded = [i for i in range(n) if rng.random() < 0.4][: n - 1]
        constraints = tuple(parse_constraint(line)
                            for line in constraint_lines(excluded, n, rng))
        solution = solve_symbolic(relevance, weights, random_policy(),
                                  constraints)
        feasible = feasible_actions(constraints, n)
        assert feasible == set(range(n)) - set(excluded)
        assert solution.answer in feasible

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"bulk invariant trials took {elapsed:.2f}s"


def test_runtime_accounting_is_exact_and_additive():
    # frozen means over constructed run records
    from types import SimpleNamespace

    runs = [SimpleNamespace(prompt_tokens=319, response_tokens=183,
                            latency_total=2.22, llm_calls=8,
                            usage_approximate=False) for _ in range(9)]
    runs.append(SimpleNamespace(prompt_tokens=320, response_tokens=182,
                                latency_total=2.22, llm_calls=8,
                                usage_approximate=False))
    summary = usage_summary(runs)
    assert summary.mean_prompt_tokens == 319.10
    assert summary.mean_response_tokens == 182.90
    assert summary.mean_latency == pytest.approx(2.22, abs=1e-12)
    assert summary.total_calls == 80

    # additivity on every replayed run: record totals == sum of its trace
    # completions == sum of the stored transcripts it touched
    ctx = _replay_context()
    store = ctx.gateway.store
    for problem in _mta_problems():
        record = execute_run(problem, ctx)
        events = [e for e in record.trace if e["kind"] == "completion"]
        assert record.llm_calls == len(events)
        assert record.prompt_tokens == sum(
            e["payload"]["prompt_tokens"] for e in events)
        assert record.response_tokens == sum(
            e["payload"]["response_tokens"] for e in events)
        stored = [store.read(e["payload"]["digest"]) for e in events]
        assert record.prompt_tokens == sum(
            s["usage"]["prompt_tokens"] for s in stored)
        assert record.response_tokens == sum(
            s["usage"]["response_tokens"] for s in stored)
        assert record.latency_total == pytest.approx(
            math.fsum(s["latency"] for s in stored), abs=1e-9)


def test_parser_corpus_yields_documented_outcomes():
    assert len(CASES) >= 30
    documented_errors = {case.error for case in CASES
                         if case.error is not None}
    assert {AlignmentError, AnswerRangeError, CompletenessError,
            OutputParseError, SchemaError} <= documented_errors
    assert sum(1 for case in CASES if case.error is None) >= 10
    for case in CASES:
        run_case(case)  # asserts the typed result or documented error class


@pytest.mark.live
def test_live_backend_smoke_completes_all_stages(tmp_path):
    base_url = os.environ.get("DECISIONFLOW_BASE_URL")
    if not base_url:
        pytest.skip("DECISIONFLOW_BASE_URL not configured")
    model = os.environ.get("DECISIONFLOW_MODEL", "gpt-4o-mini")
    config = PipelineConfig(mode="decisionflow", info_model=model,
                            reasoning_model=model)
    gateway = LlmGateway(GatewayConfig(
        mode="record", transcript_dir=tmp_path / "live", base_url=base_url))
    ctx = ExperimentContext(config, gateway, load_templates())
    problem = _mta_problems()[0]
    outcome = run_problem(problem, ctx)
    assert outcome.answer in range(problem.n_actions)
    stages = {e["stage"] for e in outcome.trace if e["kind"] == "completion"}
    assert {"S1", "S2", "S3", "S4"} <= stages
