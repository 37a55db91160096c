"""Every replayed trace checks against its own numbers.

For each bundled config, the run is replayed and its traces are audited
without trusting the pipeline: the S4 selection of a structured run is
recomputed from the trace's own S2 weights and S3 grounded relevance, the
rationale prompt must name the winner and runner-up those utilities imply, and
the manifest's usage figures must be the sums of the trace's completions.
"""

from __future__ import annotations

import json

import pytest

from conftest import CONFIG_DIR, REPO_ROOT
from decisionflow import cli
from decisionflow.core import (
    FilterPolicy,
    WeightMatrix,
    solve_symbolic,
    sparsify_weights,
)
from decisionflow.datasets import load_dataset, problems_from_records
from decisionflow.pipeline import MODES, usage_totals

CONFIGS = sorted(p.name for p in CONFIG_DIR.glob("*.json"))


def _event(trace, stage, kind, name):
    (payload,) = [e["payload"] for e in trace
                  if (e["stage"], e["kind"], e["name"]) == (stage, kind, name)]
    return payload


def _replay(config_name, tmp_path, monkeypatch):
    """Replay a bundled config; returns (manifest, traces by run, problems)."""
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(CONFIG_DIR / config_name),
                     "--out", str(out)]) in (cli.EXIT_OK, cli.EXIT_PARTIAL)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    traces = {
        (run["id"], run["repeat"]): json.loads(
            (out / "traces" / f"{run['id']}__r{run['repeat']}.json")
            .read_text(encoding="utf-8"))
        for run in manifest["runs"]
    }
    resolved = manifest["config"]
    records = load_dataset(resolved["dataset"], resolved["dataset_kind"])
    problems = problems_from_records(records, resolved["dataset_kind"])
    return manifest, traces, {p.problem_id: p for p in problems}


def _check_structured(trace, problem, policy: FilterPolicy,
                      filter_target: str, with_rationale: bool):
    weights = WeightMatrix(tuple(
        tuple(row) for row in _event(trace, "S2", "matrix", "weights")))
    grounded = tuple(
        tuple(row) for row in _event(trace, "S3", "matrix",
                                     "relevance_grounded"))
    if filter_target == "weights":
        sol = solve_symbolic(grounded, weights, policy, problem.constraints)
    else:
        grounded = sparsify_weights(WeightMatrix(grounded), policy).entries
        sol = solve_symbolic(grounded, weights, FilterPolicy.none(),
                             problem.constraints)

    assert _event(trace, "S4", "matrix", "relevance_filtered") == \
        [list(row) for row in sol.filtered.entries]
    assert _event(trace, "S4", "note", "feasible") == sorted(sol.feasible)
    assert _event(trace, "S4", "parsed", "utilities") == list(sol.utilities)
    assert _event(trace, "S4", "parsed", "answer") == sol.answer

    if with_rationale:
        ranked = sorted(sol.feasible, key=lambda i: (-sol.utilities[i], i))
        runner_up = problem.actions[ranked[1]] if len(ranked) > 1 else "(none)"
        prompt = _event(trace, "S4", "prompt", "rationale")
        assert f'Selected action: "{problem.actions[sol.answer]}"' in prompt
        assert f'Runner-up: "{runner_up}"' in prompt


@pytest.mark.parametrize("config_name", CONFIGS)
def test_trace_matches_its_own_numbers(config_name, tmp_path, monkeypatch):
    manifest, traces, problems = _replay(config_name, tmp_path, monkeypatch)
    resolved = manifest["config"]
    structured, options = MODES[resolved["mode"]]
    policy = options.get("policy", FilterPolicy(**resolved["filter"]))
    checked = 0
    for run in manifest["runs"]:
        trace = traces[run["id"], run["repeat"]]
        prompt_tokens, response_tokens, calls, _, _ = usage_totals(trace)
        assert (calls, prompt_tokens, response_tokens) == \
            (run["llm_calls"], run["prompt_tokens"], run["response_tokens"])
        if structured and not run["abstained"]:
            _check_structured(trace, problems[run["id"]], policy,
                              resolved["filter_target"],
                              options.get("with_rationale", True))
            checked += 1
    assert checked > 0 or not structured

