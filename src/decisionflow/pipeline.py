"""Pipeline orchestration: the four-step structured mode, direct-prompting
baselines, ablations, and the experiment runner.

Stage tags in the trace follow the four-step layout: S1 extraction and
attribute summarization (info model), S2 weighing and sparsification, S3
grounding and objective construction, S4 selection and rationale (reasoning
model). Every prompt, completion, matrix, and the rendered objective land in
the trace as JSON-compatible events, so a run can be diffed byte for byte.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .core import (
    DecisionOutcome,
    DecisionProblem,
    FilterPolicy,
    WeightMatrix,
    select_action,
    solve_symbolic,
    sparsify_weights,
)
from .errors import InfeasibleError, StageOutputError, DecisionError
# request_digest is unused here, but perfbench/spans.py wraps it by this name
from .gateway import CompletionRequest, LlmGateway, request_digest  # noqa: F401
from .stages import (
    StageTemplate,
    parse_attribute_table,
    parse_decision,
    parse_extraction,
    parse_grounding,
    parse_weight,
    render_stage_prompt,
)

log = logging.getLogger(__name__)

# name -> (structured?, runner options). Structured modes run the four-step
# pipeline with these overrides; the others prompt for the answer directly.
MODES = {
    "decisionflow": (True, {}),
    "zero_shot": (False, {"template": "zero_shot"}),
    "cot": (False, {"template": "cot", "keep_reasoning": True}),
    "cot_with_tools": (True, {"with_rationale": False}),
    "self_consistency": (False, {"template": "zero_shot", "sampled": True}),
    "joint": (False, {"template": "joint", "keep_reasoning": True}),
    "ablate_no_filter": (True, {"policy": FilterPolicy.none()}),
    "ablate_no_scoring": (True, {"all_ones": True}),
    "ablate_both": (True, {"policy": FilterPolicy.none(), "all_ones": True}),
}

STRUCTURED_MODES = tuple(name for name, (structured, _) in MODES.items()
                         if structured)

NO_DIRECTIVE = "Choose the action that best serves the stated goal."


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "decisionflow"
    info_model: str = "info-model"
    reasoning_model: str = "reasoning-model"
    filter_policy: FilterPolicy = FilterPolicy.threshold(0.3)
    filter_target: str = "weights"  # "weights" applies the policy to w,
    # "relevance" applies it to the grounded scores instead
    temperature_deterministic: float = 0.0
    temperature_sampling: float = 0.7
    self_consistency_k: int = 3
    max_tokens: int = 4096
    max_concurrency: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.filter_target not in ("weights", "relevance"):
            raise ValueError(f"unknown filter target {self.filter_target!r}")
        if self.self_consistency_k < 1 or self.self_consistency_k % 2 == 0:
            raise ValueError("self_consistency_k must be a positive odd number")
        if self.temperature_deterministic < 0 or self.temperature_sampling < 0:
            raise ValueError("temperatures must be >= 0")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")


@dataclass
class ExperimentContext:
    config: PipelineConfig
    gateway: LlmGateway
    templates: dict[str, StageTemplate]


def _event(stage, kind, name, payload):
    return {"stage": stage, "kind": kind, "name": name, "payload": payload}


def _request(ctx, stage_tag, prompt, *, model=None, temperature=None,
             attempt=0) -> CompletionRequest:
    """A request at the configured max_tokens; the model defaults to the
    reasoning model and the temperature to the deterministic one."""
    cfg = ctx.config
    return CompletionRequest(
        model=cfg.reasoning_model if model is None else model,
        prompt=prompt,
        temperature=(cfg.temperature_deterministic if temperature is None
                     else temperature),
        max_tokens=cfg.max_tokens,
        stage_tag=stage_tag,
        attempt=attempt,
    )


def _record_call(trace, stage, name, request, completion):
    """Append the prompt and completion events of one gateway call."""
    trace.append(_event(stage, "prompt", name, request.prompt))
    trace.append(_event(stage, "completion", name, {
        "model": request.model,
        "stage_tag": request.stage_tag,
        "attempt": request.attempt,
        "digest": request.digest,
        "text": completion.text,
        "prompt_tokens": completion.prompt_tokens,
        "response_tokens": completion.response_tokens,
        "usage_approximate": completion.usage_approximate,
        "latency": completion.latency,
        "attempts": completion.attempts,
    }))


def _map(fn, items, workers):
    """[fn(item) for item in items], on a pool of ``workers`` threads when
    both exceed one."""
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _call(ctx, trace, stage, name, request):
    completion = ctx.gateway.complete(request)
    _record_call(trace, stage, name, request, completion)
    return completion


def _bullets(items) -> str:
    return "\n".join(f"- {item}" for item in items) if items else "(none)"


def _choices_block(problem: DecisionProblem) -> str:
    return "\n".join(
        f"({i + 1}) {label}" for i, label in enumerate(problem.actions)
    )


def _constraints_block(problem: DecisionProblem) -> str:
    texts = [c.source_text for c in problem.constraints]
    return "\n".join(texts) if texts else "(none)"


def _bias_text(problem: DecisionProblem) -> str:
    return problem.bias_directive or NO_DIRECTIVE


def attribute_codes(attributes) -> list[str]:
    """Short uppercase codes for attribute names, collision-free."""
    codes = []
    for j, name in enumerate(attributes):
        words = [w for w in name.replace("-", " ").split() if w]
        code = "".join(w[0].upper() for w in words) or f"A{j + 1}"
        if code in codes:
            code = f"{code}{j + 1}"
        codes.append(code)
    return codes


def render_objective(problem, attributes, coefficients) -> dict:
    """Linear objective text over x variables, plus a variable glossary."""
    codes = attribute_codes(attributes)
    terms = []
    glossary = {}
    for i, action in enumerate(problem.actions):
        glossary[f"x{i + 1}"] = f"1 if {action!r} is selected, else 0"
        for j, code in enumerate(codes):
            coeff = coefficients[i][j]
            if coeff != 0.0:
                terms.append(f"{coeff:g}*{code}{i + 1}*x{i + 1}")
                glossary[f"{code}{i + 1}"] = (
                    f"score of attribute {attributes[j]!r} for action {action!r}"
                )
    return {"term": " + ".join(terms) if terms else "0", "variables": glossary}


@dataclass(frozen=True)
class StructuredArtifacts:
    """Intermediates of a structured run, reusable by post-hoc sweeps."""

    problem: DecisionProblem
    weights: WeightMatrix
    grounded: tuple[tuple[float, ...], ...]


def run_problem(problem: DecisionProblem, ctx: ExperimentContext,
                repeat: int = 0) -> DecisionOutcome:
    """Run one problem in the configured mode.

    The trace opens with the S0 run note; a stage failure carries the partial
    trace on its ``trace`` attribute.
    """
    mode = ctx.config.mode
    structured, options = MODES[mode]
    trace: list[dict] = [
        _event("S0", "note", "run", {
            "problem_id": problem.problem_id,
            "mode": mode,
            "repeat": repeat,
            "n_actions": problem.n_actions,
        })
    ]
    try:
        if structured:
            outcome, _ = run_structured(problem, ctx, trace, **options)
            return outcome
        return _run_direct(problem, ctx, trace, repeat, **options)
    except (StageOutputError, InfeasibleError) as err:
        err.trace = tuple(trace)
        raise


def _solve(grounded, weights: WeightMatrix, policy: FilterPolicy,
           filter_target: str, constraints):
    """Symbolic selection with the policy applied to the weights or to the
    grounded relevance; returns the solution and its surviving cell count."""
    if filter_target == "weights":
        sol = solve_symbolic(grounded, weights, policy, constraints)
        return sol, sol.sparsified.support_size()
    grounded_sparse = sparsify_weights(WeightMatrix(grounded), policy)
    sol = solve_symbolic(grounded_sparse.entries, weights, FilterPolicy.none(),
                         constraints)
    return sol, grounded_sparse.support_size()


def run_structured(problem: DecisionProblem, ctx: ExperimentContext,
                   trace: list[dict], *, policy: FilterPolicy | None = None,
                   all_ones: bool = False, with_rationale: bool = True,
                   ) -> tuple[DecisionOutcome, StructuredArtifacts]:
    """The four-step structured pipeline, appending its events to ``trace``;
    returns outcome plus artifacts.

    policy/all_ones implement the ablations; with_rationale=False skips the
    final explanation call (tool-assisted reasoning mode). Deterministic
    stages always use attempt index 0, so repeats replay identically.
    """
    cfg = ctx.config
    policy = policy if policy is not None else cfg.filter_policy
    bias = _bias_text(problem)
    constraints_text = _constraints_block(problem)

    # --- S1: extract, then summarize into an attribute table (info model) ---
    completion = _call(ctx, trace, "S1", "extract_info", _request(
        ctx, "extract_info", model=cfg.info_model,
        prompt=render_stage_prompt(ctx.templates["extract_info"], {
            "scenario": problem.scenario,
            "actions": _bullets(problem.actions),
        }),
    ))
    statements = parse_extraction(completion.text, problem.actions)
    trace.append(_event("S1", "parsed", "statements", statements))
    if not statements:
        trace.append(_event("S1", "note", "degenerate_extraction",
                            "no statements extracted"))

    completion = _call(ctx, trace, "S1", "summarize_attributes", _request(
        ctx, "summarize_attributes", model=cfg.info_model,
        prompt=render_stage_prompt(ctx.templates["summarize_attributes"], {
            "actions": _bullets(problem.actions),
            "statements": _bullets(statements),
            "bias": bias,
        }),
    ))
    table = parse_attribute_table(completion.text, problem.actions)
    n, m = table.shape
    trace.append(_event("S1", "parsed", "attribute_table", {
        "attributes": list(table.attributes),
        "cells": [list(row) for row in table.verbal_grid()],
    }))

    # --- S2: weigh every cell, then sparsify (reasoning model) ---
    if all_ones:
        weights = WeightMatrix.ones(n, m)
        trace.append(_event("S2", "note", "scoring_ablated",
                            "weighing skipped; weights fixed to all ones"))
    else:
        weights = _weigh_cells(problem, ctx, table, trace, bias, constraints_text)
    trace.append(_event("S2", "matrix", "weights", _grid_payload(weights.entries)))

    # "relevance" applies the policy to the grounded scores in S4, so every
    # cell is grounded; "weights" grounds only the cells the policy keeps
    by_weights = cfg.filter_target == "weights"
    sparsified = sparsify_weights(weights, policy) if by_weights else weights
    surviving = {
        (i, j)
        for i in range(n) for j in range(m)
        if not by_weights or sparsified.entries[i][j] != 0.0
    }
    trace.append(_event("S2", "matrix", "weights_sparsified",
                        _grid_payload(sparsified.entries)))

    # --- S3: render the objective and ground surviving cells numerically ---
    objective = render_objective(problem, table.attributes, sparsified.entries)
    trace.append(_event("S3", "objective", "objective", objective))

    cells_payload = {
        "Cells": [
            {
                "Variable": problem.actions[i],
                "Attribute": table.attributes[j],
                "Value": table.cells[i][j].verbal,
            }
            for i in range(n) for j in range(m)
            if (i, j) in surviving and table.cells[i][j].mentioned
        ]
    }
    if not cells_payload["Cells"]:
        grounded = tuple(tuple(0.0 for _ in range(m)) for _ in range(n))
        trace.append(_event("S3", "note", "grounding_skipped",
                            "no surviving cells to score"))
    else:
        completion = _call(ctx, trace, "S3", "ground_and_decide", _request(
            ctx, "ground_and_decide",
            prompt=render_stage_prompt(ctx.templates["ground_and_decide"], {
                "bias": bias,
                "actions": _bullets(problem.actions),
                "objective": objective["term"],
                "variables": json.dumps(objective["variables"], indent=2,
                                        ensure_ascii=False),
                "constraints": constraints_text,
                "cells": json.dumps(cells_payload, indent=2, ensure_ascii=False),
            }),
        ))
        grounded = parse_grounding(completion.text, table, surviving)
    trace.append(_event("S3", "matrix", "relevance_grounded",
                        _grid_payload(grounded)))

    # --- S4: symbolic selection, then the rationale (reasoning model) ---
    sol, _ = _solve(grounded, weights, policy, cfg.filter_target,
                    problem.constraints)
    trace.append(_event("S4", "matrix", "relevance_filtered",
                        _grid_payload(sol.filtered.entries)))
    trace.append(_event("S4", "note", "feasible", sorted(sol.feasible)))
    trace.append(_event("S4", "parsed", "utilities", list(sol.utilities)))
    trace.append(_event("S4", "parsed", "answer", sol.answer))
    degenerate = m == 0 or all(u == 0.0 for u in sol.utilities)
    if degenerate:
        trace.append(_event("S4", "note", "degenerate",
                            "all utilities are zero; answer is the tie-break"))

    rationale = ""
    if with_rationale:
        rationale = _rationale_call(problem, ctx, table, sol, trace, bias)

    outcome = DecisionOutcome(
        answer=sol.answer, utilities=sol.utilities, rationale=rationale,
        trace=tuple(trace),
    )
    return outcome, StructuredArtifacts(problem, weights, grounded)


def _grid_payload(entries):
    return [list(row) for row in entries]


def _weigh_cells(problem, ctx, table, trace, bias, constraints_text) -> WeightMatrix:
    """One weigh call per (action, attribute) cell, row-major.

    Calls may run concurrently; trace events are emitted in row-major order
    regardless, so the trace bytes do not depend on the concurrency setting.
    """
    n, m = table.shape
    cells = [(i, j) for i in range(n) for j in range(m)]
    requests = [
        _request(ctx, "weigh", render_stage_prompt(
            ctx.templates["weigh"], {
                "bias": bias,
                "constraints": constraints_text,
                "action": problem.actions[i],
                "attribute": table.attributes[j],
                "verbal": table.cells[i][j].verbal,
            }))
        for (i, j) in cells
    ]
    completions = _map(ctx.gateway.complete, requests,
                       ctx.config.max_concurrency)

    rows = [[0.0] * m for _ in range(n)]
    for (i, j), request, completion in zip(cells, requests, completions):
        name = f"weigh[{i},{j}]"
        _record_call(trace, "S2", name, request, completion)
        explanation, weight = parse_weight(completion.text)
        trace.append(_event("S2", "parsed", name,
                            {"explanation": explanation, "weight": weight}))
        rows[i][j] = weight
    return WeightMatrix(tuple(tuple(row) for row in rows))


def _rationale_call(problem, ctx, table, sol, trace, bias) -> str:
    utilities_text = "; ".join(
        f"{label}: {u:.6g}" for label, u in zip(problem.actions, sol.utilities)
    )
    ranked = sorted(sol.feasible, key=lambda i: (-sol.utilities[i], i))
    runner_up = problem.actions[ranked[1]] if len(ranked) > 1 else "(none)"
    contributions = [
        (sol.filtered.entries[sol.answer][j], j)
        for j in range(len(table.attributes))
        if sol.filtered.entries[sol.answer][j] != 0.0
    ]
    contributions.sort(key=lambda t: (-t[0], t[1]))
    influential = _bullets([
        f"{table.attributes[j]} = {table.cells[sol.answer][j].verbal} "
        f"(contribution {value:.6g})"
        for value, j in contributions[:3]
    ])
    excluded = frozenset(range(problem.n_actions)) - sol.feasible
    active = _bullets([
        c.source_text
        for c in problem.constraints
        if (c.kind == "exclusion" and c.action in excluded)
        or (c.kind == "cardinality" and c.limit == 0 and set(c.over) & excluded)
    ]) if excluded else "(none)"

    completion = _call(ctx, trace, "S4", "rationale", _request(
        ctx, "rationale",
        prompt=render_stage_prompt(ctx.templates["rationale"], {
            "scenario": problem.scenario,
            "actions": _bullets(problem.actions),
            "bias": bias,
            "utilities": utilities_text,
            "winner": problem.actions[sol.answer],
            "runner_up": runner_up,
            "influential": influential,
            "active_constraints": active,
        }),
    ))
    rationale = completion.text.strip()
    trace.append(_event("S4", "parsed", "rationale", rationale))
    return rationale


def _run_direct(problem: DecisionProblem, ctx: ExperimentContext,
                trace: list[dict], repeat: int, *, template: str,
                keep_reasoning: bool = False,
                sampled: bool = False) -> DecisionOutcome:
    """Direct prompting over the numbered choices, tagged with the mode name.

    One completion answers (zero_shot, cot, joint), or with sampled=True k
    votes at the sampling temperature do (self_consistency).
    """
    cfg = ctx.config
    prompt = render_stage_prompt(ctx.templates[template], {
        "scenario": problem.scenario,
        "bias": _bias_text(problem),
        "choices": _choices_block(problem),
    })
    if sampled:
        return _self_consistency(problem, ctx, prompt, trace, repeat)
    completion = _call(ctx, trace, "S4", cfg.mode,
                       _request(ctx, cfg.mode, prompt))
    reasoning, answer = parse_decision(completion.text, problem.n_actions,
                                       index_base=1)
    trace.append(_event("S4", "parsed", "answer", answer))
    utilities = tuple(
        1.0 if i == answer else 0.0 for i in range(problem.n_actions)
    )
    return DecisionOutcome(
        answer=answer, utilities=utilities,
        rationale=reasoning if keep_reasoning else "",
        trace=tuple(trace),
    )


def _self_consistency(problem, ctx, prompt, trace, repeat) -> DecisionOutcome:
    """k sampled votes at the sampling temperature; majority wins, ties go to
    the lowest action index, abstaining samples leave the denominator."""
    cfg = ctx.config
    k = cfg.self_consistency_k
    votes = [0.0] * problem.n_actions
    abstained = 0
    for s in range(k):
        completion = _call(ctx, trace, "S4", f"sample[{s}]", _request(
            ctx, "self_consistency", prompt,
            temperature=cfg.temperature_sampling, attempt=repeat * k + s,
        ))
        try:
            _, answer = parse_decision(completion.text, problem.n_actions,
                                       index_base=1)
        except StageOutputError as err:
            abstained += 1
            trace.append(_event("S4", "note", f"sample[{s}]_abstained",
                                type(err).__name__))
            continue
        votes[answer] += 1.0
        trace.append(_event("S4", "parsed", f"sample[{s}]", answer))
    if abstained == k:
        raise DecisionError(f"all {k} self-consistency samples abstained")
    trace.append(_event("S4", "parsed", "votes", votes))
    answer = select_action(votes, frozenset(range(problem.n_actions)))
    trace.append(_event("S4", "parsed", "answer", answer))
    return DecisionOutcome(
        answer=answer, utilities=tuple(votes), rationale="", trace=tuple(trace)
    )


@dataclass(frozen=True)
class RunRecord:
    """Bookkeeping for one (problem, repeat) execution."""

    problem_id: str
    mode: str
    repeat: int
    answer: int | None
    abstained: bool
    error: str | None
    prompt_tokens: int
    response_tokens: int
    llm_calls: int
    latency_total: float
    wall_time: float
    usage_approximate: bool
    trace: tuple[dict, ...] = field(repr=False, default=())


def usage_totals(trace) -> tuple[int, int, int, float, bool]:
    """Sum usage over the completion events of a trace."""
    prompt_tokens = response_tokens = calls = 0
    latency = 0.0
    approximate = False
    for event in trace:
        if event.get("kind") != "completion":
            continue
        payload = event["payload"]
        prompt_tokens += payload["prompt_tokens"]
        response_tokens += payload["response_tokens"]
        latency += payload["latency"]
        calls += 1
        approximate = approximate or payload.get("usage_approximate", False)
    return prompt_tokens, response_tokens, calls, latency, approximate


def execute_run(problem: DecisionProblem, ctx: ExperimentContext,
                repeat: int = 0) -> RunRecord:
    """Run one problem; stage failures become abstention records."""
    started = time.perf_counter()
    try:
        outcome = run_problem(problem, ctx, repeat)
        trace = outcome.trace
        answer = outcome.answer
        abstained = answer is None
        error = None
    except (StageOutputError, InfeasibleError) as err:
        trace = getattr(err, "trace", ())
        answer = None
        abstained = True
        error = type(err).__name__
        log.warning("run %s (%s, repeat %d) abstained: %s",
                    problem.problem_id, ctx.config.mode, repeat, err)
    wall = time.perf_counter() - started
    prompt_tokens, response_tokens, calls, latency, approximate = usage_totals(trace)
    return RunRecord(
        problem_id=problem.problem_id,
        mode=ctx.config.mode,
        repeat=repeat,
        answer=answer,
        abstained=abstained,
        error=error,
        prompt_tokens=prompt_tokens,
        response_tokens=response_tokens,
        llm_calls=calls,
        latency_total=latency,
        wall_time=wall,
        usage_approximate=approximate,
        trace=tuple(trace),
    )


def run_experiment(problems, ctx: ExperimentContext, repeats: int = 1,
                   interrupt=None) -> list[RunRecord]:
    """Execute repeats x problems, optionally across a bounded thread pool.

    Tasks start repeat-major: every problem's repeat 0 before any repeat 1.
    The deterministic stages of a later repeat send the same requests as
    repeat 0, so they find those transcripts in the store, and concurrent
    workers spend their time on distinct problems. Results come back ordered
    by (problem order, repeat). `interrupt` is an optional threading.Event:
    once it is set no further task starts, tasks already running finish, and
    the records of the finished tasks are returned, in that same order.
    """
    # (problem index, repeat), in start order
    tasks = [(index, repeat) for repeat in range(repeats)
             for index in range(len(problems))]

    def run(task):
        if interrupt is not None and interrupt.is_set():
            return None
        index, repeat = task
        return execute_run(problems[index], ctx, repeat)

    results = _map(run, tasks, ctx.config.max_concurrency)
    return [record for _, record in sorted(zip(tasks, results),
                                           key=lambda pair: pair[0])
            if record is not None]


@dataclass(frozen=True)
class SweepSetting:
    """Post-hoc kernel re-solve of recorded runs under one filter policy."""

    label: str
    policy: FilterPolicy
    answers: dict[str, int]
    utilities: dict[str, tuple[float, ...]]
    surviving_cells: int


def kernel_sweep(problems, ctx: ExperimentContext,
                 policies) -> list[SweepSetting]:
    """Replay each problem once in the configured structured mode (one of
    STRUCTURED_MODES), then re-run
    only the symbolic kernel per policy. No policy in the grid triggers any
    new LLM call: filtering is post-hoc on the recorded weights and grounded
    relevance."""
    _, options = MODES[ctx.config.mode]
    artifacts = [run_structured(problem, ctx, [], **options)[1]
                 for problem in problems]

    settings = []
    for policy in policies:
        answers = {}
        utilities = {}
        surviving = 0
        for art in artifacts:
            sol, support = _solve(
                art.grounded, art.weights, policy, ctx.config.filter_target,
                art.problem.constraints,
            )
            surviving += support
            answers[art.problem.problem_id] = sol.answer
            utilities[art.problem.problem_id] = sol.utilities
        settings.append(SweepSetting(
            label=policy.label(), policy=policy, answers=answers,
            utilities=utilities, surviving_cells=surviving,
        ))
    return settings
