"""Pipeline orchestration: the four-step structured mode, direct-prompting
baselines, ablations, and the experiment runner.

Stage tags in the trace follow the four-step layout: S1 extraction and
attribute summarization (info model), S2 weighing and sparsification, S3
grounding and objective construction, S4 selection and rationale (reasoning
model). Every prompt, completion, matrix, and the rendered objective land in
the trace as JSON-compatible events, so a run can be diffed byte for byte.
"""

from __future__ import annotations

import logging
import os
import signal
import struct
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from .core import (
    DecisionOutcome,
    DecisionProblem,
    FilterPolicy,
    WeightMatrix,
    select_action,
    solve_symbolic,
    sparsify_weights,
)
from .datasets import dumps_indented
from .errors import (
    DecisionError,
    DecisionFlowError,
    InfeasibleError,
    StageOutputError,
)
from .gateway import DEFAULT_MAX_TOKENS, CompletionRequest, LlmGateway
# request_digest is unused here, but perfbench/spans.py wraps it by this name
from .gateway import request_digest  # noqa: F401
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
# pipeline with these overrides; the others prompt with their own template.
MODES = {
    "decisionflow": (True, {}),
    "zero_shot": (False, {}),
    "cot": (False, {}),
    "cot_with_tools": (True, {"with_rationale": False}),
    "self_consistency": (False, {"sampled": True}),
    "joint": (False, {}),
    "ablate_no_filter": (True, {"policy": FilterPolicy.none()}),
    "ablate_no_scoring": (True, {"all_ones": True}),
    "ablate_both": (True, {"policy": FilterPolicy.none(), "all_ones": True}),
}

STRUCTURED_MODES = tuple(name for name, (structured, _) in MODES.items()
                         if structured)

# "weights" applies the filter policy to w, "relevance" applies it to the
# grounded scores instead
FILTER_TARGETS = ("weights", "relevance")

NO_DIRECTIVE = "Choose the action that best serves the stated goal."

# errors that end one run as an abstention; every other error is fatal
ABSTENTIONS = (StageOutputError, InfeasibleError)


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "decisionflow"
    info_model: str = "info-model"
    reasoning_model: str = "reasoning-model"
    filter_policy: FilterPolicy = FilterPolicy.threshold(0.3)
    filter_target: str = "weights"  # one of FILTER_TARGETS
    temperature_deterministic: float = 0.0
    temperature_sampling: float = 0.7
    self_consistency_k: int = 3
    max_tokens: int = DEFAULT_MAX_TOKENS
    # c: in record mode at most c runs, and c weigh calls per run, at once on
    # one pool, c * c threads in all (the gateway separately caps sends at
    # MAX_IN_FLIGHT); replay runs c runs at once in c forked processes
    max_concurrency: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.filter_target not in FILTER_TARGETS:
            raise ValueError(f"unknown filter target {self.filter_target!r}")
        if self.self_consistency_k < 1 or self.self_consistency_k % 2 == 0:
            raise ValueError("self_consistency_k must be a positive odd number")
        if self.temperature_deterministic < 0 or self.temperature_sampling < 0:
            raise ValueError("temperatures must be >= 0")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if not 1 <= self.max_tokens <= DEFAULT_MAX_TOKENS:
            raise ValueError(f"max_tokens must be in 1..{DEFAULT_MAX_TOKENS}, "
                             f"not {self.max_tokens}")


@dataclass
class ExperimentContext:
    config: PipelineConfig
    gateway: LlmGateway
    templates: dict[str, StageTemplate]
    pool: ThreadPoolExecutor | None = None  # set by run_experiment only


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


def _map(fn, items, ctx, then=lambda result: result):
    """[then(fn(item)) for item in items]. Serial without ``ctx.pool``;
    with it, at most max_concurrency items run at once: the calling thread
    and helper tasks on the pool take items from one shared iterator, and the
    caller cancels each helper no thread has started rather than wait on it,
    so maps nested in the one pool cannot deadlock. ``then`` runs on the
    calling thread in item order: right after each item when serial, once
    every item has finished otherwise, since encoding `run`'s trace on a
    worker thread would slow the runs beside it (see README, "CLI").
    Once an item raises, no further item starts; the items already running
    finish, then ``then`` takes the results before the earliest failed item
    and its error is raised, where a serial map stops."""
    if ctx.pool is None or len(items) <= 1:
        return [then(fn(item)) for item in items]
    results = [None] * len(items)
    errors = {}  # item index -> its error
    indices = iter(range(len(items)))  # next() holds the GIL: no lock

    def work():
        for index in indices:
            if errors:
                return
            try:
                results[index] = fn(items[index])
            except BaseException as err:
                errors[index] = err
                return

    width = min(ctx.config.max_concurrency, len(items))
    helpers = [ctx.pool.submit(work) for _ in range(width - 1)]
    work()
    for helper in helpers:
        helper.cancel() or helper.result()
    stop = min(errors, default=len(items))  # every item before it ran
    results = [then(result) for result in results[:stop]]
    if errors:
        raise errors[stop]
    return results


def _read(fd, size) -> bytes:
    """Exactly ``size`` bytes from ``fd``, or b"" if it ends before them."""
    data = bytearray()
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data if len(data) == size else b""


def _worker(fn, gateway, items, mask, tickets, reply, inherited):
    """A forked replay worker, which never returns: for each 4-byte item
    index on the ``tickets`` pipe it writes to ``reply`` the length-prefixed
    pickle of (index, ok, fn(item) or its error, cache hits made by it)."""
    import pickle
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent drains us
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for fd in inherited:  # so the tickets end when the parent does
            os.close(fd)
        while ticket := _read(tickets, 4):
            index, hits = struct.unpack("=I", ticket)[0], gateway.cache_hits
            try:
                value, ok = fn(items[index]), True
            except Exception as err:  # the parent raises it
                value, ok = err, False
            hits = gateway.cache_hits - hits
            try:
                data = pickle.dumps((index, ok, value, hits))
            except Exception as err:
                data = pickle.dumps((index, False, DecisionFlowError(
                    f"cannot pickle a {type(value).__name__}: {err}"), hits))
            view = memoryview(struct.pack("=I", len(data)) + data)
            while view:
                view = view[os.write(reply, view):]
        status = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(status)


def _fork_map(fn, items, ctx, interrupt):
    """`run_experiment`'s map in replay at c > 1: [fn(item) for item in
    items] on c forked `_worker`s, adding their cache hits to ctx.gateway.
    Items go out in order on the ticket pipe, c + 1 at first and one more
    per reply, until ``interrupt`` is set, an item fails or a worker dies;
    those out then finish and the rest map to None. A dead worker's error,
    or else the earliest failed item's, is raised."""
    import pickle  # here, so that record mode and c = 1 load neither
    import select
    sys.stdout.flush()  # or each worker writes the parent's buffers again
    sys.stderr.flush()
    c = min(ctx.config.max_concurrency, len(items))
    tickets, handout = os.pipe()
    workers = {}  # reply pipe read end -> worker pid, until it is reaped
    results, errors, sent, due = [None] * len(items), {}, 0, c + 1
    poller = select.poll()
    try:
        for _ in range(c):
            reader, writer = os.pipe()
            workers[reader] = None
            # a Ctrl-C during the fork reaches the parent only
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                if (pid := os.fork()) == 0:
                    _worker(fn, ctx.gateway, items, mask, tickets, writer,
                            [handout, *workers])
                workers[reader] = pid
                poller.register(reader, select.POLLIN)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(writer)
        while workers:
            if handout is not None:  # hand out ``due`` more tickets, or stop
                stop = errors or (interrupt and interrupt.is_set())
                upto = sent if stop else min(sent + due, len(items))
                os.write(handout, struct.pack(f"={upto - sent}I",
                                              *range(sent, upto)))
                sent, due = upto, 0
                if stop or sent == len(items):  # the workers exit once idle
                    os.close(handout)
                    handout = None
            for reader, _ in poller.poll():
                size = _read(reader, 4)
                if data := size and _read(reader, *struct.unpack("=I", size)):
                    index, ok, value, hits = pickle.loads(data)
                    ctx.gateway.cache_hits += hits
                    (results if ok else errors)[index] = value
                    due += 1
                    continue
                poller.unregister(reader)  # the worker has exited
                pid = workers.pop(reader)
                os.close(reader)
                if status := os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                    errors[-1] = DecisionFlowError(
                        f"replay worker {pid} died: " + (
                            signal.Signals(-status).name if status < 0
                            else f"exit status {status}"))
        if errors:  # a death (-1) first, then the earliest failed item
            raise errors[min(errors)]
        return results
    finally:  # readers first: a worker blocked on a reply then gets EPIPE
        for fd in (tickets, handout, *workers):
            if fd is not None:
                os.close(fd)
        for pid in filter(None, workers.values()):
            os.waitpid(pid, 0)


def _call(ctx, trace, stage, name, request):
    completion = ctx.gateway.complete(request)
    _record_call(trace, stage, name, request, completion)
    return completion


def _ask(ctx, trace, stage, tag, values, *, model=None):
    """One call of the template named ``tag``, recorded under that name."""
    prompt = render_stage_prompt(ctx.templates[tag], values)
    return _call(ctx, trace, stage, tag, _request(ctx, tag, prompt, model=model))


def _bullets(items) -> str:
    return "\n".join(f"- {item}" for item in items) if items else "(none)"


def _prompt_values(problem: DecisionProblem) -> dict[str, str]:
    """The values of the problem that any stage prompt may name."""
    texts = [c.source_text for c in problem.constraints]
    return {
        "scenario": problem.scenario,
        "actions": _bullets(problem.actions),
        "choices": "\n".join(f"({i + 1}) {label}"
                             for i, label in enumerate(problem.actions)),
        "bias": problem.bias_directive or NO_DIRECTIVE,
        "constraints": "\n".join(texts) if texts else "(none)",
    }


def attribute_codes(attributes, n_actions: int) -> list[str]:
    """Short uppercase codes for attribute names: the first letter or digit
    of each word, or ``A{j+1}`` for a name with none. A code grows by its
    own ``j+1`` until none of its term names ``{code}1``..``{code}n`` is
    another attribute's, so every name is letters and digits, and unique."""
    codes = []
    taken: set[str] = set()  # the term names of the codes so far
    suffixes = range(1, n_actions + 1)
    for j, name in enumerate(attributes):
        code = "".join(next((ch for ch in word.upper() if ch.isalnum()), "")
                       for word in name.replace("-", " ").split()) or f"A{j + 1}"
        while any(f"{code}{k}" in taken for k in suffixes):
            code = f"{code}{j + 1}"
        taken.update(f"{code}{k}" for k in suffixes)
        codes.append(code)
    return codes


def render_objective(problem, attributes, coefficients) -> dict:
    """Linear objective text over x variables, plus a variable glossary."""
    codes = attribute_codes(attributes, problem.n_actions)
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
            return run_structured(problem, ctx, trace, **options)
        return _run_direct(problem, ctx, trace, repeat, **options)
    except ABSTENTIONS as err:
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
                   ) -> DecisionOutcome:
    """The four-step structured pipeline, appending its events to ``trace``.

    policy/all_ones implement the ablations; with_rationale=False skips the
    final explanation call (tool-assisted reasoning mode). Deterministic
    stages always use attempt index 0, so repeats replay identically.
    """
    cfg = ctx.config
    policy = policy if policy is not None else cfg.filter_policy
    values = _prompt_values(problem)

    # --- S1: extract, then summarize into an attribute table (info model) ---
    completion = _ask(ctx, trace, "S1", "extract_info", values,
                      model=cfg.info_model)
    statements = parse_extraction(completion.text, problem.actions)
    trace.append(_event("S1", "parsed", "statements", statements))
    if not statements:
        trace.append(_event("S1", "note", "degenerate_extraction",
                            "no statements extracted"))

    completion = _ask(ctx, trace, "S1", "summarize_attributes",
                      {**values, "statements": _bullets(statements)},
                      model=cfg.info_model)
    table = parse_attribute_table(completion.text, problem.actions)
    n, m = table.shape
    trace.append(_event("S1", "parsed", "attribute_table", {
        "attributes": list(table.attributes),
        "cells": [list(row) for row in table.cells],
    }))

    # --- S2: weigh every cell, then sparsify (reasoning model) ---
    if all_ones:
        weights = WeightMatrix.ones(n, m)
        trace.append(_event("S2", "note", "scoring_ablated",
                            "weighing skipped; weights fixed to all ones"))
    else:
        weights = _weigh_cells(problem, ctx, table, trace, values)
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
                "Value": table.cells[i][j],
            }
            for i in range(n) for j in range(m)
            if (i, j) in surviving and table.mentioned[i][j]
        ]
    }
    if not cells_payload["Cells"]:
        grounded = tuple(tuple(0.0 for _ in range(m)) for _ in range(n))
        trace.append(_event("S3", "note", "grounding_skipped",
                            "no surviving cells to score"))
    else:
        completion = _ask(ctx, trace, "S3", "ground_and_decide", {
            **values,
            "objective": objective["term"],
            "variables": dumps_indented(objective["variables"],
                                        sort_keys=False),
            "cells": dumps_indented(cells_payload, sort_keys=False),
        })
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

    if with_rationale:
        _rationale_call(problem, ctx, table, sol, trace, values)

    return DecisionOutcome(answer=sol.answer, utilities=sol.utilities,
                           trace=tuple(trace))


def _grid_payload(entries):
    return [list(row) for row in entries]


def _weigh_cells(problem, ctx, table, trace, values) -> WeightMatrix:
    """One weigh call per (action, attribute) cell, row-major.

    Calls may run concurrently in record mode; trace events are emitted in
    row-major order regardless, so the trace bytes do not depend on the
    concurrency setting.
    """
    n, m = table.shape
    cells = [(i, j) for i in range(n) for j in range(m)]
    requests = [
        _request(ctx, "weigh", render_stage_prompt(ctx.templates["weigh"], {
            **values,
            "action": problem.actions[i],
            "attribute": table.attributes[j],
            "verbal": table.cells[i][j],
        }))
        for (i, j) in cells
    ]
    completions = _map(ctx.gateway.complete, requests, ctx)

    rows = [[0.0] * m for _ in range(n)]
    for (i, j), request, completion in zip(cells, requests, completions):
        name = f"weigh[{i},{j}]"
        _record_call(trace, "S2", name, request, completion)
        explanation, weight = parse_weight(completion.text)
        trace.append(_event("S2", "parsed", name,
                            {"explanation": explanation, "weight": weight}))
        rows[i][j] = weight
    return WeightMatrix(tuple(tuple(row) for row in rows))


def _rationale_call(problem, ctx, table, sol, trace, values):
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
        f"{table.attributes[j]} = {table.cells[sol.answer][j]} "
        f"(contribution {value:.6g})"
        for value, j in contributions[:3]
    ])
    excluded = frozenset(range(problem.n_actions)) - sol.feasible
    active = _bullets([c.source_text for c in problem.constraints
                       if c.excludes & excluded])

    completion = _ask(ctx, trace, "S4", "rationale", {
        **values,
        "utilities": utilities_text,
        "winner": problem.actions[sol.answer],
        "runner_up": runner_up,
        "influential": influential,
        "active_constraints": active,
    })
    trace.append(_event("S4", "parsed", "rationale", completion.text.strip()))


def _run_direct(problem: DecisionProblem, ctx: ExperimentContext,
                trace: list[dict], repeat: int, *,
                sampled: bool = False) -> DecisionOutcome:
    """Direct prompting over the numbered choices.

    One completion of the template named after the mode answers (zero_shot,
    cot, joint), and any reasoning stays in that completion's text. With
    sampled=True, k votes on the zero_shot prompt do (self_consistency).
    """
    if sampled:
        return _self_consistency(problem, ctx, trace, repeat)
    completion = _ask(ctx, trace, "S4", ctx.config.mode,
                      _prompt_values(problem))
    answer = parse_decision(completion.text, problem.n_actions)
    trace.append(_event("S4", "parsed", "answer", answer))
    utilities = tuple(
        1.0 if i == answer else 0.0 for i in range(problem.n_actions)
    )
    return DecisionOutcome(answer=answer, utilities=utilities,
                           trace=tuple(trace))


def _self_consistency(problem, ctx, trace, repeat) -> DecisionOutcome:
    """k sampled votes on the zero_shot prompt at the sampling temperature;
    majority wins, ties go to the lowest action index, abstaining samples
    leave the denominator."""
    cfg = ctx.config
    prompt = render_stage_prompt(ctx.templates["zero_shot"],
                                 _prompt_values(problem))
    k = cfg.self_consistency_k
    votes = [0.0] * problem.n_actions
    abstained = 0
    for s in range(k):
        completion = _call(ctx, trace, "S4", f"sample[{s}]", _request(
            ctx, "self_consistency", prompt,
            temperature=cfg.temperature_sampling, attempt=repeat * k + s,
        ))
        try:
            answer = parse_decision(completion.text, problem.n_actions)
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
    return DecisionOutcome(answer=answer, utilities=tuple(votes),
                           trace=tuple(trace))


@dataclass(frozen=True)
class RunRecord:
    """Bookkeeping for one (problem, repeat) execution.

    ``attempts`` lists the attempt index of each completion event, in trace
    order. ``trace`` holds the run's events until a consumer takes them:
    `cli` writes each trace file as its run finishes and keeps the record
    with ``trace=()``, and `kernel_sweep` keeps only two of its matrices."""

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
    attempts: tuple[int, ...]
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
        trace, answer, error = outcome.trace, outcome.answer, None
    except ABSTENTIONS as err:
        trace, answer, error = getattr(err, "trace", ()), None, type(err).__name__
        log.info("run %s (%s, repeat %d) abstained: %s",
                 problem.problem_id, ctx.config.mode, repeat, err)
    wall = time.perf_counter() - started
    prompt_tokens, response_tokens, calls, latency, approximate = usage_totals(trace)
    attempts = tuple(event["payload"]["attempt"] for event in trace
                     if event["kind"] == "completion")
    return RunRecord(
        problem_id=problem.problem_id,
        mode=ctx.config.mode,
        repeat=repeat,
        answer=answer,
        abstained=error is not None,
        error=error,
        prompt_tokens=prompt_tokens,
        response_tokens=response_tokens,
        llm_calls=calls,
        latency_total=latency,
        wall_time=wall,
        usage_approximate=approximate,
        attempts=attempts,
        trace=tuple(trace),
    )


def run_experiment(problems, ctx: ExperimentContext, repeats: int = 1,
                   interrupt=None, on_record=None) -> list[RunRecord]:
    """Execute repeats x problems, repeat-major (every problem's repeat 0
    first, so later repeats find repeat 0's transcripts in the store), and
    return the records by (problem order, repeat). At max_concurrency c > 1,
    record mode runs on one pool of c * c - 1 threads (see `_map`) and
    replay on c forked processes (see `_fork_map`; serially without
    os.fork). Once `interrupt` (a threading.Event) is set or a fatal error
    occurs, no further run starts; those under way (in forked replay, the up
    to c + 1 handed out) finish. Then the finished records are returned, or
    the earliest failed run's error is raised once `on_record` has taken
    every run before it, as at c = 1. `on_record`, if given, maps each
    finished record to the one returned, on the calling thread in start
    order (as `_map` applies ``then``) or, in forked replay, in the worker
    after its run, where its side effects on the caller's memory are lost.
    """
    # (problem index, repeat), in start order
    tasks = [(index, repeat) for repeat in range(repeats)
             for index in range(len(problems))]

    def run(task):
        if interrupt is not None and interrupt.is_set():
            return None
        index, repeat = task
        return execute_run(problems[index], ctx, repeat)

    def finish(record):
        if record is None or on_record is None:
            return record
        return on_record(record)

    c = ctx.config.max_concurrency
    replay = ctx.gateway.config.mode == "replay"
    if replay and c > 1 and len(tasks) > 1 and hasattr(os, "fork"):
        results = _fork_map(lambda t: finish(run(t)), tasks, ctx, interrupt)
    else:
        with (ThreadPoolExecutor(max_workers=c * c - 1) if not replay and c > 1
              else nullcontext()) as pool:
            ctx = replace(ctx, pool=pool)  # run() reads ctx when it is called
            results = _map(run, tasks, ctx, finish)
    return [record for _, record in sorted(zip(tasks, results),
                                           key=lambda pair: pair[0])
            if record is not None]


@dataclass(frozen=True)
class SweepSetting:
    """Post-hoc kernel re-solve of recorded runs under one filter policy."""

    label: str
    answers: dict[str, int]
    utilities: dict[str, tuple[float, ...]]
    surviving_cells: int


def _decision_space(record: RunRecord):
    """The weights and grounded relevance that a structured run's trace
    records; an abstained run has none, which is fatal to a sweep."""
    if record.abstained:
        raise DecisionFlowError(f"cannot sweep: the run of {record.problem_id}"
                                f" abstained ({record.error})")
    matrices = {event["name"]: event["payload"] for event in record.trace
                if event["kind"] == "matrix"}
    return WeightMatrix(matrices["weights"]), matrices["relevance_grounded"]


def kernel_sweep(problems, ctx: ExperimentContext,
                 policies) -> list[SweepSetting]:
    """Run each problem once in the configured structured mode (one of
    STRUCTURED_MODES) through `run_experiment`, then re-run only the symbolic
    kernel per policy on the weights and grounded relevance its trace
    records. No policy in the grid triggers any new LLM call."""
    spaces = run_experiment(problems, ctx, on_record=_decision_space)
    settings = []
    for policy in policies:
        answers = {}
        utilities = {}
        surviving = 0
        for problem, (weights, grounded) in zip(problems, spaces):
            sol, support = _solve(grounded, weights, policy,
                                  ctx.config.filter_target, problem.constraints)
            surviving += support
            answers[problem.problem_id] = sol.answer
            utilities[problem.problem_id] = sol.utilities
        settings.append(SweepSetting(
            label=policy.label(), answers=answers,
            utilities=utilities, surviving_cells=surviving,
        ))
    return settings
