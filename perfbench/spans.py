"""In-memory spans around the calls into each decisionflow module.

The traced pass replaces functions with timing wrappers at the names their
callers look up (``pipeline`` imports ``solve_symbolic``, so the wrapper goes
on ``pipeline.solve_symbolic``; ``parse_json_payload`` reads
``stages.extract_json_block`` as a module global, so that one is wrapped in
``stages``). A span is named ``<layer>.<function>``, where the layer is the
module that defines the function, and records its start, end, parent span
and problem id. Spans stay in memory until the pass ends.

``layer_metrics`` turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import contextvars
import itertools
import statistics
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    problem: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent,
                self.problem, self.attrs]

    @classmethod
    def from_json(cls, row) -> "Span":
        return cls(*row)


class ContextExecutor(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context, so
    spans opened in a worker thread keep their parent and problem id."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=(0, None))
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, *, problem=None, attrs=None):
        """Replace ``owner.attr`` with a wrapper recording one span per call.

        ``problem(args)`` names the problem of a call made outside any
        problem; ``attrs(args, result)`` returns extra fields for a call that
        returned normally.
        """
        fn = getattr(owner, attr)
        spans, ids, current = self.spans, self._ids, self._current
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent, pid = current.get()
            if pid is None and problem is not None:
                pid = problem(args)
            sid = next(ids)
            token = current.set((sid, pid))
            extra = {}
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf()
                extra["error"] = type(exc).__name__
                raise
            else:
                end = perf()
                if attrs is not None:
                    extra = attrs(args, result)
                return result
            finally:
                current.reset(token)
                spans.append(Span(sid, name, start, end, parent, pid, extra))

        wrapper.__wrapped__ = fn
        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _run_id(args) -> str:
    repeat = args[2] if len(args) > 2 else 0
    return f"{args[0].problem_id}__r{repeat}"


def instrument(tracer: Tracer, transport=None) -> None:
    """Wrap every layer boundary of decisionflow a pass goes through."""
    from decisionflow import cli, core, gateway, pipeline, stages

    tracer.patch(pipeline, "ThreadPoolExecutor", ContextExecutor)
    w = tracer.wrap
    # cli: the command, and the setup calls it makes before the first problem
    w(cli, "cmd_run", "cli.cmd_run")
    w(cli, "build_context", "cli.build_context")
    # datasets
    w(cli, "load_dataset", "datasets.load_dataset")
    w(cli, "problems_from_records", "datasets.problems_from_records")
    w(cli, "write_predictions", "datasets.write_predictions")
    # metrics
    w(cli, "usage_summary", "metrics.usage_summary")
    # pipeline
    w(cli, "run_experiment", "pipeline.run_experiment")
    w(pipeline, "execute_run", "pipeline.execute_run", problem=_run_id,
      attrs=lambda a, r: {"events": len(r.trace)})
    # stages
    w(cli, "load_templates", "stages.load_templates")
    w(pipeline, "render_stage_prompt", "stages.render_stage_prompt")
    for parser in ("parse_extraction", "parse_attribute_table", "parse_weight",
                   "parse_grounding"):
        w(pipeline, parser, f"stages.{parser}")
    w(stages, "extract_json_block", "stages.extract_json_block",
      attrs=lambda a, r: {"chars": len(a[0]), "repairs": len(r[1])})
    # core
    w(pipeline, "solve_symbolic", "core.solve_symbolic")
    w(pipeline, "sparsify_weights", "core.sparsify_weights")
    w(core, "sparsify_weights", "core.sparsify_weights")
    # gateway
    w(gateway.LlmGateway, "complete", "gateway.complete",
      attrs=lambda a, r: {"threads": threading.active_count()})
    for method in ("has", "read", "write"):
        w(gateway.TranscriptStore, method, f"gateway.store_{method}")
    w(gateway.TranscriptStore, "verify", "gateway.verify",
      attrs=lambda a, r: {"entries": r})
    w(gateway, "request_digest", "gateway.request_digest")
    w(pipeline, "request_digest", "gateway.request_digest")
    if transport is not None:
        w(type(transport), "send", "backend.send")


# --- arithmetic -------------------------------------------------------------

def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start)
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover.

    Children that ran in parallel (worker threads) are merged first, so an
    interval two children share counts once.
    """
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(span.start, span.end, children[span.id])
        for span in spans
    }


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


LAYERS = ("cli", "datasets", "stages", "pipeline", "gateway", "core", "metrics")

SETUP_CALLS = ("datasets.load_dataset", "datasets.problems_from_records",
               "cli.build_context")
WORK_CALLS = ("pipeline.run_experiment",)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times named ``*_us`` are medians per call. ``pipeline.run_ms`` and
    ``pipeline.self_ms`` are medians per problem; the other ``*_ms`` times
    are totals over the pass, or per problem where the name says so.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append(span)
    names = {span.id: span.name for span in spans}
    selfs = self_times(spans)

    def child_names(span):
        return [c.name for c in children[span.id]]

    def p50_us(name):
        return _p50([s.duration for s in by_name[name]]) * 1e6

    def total_ms(name):
        return sum(s.duration for s in by_name[name]) * 1e3

    completes = by_name["gateway.complete"]
    misses = [c for c in completes if "backend.send" in child_names(c)]
    hits = [c for c in completes if "backend.send" not in child_names(c)]
    reads = [r for r in by_name["gateway.store_read"]
             if names.get(r.parent) == "gateway.complete"]
    lookups = sum(
        1 for c in hits for n in child_names(c)
        if n in ("gateway.store_has", "gateway.store_read")
    )
    digests = [d for d in by_name["gateway.request_digest"]
               if names.get(d.parent) != "gateway.verify"]
    overhead = sum(
        c.duration - sum(k.duration for k in children[c.id] if k.name == "backend.send")
        for c in misses
    )
    extracts = by_name["stages.extract_json_block"]
    extract_time = sum(e.duration for e in extracts)
    parse_errors = sum(
        1 for name, group in by_name.items() if name.startswith("stages.parse_")
        for s in group if "error" in s.attrs
    )
    roots = by_name["pipeline.execute_run"]
    n_problems = max(len(roots), 1)
    pipeline_self = defaultdict(float)
    layer_self = defaultdict(float)
    for span in spans:
        layer_self[span.layer] += selfs[span.id]
        if span.layer == "pipeline" and span.problem is not None:
            pipeline_self[span.problem] += selfs[span.id]
    output_s = 0.0
    for command in by_name["cli.cmd_run"]:
        inner = sum(c.duration for c in children[command.id]
                    if c.name in SETUP_CALLS + WORK_CALLS)
        output_s += command.duration - inner

    metrics = {
        "gateway.complete_us": _p50([c.duration for c in hits]) * 1e6,
        "gateway.store_read_us": _p50([r.duration for r in reads]) * 1e6,
        "gateway.digests_per_call": len(digests) / len(completes) if completes else 0.0,
        "gateway.store_lookups_per_call": lookups / len(hits) if hits else 0.0,
        "gateway.verify_ms": total_ms("gateway.verify"),
        "gateway.verify_entries": sum(v.attrs.get("entries", 0)
                                      for v in by_name["gateway.verify"]),
        "gateway.backend_busy_ms": total_ms("backend.send"),
        "gateway.live_overhead_ms": overhead * 1e3,
        "gateway.store_write_us": p50_us("gateway.store_write"),
        "stages.extract_json_us": p50_us("stages.extract_json_block"),
        "stages.extract_json_mb_per_s": (
            sum(e.attrs.get("chars", 0) for e in extracts) / extract_time / 1e6
            if extract_time else 0.0
        ),
        "stages.repairs_per_100_calls": (
            100.0 * sum(1 for e in extracts if e.attrs.get("repairs")) / len(completes)
            if completes else 0.0
        ),
        "stages.parse_errors": parse_errors,
        "stages.render_us": p50_us("stages.render_stage_prompt"),
        "stages.parse_weight_us": p50_us("stages.parse_weight"),
        "stages.parse_attribute_table_us": p50_us("stages.parse_attribute_table"),
        "stages.parse_grounding_us": p50_us("stages.parse_grounding"),
        "core.solve_us": p50_us("core.solve_symbolic"),
        "core.sparsify_us": p50_us("core.sparsify_weights"),
        "core.solves": len(by_name["core.solve_symbolic"]),
        "pipeline.run_ms": _p50([r.duration for r in roots]) * 1e3,
        "pipeline.self_ms": _p50(list(pipeline_self.values())) * 1e3,
        "pipeline.threads_max": max((c.attrs.get("threads", 0) for c in completes), default=0),
        "pipeline.trace_events_per_problem": (
            sum(r.attrs.get("events", 0) for r in roots) / n_problems
        ),
        "cli.output_ms": output_s * 1e3,
        "datasets.load_ms": total_ms("datasets.load_dataset"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms_per_problem"] = layer_self[layer] * 1e3 / n_problems
    return metrics
