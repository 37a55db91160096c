"""Command-line interface: run experiments, score predictions, sweep filters,
and verify replay corpora.

Exit codes: 0 on full success, 2 when the run finished but some problems
ended in abstention, 1 on fatal errors (bad config, dataset violations,
gateway failures, corrupt or missing transcripts).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import signal
import sys
import threading
from dataclasses import asdict, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from .core import FilterPolicy, finite_float
from .datasets import (
    DATASET_KINDS,
    PredictionRow,
    load_dataset,
    load_predictions,
    problems_from_records,
    write_json,
    write_predictions,
    write_text,
)
from .errors import DecisionFlowError, ReplayMissError
from .gateway import GATEWAY_MODES, GatewayConfig, LlmGateway, TranscriptStore
from .metrics import (
    evaluate,
    render_sweep_markdown,
    sweep_report,
    usage_summary,
    write_report,
)
from .pipeline import (
    FILTER_TARGETS,
    MODES,
    STRUCTURED_MODES,
    ExperimentContext,
    PipelineConfig,
    execute_run,
    kernel_sweep,
    run_experiment,
)
from .stages import load_templates

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2
EXIT_INTERRUPTED = 130

# config keys that are PipelineConfig fields of the same name and default;
# the "filter" key carries filter_policy as a spec dict
PIPELINE_KEYS = tuple(f.name for f in fields(PipelineConfig)
                      if f.name != "filter_policy")

# config key -> the GatewayConfig field it sets, whose default it takes
GATEWAY_KEYS = {
    "transcripts": "transcript_dir",
    "gateway_mode": "mode",
    "base_url": "base_url",
}

# the RunRecord fields a manifest's run entry copies, besides problem_id as "id"
MANIFEST_RUN_FIELDS = ("repeat", "answer", "abstained", "error", "llm_calls",
                       "prompt_tokens", "response_tokens", "latency_total",
                       "wall_time", "attempts")

FILTER_FIELDS = {f.name for f in fields(FilterPolicy)}


def parse_filter_spec(value) -> dict:
    """Normalize a filter setting to a spec dict whose keys are FilterPolicy
    fields; the spec must build a FilterPolicy.

    A setting is a dict of FilterPolicy fields ({"kind": "top_k", "k": 2}) or
    a string naming one: "none", "epsilon=0.3", "top_k=2" or "top2".
    """
    if isinstance(value, str):
        name, equals, number = value.strip().partition("=")
        try:
            if name == "none" and not equals:
                value = {"kind": "none"}
            elif name == "epsilon" and equals:
                value = {"kind": "threshold", "epsilon": float(number)}
            elif name == "top_k" and equals:
                value = {"kind": "top_k", "k": int(number)}
            elif name[:3] == "top" and name[3:].isdigit() and not equals:
                value = {"kind": "top_k", "k": int(name[3:])}
        except ValueError:
            pass  # the string is left as it is, which the check below rejects
    if not (isinstance(value, dict) and "kind" in value
            and value.keys() <= FILTER_FIELDS):
        raise ValueError(f"cannot parse filter spec {value!r}")
    policy = FilterPolicy(**value)
    return {key: v for key, v in asdict(policy).items() if v is not None}


DEFAULT_CONFIG = {
    "dataset": None,
    "dataset_kind": "mta",
    "out": None,
    "repeats": 1,
    "filter": parse_filter_spec(PipelineConfig.filter_policy.label()),
    **{key: getattr(GatewayConfig, name) for key, name in GATEWAY_KEYS.items()},
    **{key: getattr(PipelineConfig, key) for key in PIPELINE_KEYS},
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 means partial success here,
    so usage problems are remapped to the fatal exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FATAL, f"{self.prog}: error: {message}\n")


def parse_grid(text: str) -> list[FilterPolicy]:
    """Sweep grid: a comma list of filter specs ("top1,epsilon=0.3,none"), or
    a list head and its values ("epsilon=0.0,0.1,0.3", "top_k=1,2,none"),
    where each value is a spec once the head is put back in front of it."""
    text = text.strip()
    head = next((h for h in ("epsilon=", "top_k=") if text.startswith(h)), "")
    values = [v for v in text[len(head):].split(",") if v != ""]
    # a "top_k=" list may hold "none", which is a spec of its own
    return [FilterPolicy(**parse_filter_spec(
        v if (head, v) == ("top_k=", "none") else head + v)) for v in values]


def _checked(key, value):
    """A config-file value must have the type of the key's default, where an
    int is taken for a float and None stands for a string or null; a bool is
    not a number. parse_filter_spec checks the filter."""
    default = DEFAULT_CONFIG[key]
    if type(default) is float:
        number = finite_float(value)
        if number is not None:
            return number
    elif key == "filter" or type(value) is type(default) \
            or (default is None and type(value) is str):
        return value
    expected = ("a string or null" if default is None else
                "a finite number" if type(default) is float else
                type(default).__name__)
    raise ValueError(f"config key {key!r} must be {expected}, not {value!r}")


def load_config_file(path) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as err:  # not UTF-8, or not JSON
        raise ValueError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(payload) - set(DEFAULT_CONFIG)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    return {key: _checked(key, value) for key, value in payload.items()}


def resolve_config(args) -> dict:
    """defaults <- config file <- command-line flags (flags win)."""
    resolved = dict(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        resolved.update(load_config_file(args.config))
    for key in DEFAULT_CONFIG:  # a key without a flag is never set on args
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    resolved["filter"] = parse_filter_spec(resolved["filter"])
    if resolved["repeats"] < 1:
        raise ValueError(f"repeats must be >= 1, not {resolved['repeats']}")
    return resolved


def config_digest(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"),
                           ensure_ascii=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _make_transport(resolved: dict):
    """Hook point: None lets the gateway build its HTTP transport in record
    mode; tests substitute a scripted transport here."""
    return None


def build_context(resolved: dict) -> ExperimentContext:
    pipeline_config = PipelineConfig(
        filter_policy=FilterPolicy(**resolved["filter"]),
        **{key: resolved[key] for key in PIPELINE_KEYS},
    )
    gateway_config = GatewayConfig(
        **{name: resolved[key] for key, name in GATEWAY_KEYS.items()})
    gateway = LlmGateway(gateway_config, _make_transport(resolved))
    return ExperimentContext(pipeline_config, gateway, load_templates())


def _load_problems(resolved):
    if resolved["dataset"] is None:
        raise ValueError("no dataset given (config key 'dataset' or --dataset)")
    records = load_dataset(resolved["dataset"], resolved["dataset_kind"])
    if not records:
        raise ValueError(f"dataset {resolved['dataset']} has no records")
    return records, problems_from_records(records, resolved["dataset_kind"])


def _write_run_outputs(out_dir: Path, resolved, records, run_records, gateway,
                       interrupted: bool):
    """Write predictions, then the manifest; the traces are already written."""
    write_predictions([PredictionRow(r.problem_id, r.mode, r.repeat, r.answer)
                       for r in run_records], out_dir / "predictions.jsonl")

    manifest = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "interrupted": interrupted,
        "config": resolved,
        "config_digest": config_digest(resolved),
        "dataset": {
            "path": str(resolved["dataset"]),
            "kind": resolved["dataset_kind"],
            "n_records": len(records),
        },
        "gateway": {
            "mode": resolved["gateway_mode"],
            "transcripts": str(resolved["transcripts"]),
            "live_calls": gateway.live_calls,
            "cache_hits": gateway.cache_hits,
        },
        "usage": asdict(usage_summary(run_records)) if run_records else None,
        "runs": [{"id": r.problem_id,
                  **{name: getattr(r, name) for name in MANIFEST_RUN_FIELDS}}
                 for r in run_records],
    }
    write_json(manifest, out_dir / "manifest.json")


def cmd_run(args) -> int:
    resolved = resolve_config(args)
    if resolved["out"] is None:
        raise ValueError("no output directory given (config key 'out' or --out)")
    records, problems = _load_problems(resolved)
    ctx = build_context(resolved)
    out_dir = Path(resolved["out"])
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    def write_trace(record):
        write_json(list(record.trace),
                   traces_dir / f"{record.problem_id}__r{record.repeat}.json",
                   sort_keys=False)
        return replace(record, trace=())

    interrupt = threading.Event()

    def _handle_sigint(signum, frame):
        interrupt.set()
        log.warning("interrupt received; draining in-flight work")

    previous = None
    try:
        previous = signal.signal(signal.SIGINT, _handle_sigint)
    except ValueError:
        pass  # not the main thread; run uninterruptible
    try:
        run_records = run_experiment(problems, ctx, resolved["repeats"],
                                     interrupt, write_trace)
    finally:
        if previous is not None:
            signal.signal(signal.SIGINT, previous)

    interrupted = interrupt.is_set()
    _write_run_outputs(out_dir, resolved, records, run_records, ctx.gateway,
                       interrupted)

    abstained = sum(1 for r in run_records if r.abstained)
    for record in run_records:
        status = ("abstained: " + record.error) if record.abstained \
            else f"answer {record.answer}"
        print(f"{record.problem_id} repeat {record.repeat}: {status}")
    print(
        f"{len(run_records)} runs -> {out_dir} "
        f"({abstained} abstentions, {ctx.gateway.live_calls} live calls, "
        f"{ctx.gateway.cache_hits} cache hits)"
    )
    if interrupted:
        return EXIT_INTERRUPTED
    return EXIT_PARTIAL if abstained else EXIT_OK


def cmd_eval(args) -> int:
    records = load_dataset(args.dataset, args.dataset_kind)
    predictions = load_predictions(args.predictions)
    report = evaluate(predictions, records, args.dataset_kind)
    json_path, md_path = write_report(report, args.out)
    mean = report["overall_accuracy"]["mean"]
    print(f"overall accuracy {mean:.2f} over {report['n_problems']} problems"
          f" x {len(report['repeats'])} repeat(s)")
    print(f"wrote {json_path} and {md_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    resolved = resolve_config(args)
    if resolved["out"] is None:
        raise ValueError("no output directory given (config key 'out' or --out)")
    if resolved["mode"] not in STRUCTURED_MODES:
        raise ValueError(
            f"sweep needs a structured mode, not {resolved['mode']!r}"
        )
    policies = parse_grid(args.grid)
    if not policies:
        raise ValueError(f"empty sweep grid {args.grid!r}")
    records, problems = _load_problems(resolved)
    ctx = build_context(resolved)
    out_dir = Path(resolved["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = kernel_sweep(problems, ctx, policies)
    report = sweep_report(settings, records, resolved["dataset_kind"])
    report["config_digest"] = config_digest(resolved)
    report["live_calls"] = ctx.gateway.live_calls
    write_json(report, out_dir / "sweep.json")
    write_text(render_sweep_markdown(report), out_dir / "sweep.md")
    for row in report["settings"]:
        print(f"{row['label']}: accuracy {row['accuracy']:.2f}, "
              f"{row['surviving_cells']} surviving cells")
    print(f"wrote {out_dir / 'sweep.json'} and {out_dir / 'sweep.md'} "
          f"({ctx.gateway.live_calls} live calls)")
    return EXIT_OK


def cmd_replay_verify(args) -> int:
    resolved = resolve_config(args)
    resolved["gateway_mode"] = "replay"
    store = resolved["transcripts"]
    if not Path(store).is_dir():
        raise ValueError(f"transcript store {store} is not a directory")
    for stray in sorted(Path(store).rglob("*.tmp")):
        print(f"warning: {stray} is left from an interrupted write; it is "
              "safe to delete", file=sys.stderr)
    checked = TranscriptStore(store).verify()
    print(f"{checked} transcripts verified in {store}")
    if resolved["dataset"] is None:
        return EXIT_OK

    _, problems = _load_problems(resolved)
    ctx = build_context(resolved)
    missing = 0
    for problem in problems:  # an abstention is a record: coverage is the check
        for repeat in range(resolved["repeats"]):
            try:
                execute_run(problem, ctx, repeat)
            except ReplayMissError as err:
                missing += 1
                print(f"missing transcript for {problem.problem_id} repeat "
                      f"{repeat}: {err.digest}", file=sys.stderr)
    if missing:
        return EXIT_FATAL
    print(f"replay coverage complete for {len(problems)} problems "
          f"x {resolved['repeats']} repeat(s)")
    return EXIT_OK


def _add_config_flags(parser, *, writes=True):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--dataset", help="dataset JSONL path")
    parser.add_argument("--dataset-kind", choices=DATASET_KINDS)
    parser.add_argument("--transcripts", help="transcript store directory")
    if writes:  # replay-verify replays serially and writes nothing
        parser.add_argument("--gateway-mode", choices=GATEWAY_MODES)
        parser.add_argument("--out", help="output directory")
        parser.add_argument(
            "--max-concurrency", type=int,
            help="c: runs at once; record mode also runs c weigh calls per run "
                 "at once, on c*c threads in all (the gateway caps sends at "
                 "MAX_IN_FLIGHT=4), and replay forks c worker processes")
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--info-model")
    parser.add_argument("--reasoning-model")
    parser.add_argument("--filter",
                        help='filter spec: "epsilon=0.3", "top2", "none"')
    parser.add_argument("--filter-target", choices=FILTER_TARGETS)
    parser.add_argument("--self-consistency-k", type=int)
    parser.add_argument("--max-tokens", type=int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: its tree refers back
    to itself, so one built per call would leave a reference cycle behind.
    Each subcommand is bound to the ``cmd_*`` function the module holds at
    the first call."""
    parser = _Parser(prog="decisionflow",
                     description="Structured decision modeling pipeline")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an experiment over a dataset")
    _add_config_flags(run_parser)
    run_parser.set_defaults(func=cmd_run)

    eval_parser = sub.add_parser("eval", help="score a predictions file")
    eval_parser.add_argument("--predictions", required=True)
    eval_parser.add_argument("--dataset", required=True)
    eval_parser.add_argument("--dataset-kind", choices=DATASET_KINDS,
                             required=True)
    eval_parser.add_argument("--out", required=True)
    eval_parser.set_defaults(func=cmd_eval)

    sweep_parser = sub.add_parser(
        "sweep", help="re-solve recorded runs across a filter grid")
    _add_config_flags(sweep_parser)
    sweep_parser.add_argument(
        "--grid", required=True,
        help='e.g. "epsilon=0.0,0.1,0.3,0.5,0.7" or "top_k=1,2,3,none"')
    sweep_parser.set_defaults(func=cmd_sweep)

    verify_parser = sub.add_parser(
        "replay-verify",
        help="verify every transcript, then replay the configured dataset "
             "(if any) to check coverage")
    _add_config_flags(verify_parser, writes=False)
    verify_parser.set_defaults(func=cmd_replay_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (DecisionFlowError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FATAL
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
