"""Builds a workload's inputs, runs its timed passes, checks every pass's
outputs and reduces them to the benchmark's metrics.

A run has two phases:

1. Set-up, untimed: generate the dataset from the seed and record its
   corpus serially with the scripted backend through ``decisionflow run``;
   that record pass is the reference output of the seed.
2. Timed passes, each one ``decisionflow`` invocation in a fresh process
   (``child.py``), until the run's seconds are used. Each pass must
   reproduce the reference; with tracing on, every other pass is traced.
   Before each pass, ``setup_s`` samples time the calls ``cmd_run`` makes
   before the first problem (dataset load, template load, gateway open with
   store verification) by calling them directly.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from decisionflow import cli
from decisionflow.datasets import load_dataset, problems_from_records
from decisionflow.gateway import GatewayConfig, LlmGateway, TranscriptStore
from decisionflow.stages import load_templates

import spans as tracing
from transport import FixedLatencyTransport
from workloads import (
    PASS_CONCURRENCY,
    input_properties,
    load_contexts,
    make_records,
    quiet_main,
    record_reference,
    run_argv,
    write_dataset,
)

HERE = Path(__file__).resolve().parent
SRC = Path(cli.__file__).resolve().parent.parent

# Metric names and units, as registered beside this directory.
_REGISTRY = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _REGISTRY["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _REGISTRY["per_layer"]}

SETUP_BATCH_S = 0.05
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not measure: no reference, or a pass crashed."""


def say(text: str) -> None:
    print(text, flush=True)


@dataclass
class PassResult:
    traced: bool
    wall_s: float
    runs: int
    completions: int
    failures: int
    walls: list[float]
    rss_mb: float
    sends: int
    unique_digests: int
    trace_bytes: int
    faults: list[str] = field(default_factory=list)  # correctness gate failures
    layers: dict[str, float] = field(default_factory=dict)


def _trace_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((out / "traces").glob("*.json"))}


class Bench:
    def __init__(self, workload, seed: int, work: Path, dataset_source: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.records = make_records(seed, workload.problems, load_contexts(dataset_source))
        self.dataset = work / "dataset.jsonl"
        write_dataset(self.records, self.dataset)
        self.record_mode = workload.gateway_mode == "record"
        self.store = work / ("reference_store" if self.record_mode else "store")
        self.reference = work / "reference"
        code = record_reference(workload, seed, self.dataset, self.store, self.reference)
        if code != cli.EXIT_OK:  # EXIT_PARTIAL would mean the inputs make runs fail
            raise BenchError(f"recording the reference corpus exited with {code}")
        self.reference_predictions = (self.reference / "predictions.jsonl").read_bytes()
        self.reference_traces = _trace_files(self.reference)
        self.reference_digests = TranscriptStore(self.store).digests()
        self.properties = input_properties(self.records, self.reference)
        self.passes: list[PassResult] = []
        self.setup_samples: list[float] = []

    # --- set-up time ------------------------------------------------------

    def setup_seconds(self) -> list[float]:
        """Time the set-up at least once and for at least SETUP_BATCH_S.

        ``measure`` calls this before every pass, so the samples spread over
        the whole run instead of sharing one moment's machine speed.
        """
        samples: list[float] = []
        while not samples or sum(samples) < SETUP_BATCH_S:
            transport = FixedLatencyTransport() if self.record_mode else None
            started = time.perf_counter()
            problems_from_records(load_dataset(self.dataset, "dellma"), "dellma")
            load_templates()
            LlmGateway(GatewayConfig(mode=self.workload.gateway_mode,
                                     transcript_dir=self.store), transport)
            samples.append(time.perf_counter() - started)
        return samples

    # --- one pass -------------------------------------------------------------

    def run_pass(self, index: int, traced: bool) -> PassResult:
        w = self.workload
        pass_dir = self.work / f"pass_{index}"
        pass_dir.mkdir()
        store = pass_dir / "store" if self.record_mode else self.store
        out = pass_dir / "out"
        spec = {
            "src": str(SRC),
            "argv": run_argv(w, self.dataset, store, out, gateway_mode=w.gateway_mode,
                             max_concurrency=PASS_CONCURRENCY),
            "record": self.record_mode,
            "trace": traced,
            "result": str(pass_dir / "result.json"),
            "spans": str(pass_dir / "spans.json"),
        }
        spec_path = pass_dir / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        stderr_path = pass_dir / "stderr.txt"
        with open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                stdout=subprocess.DEVNULL, stderr=stderr, cwd=str(self.work),
            )
            try:
                proc.wait(timeout=PASS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"pass {index} ran over {PASS_TIMEOUT_S} s") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.is_file():
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"pass {index} exited with {proc.returncode}:\n{tail}")
        child = json.loads(result_path.read_text(encoding="utf-8"))
        faults = []
        if child["exit_code"] != cli.EXIT_OK:
            tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-500:]
            faults.append(f"decisionflow exited with {child['exit_code']}: {tail.strip()}")

        counters = child["transport"] or {"sends": 0, "unique_digests": 0}
        result = PassResult(
            traced=traced, wall_s=child["wall_s"], runs=0,
            completions=0, failures=0, walls=[], rss_mb=child["maxrss_kb"] / 1024.0,
            sends=counters["sends"], unique_digests=counters["unique_digests"],
            trace_bytes=0, faults=faults,
        )
        if (out / "manifest.json").is_file():
            self._check_run(out, store, pass_dir, result)
        else:
            result.runs = result.failures = len(self.records) * w.repeats
            faults.append("no output written")
        if traced:
            rows = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))
            result.layers = tracing.layer_metrics([tracing.Span.from_json(r) for r in rows])
        shutil.rmtree(pass_dir)
        return result

    def _check_run(self, out: Path, store: Path, pass_dir: Path, result: PassResult) -> None:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        runs = manifest["runs"]
        result.runs = len(runs)
        result.walls = [r["wall_time"] for r in runs]
        gateway = manifest["gateway"]
        result.completions = gateway["cache_hits"] + gateway["live_calls"]
        result.failures = sum(1 for r in runs if r["abstained"] or r["error"])
        traces = _trace_files(out)
        result.trace_bytes = sum(len(b) for b in traces.values())
        if result.failures:
            result.faults.append(f"{result.failures} runs failed; the record pass had none")
        if (out / "predictions.jsonl").read_bytes() != self.reference_predictions:
            result.faults.append("predictions differ from the record pass")
        if traces != self.reference_traces:
            differing = sorted(set(traces) ^ set(self.reference_traces)
                               | {k for k in traces if traces[k] != self.reference_traces.get(k)})
            result.faults.append(f"{len(differing)} trace files differ from the "
                                   f"record pass, e.g. {differing[:3]}")
        if self.record_mode:
            if TranscriptStore(store).digests() != self.reference_digests:
                result.faults.append("recorded store holds other digests than the reference")
            replay_out = pass_dir / "replay"
            code = quiet_main(run_argv(self.workload, self.dataset, store, replay_out,
                                        gateway_mode="replay", max_concurrency=1))
            if code != cli.EXIT_OK:
                result.faults.append(f"replaying the recorded store exited with {code}")
            elif (replay_out / "predictions.jsonl").read_bytes() != self.reference_predictions:
                result.faults.append("the recorded store replays to other predictions")

    # --- the whole run ----------------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> dict:
        min_passes = 2 if trace else 3
        started = time.perf_counter()
        while True:
            index = len(self.passes)
            self.setup_samples += self.setup_seconds()
            self.passes.append(self.run_pass(index, traced=trace and index % 2 == 1))
            elapsed = time.perf_counter() - started
            per_pass = elapsed / len(self.passes)
            if len(self.passes) >= min_passes and elapsed + per_pass > seconds:
                break
        return self.report(time.perf_counter() - started, trace)

    def report(self, elapsed: float, trace: bool) -> dict:
        w = self.workload
        props = self.properties
        plain = [p for p in self.passes if not p.traced and p.walls]
        traced = [p for p in self.passes if p.traced and p.walls]
        if not plain or (trace and not traced):
            raise BenchError("no pass wrote its outputs")
        say(f"workload {w.name} seed {self.seed}: {len(self.records)} problems x "
            f"{w.repeats} repeat(s), max_concurrency {PASS_CONCURRENCY}, "
            f"{len(self.passes)} passes ({len(traced)} traced) in {elapsed:.1f} s")
        say(f"  input: {props['runs']} runs; {props['calls_per_problem']:.2f} calls per run "
            f"({props['calls']} / {props['runs']}); digest already served on "
            f"{props['repeated_digest_share']:.3f} of calls "
            f"({props['repeated_digest_calls']} / {props['calls']}); mean completion "
            f"{props['mean_completion_bytes']:.0f} bytes; repair needed on "
            f"{props['repair_share']:.3f} of JSON completions "
            f"({props['repaired_completions']} / {props['json_completions']}); "
            f"action counts {props['action_histogram']}")

        walls_ms = sorted(1e3 * x for p in plain for x in p.walls)
        attempted = sum(p.runs for p in self.passes)
        failed = sum(p.failures for p in self.passes)
        runs_plain = sum(p.runs for p in plain)
        sends = sum(p.sends for p in plain)
        n = len(plain)
        e2e = {
            "problems_per_s": (statistics.median(p.runs / p.wall_s for p in plain),
                               f"median of {n} passes"),
            "calls_per_s": (statistics.median(p.completions / p.wall_s for p in plain),
                            f"median of {n} passes"),
            "problem_p50_ms": (statistics.median(walls_ms),
                               f"{len(walls_ms)} runs of {n} passes"),
            "problem_p95_ms": (statistics.quantiles(walls_ms, n=100, method="inclusive")[94],
                               f"{len(walls_ms)} runs of {n} passes"),
            "llm_calls_per_problem": (statistics.median(p.completions / p.runs for p in plain),
                                      f"median of {n} passes"),
            "setup_s": (statistics.median(self.setup_samples),
                        f"median of {len(self.setup_samples)} set-ups"),
            "peak_rss_mb": (statistics.median(p.rss_mb for p in plain),
                            f"median of {n} passes"),
        }
        for name, (value, base) in e2e.items():
            say(f"  {name} {value:.6g} {END_TO_END[name]} ({base})")
        say("  problems_per_s of each pass: " + " ".join(
            f"{p.runs / p.wall_s:.4g}{'*' if p.traced else ''}" for p in self.passes))
        unique = sum(p.unique_digests for p in plain)
        say(f"  backend_calls_per_problem {sends / runs_plain:.6g} calls "
            f"({sends} sends / {runs_plain} runs; "
            f"{(sends / unique if unique else 0.0):.3f}x the unique digests)")
        say(f"  failure_rate {failed / attempted:.6g} ({failed} failed / {attempted} runs)")

        faults = [f"pass {i}: {msg}" for i, p in enumerate(self.passes) for msg in p.faults]
        for msg in faults:
            say(f"  FAILED {msg}")

        if trace:
            metrics = self.layer_report(plain, traced)
            units = PER_LAYER
        else:
            metrics = {name: value for name, (value, _) in e2e.items()}
            units = END_TO_END
        return {
            "correct": not faults,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }

    def layer_report(self, plain, traced) -> dict:
        layers = {
            name: statistics.median(p.layers[name] for p in traced)
            for name in traced[0].layers
        }
        sends = statistics.median(p.sends for p in traced)
        unique = statistics.median(p.unique_digests for p in traced)
        layers["gateway.backend_sends"] = sends
        layers["gateway.unique_digests"] = unique
        layers["gateway.dedup_ratio"] = unique / sends if sends else 1.0
        layers["cli.trace_bytes_per_problem"] = statistics.median(
            p.trace_bytes / p.runs for p in traced)
        untraced_rate = statistics.median(p.runs / p.wall_s for p in plain)
        traced_rate = statistics.median(p.runs / p.wall_s for p in traced)
        layers["trace.overhead_pct"] = 100.0 * (untraced_rate / traced_rate - 1.0)
        say(f"  traced {traced_rate:.6g} problems/s against {untraced_rate:.6g} untraced "
            f"({len(traced)} and {len(plain)} passes)")
        say("  self time per problem: " + ", ".join(
            f"{layer} {layers[f'{layer}.self_ms_per_problem']:.3f} ms"
            for layer in tracing.LAYERS))
        for name, unit in PER_LAYER.items():
            say(f"  {name} {layers[name]:.6g} {unit}")
        return layers


def run(workload, seed: int, seconds: float, trace: bool,
        dataset_source: Path, work_root: Path) -> dict:
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        bench = Bench(workload, seed, work, dataset_source)
        return bench.measure(seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
