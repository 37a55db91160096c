"""Tests of the benchmark itself: input generation, the fixed-latency
backend, span arithmetic, the workload registry, and a tiny pass of every
workload.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from decisionflow.gateway import CompletionRequest, TranscriptStore  # noqa: E402
from decisionflow.stages import extract_json_block  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from transport import FixedLatencyTransport  # noqa: E402

DATASET = ROOT / "fixtures" / "datasets" / "dellma_small.jsonl"


def _record(tmp_path: Path, name: str, seed: int, problems: int = 6) -> list[str]:
    workload = workloads.WORKLOADS["replay-verbose"]
    records = workloads.make_records(seed, problems, workloads.load_contexts(DATASET))
    base = tmp_path / name
    base.mkdir()
    workloads.write_dataset(records, base / "data.jsonl")
    code = workloads.record_reference(workload, seed, base / "data.jsonl",
                                      base / "store", base / "out")
    assert code == 0
    return TranscriptStore(base / "store").digests()


def test_same_seed_gives_same_digests(tmp_path):
    first = _record(tmp_path, "a", seed=7)
    again = _record(tmp_path, "b", seed=7)
    other = _record(tmp_path, "c", seed=8)
    assert first == again
    assert len(first) > 0
    assert set(first) != set(other)


def test_records_have_distinct_unambiguous_labels():
    records = workloads.make_records(3, 60, workloads.load_contexts(DATASET))
    assert sorted({len(r["actions"]) for r in records}) == list(workloads.ACTION_COUNTS)
    for record in records:
        labels = [label.lower() for label in record["actions"]]
        assert len(set(labels)) == len(labels)
        for a in labels:
            assert not any(a != b and a in b for b in labels)


def test_verbose_completions_parse_and_some_need_repair():
    script = workloads.verbose_script(seed=5)
    repaired = 0
    total = 400
    for k in range(total):
        prompt = (f'Action: "Plant figs on the plot {k}"\n'
                  f'Attribute: "Risk level"\nReported value: fair\n')
        text = script(CompletionRequest(model="m", prompt=prompt, temperature=0.0,
                                        stage_tag="weigh"))
        assert text.startswith("Here is my assessment")
        block, repairs = extract_json_block(text)
        payload = json.loads(block)
        assert 0.0 <= payload["Weight"] <= 1.0
        assert len(payload["Explanation"]) >= workloads.VERBOSE_PAD_CHARS
        repaired += bool(repairs)
    assert 0.05 * total < repaired < 0.15 * total


def test_fixed_latency_transport_counts_every_send_across_threads():
    transport = FixedLatencyTransport()
    requests = [
        CompletionRequest(model="m", prompt=f"Action: \"a{k % 10}\"\nAttribute: \"b\"",
                          temperature=0.0, stage_tag="weigh")
        for k in range(40)
    ]

    def send_all():
        for request in requests:
            transport.send(request)

    threads = [threading.Thread(target=send_all) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert transport.counters() == {"sends": 160, "unique_digests": 10}


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered(0.0, 10.0, []) == 0.0
    assert spans.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert spans.covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert spans.covered(0.0, 10.0, [(11.0, 12.0)]) == 0.0


def _span(sid, name, start, end, parent=0, problem=None, **attrs):
    return spans.Span(sid, name, start, end, parent, problem, attrs)


def test_self_time_subtracts_parallel_children_once():
    tree = [
        _span(1, "pipeline.execute_run", 0.0, 10.0, problem="p"),
        _span(2, "gateway.complete", 1.0, 4.0, parent=1, problem="p"),
        _span(3, "gateway.complete", 2.0, 6.0, parent=1, problem="p"),
        _span(4, "gateway.store_read", 2.5, 3.5, parent=3, problem="p"),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {1: 5.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_layer_metrics_split_hits_from_misses():
    tree = [
        _span(1, "pipeline.execute_run", 0.0, 1.0, problem="p", events=9),
        _span(2, "gateway.complete", 0.0, 0.25, parent=1, problem="p", threads=3),
        _span(3, "gateway.store_has", 0.0, 0.05, parent=2, problem="p"),
        _span(4, "gateway.store_read", 0.05, 0.1, parent=2, problem="p"),
        _span(5, "gateway.complete", 0.5, 1.0, parent=1, problem="p", threads=5),
        _span(6, "backend.send", 0.5, 0.8, parent=5, problem="p"),
        _span(7, "gateway.store_write", 0.8, 0.9, parent=5, problem="p"),
    ]
    m = spans.layer_metrics(tree)
    assert m["gateway.complete_us"] == pytest.approx(0.25e6)
    assert m["gateway.store_lookups_per_call"] == 2
    assert m["gateway.backend_busy_ms"] == pytest.approx(300.0)
    assert m["gateway.live_overhead_ms"] == pytest.approx(200.0)
    assert m["pipeline.threads_max"] == 5
    assert m["pipeline.trace_events_per_problem"] == 9
    assert m["pipeline.self_ms"] == pytest.approx(250.0)
    assert m["gateway.self_ms_per_problem"] == pytest.approx(450.0)
    assert set(harness.PER_LAYER) >= set(m)


def test_benchmark_json_registers_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _tiny_run(tmp_path: Path, name: str, trace: bool) -> dict:
    workload = dataclasses.replace(workloads.WORKLOADS[name], problems=6)
    return harness.run(workload, seed=3, seconds=0, trace=trace,
                       dataset_source=DATASET, work_root=tmp_path / "work")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_pass_of_every_workload_is_correct(tmp_path, workload):
    result = _tiny_run(tmp_path, workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_pass_reports_every_layer_metric(tmp_path):
    result = _tiny_run(tmp_path, "record-dup", trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(harness.PER_LAYER)
    assert metrics["gateway.dedup_ratio"]["value"] <= 1.0
    sends = metrics["gateway.backend_sends"]["value"]
    assert sends >= metrics["gateway.unique_digests"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-verbose", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
