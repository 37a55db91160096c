"""End-to-end CLI tests over the bundled replay corpus."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import CONFIG_DIR, CORPUS_DIR, DATASET_DIR, REPO_ROOT
from decisionflow import cli, datasets, pipeline
from decisionflow.core import FilterPolicy
from decisionflow.datasets import load_dataset, load_predictions, write_records
from decisionflow.errors import BackendError
from decisionflow.gateway import (
    CompletionRequest,
    GatewayConfig,
    LlmGateway,
    TranscriptStore,
)
from decisionflow.metrics import evaluate
from decisionflow.testing import REFUSAL_TEXT, ScriptedTransport, fixture_script
from test_mode_pins import PINNED, run_output_digest


def make_config(tmp_path, name="config.json", **overrides) -> Path:
    """Replay config with absolute paths, overridable per test."""
    config = {
        "mode": "decisionflow",
        "dataset": str(DATASET_DIR / "mta_small.jsonl"),
        "dataset_kind": "mta",
        "transcripts": str(CORPUS_DIR),
        "gateway_mode": "replay",
        "out": str(tmp_path / "out"),
        "repeats": 1,
        "filter": {"kind": "threshold", "epsilon": 0.3},
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


class TestFilterSpecs:
    def test_string_forms(self):
        assert cli.parse_filter_spec("none") == {"kind": "none"}
        assert cli.parse_filter_spec("epsilon=0.3") == {
            "kind": "threshold", "epsilon": 0.3}
        assert cli.parse_filter_spec("top_k=2") == {"kind": "top_k", "k": 2}
        assert cli.parse_filter_spec("top3") == {"kind": "top_k", "k": 3}

    def test_dict_forms(self):
        assert cli.parse_filter_spec({"kind": "threshold", "epsilon": 0.5}) \
            == {"kind": "threshold", "epsilon": 0.5}
        spec = cli.parse_filter_spec({"kind": "threshold", "epsilon": 1})
        assert spec == {"kind": "threshold", "epsilon": 1.0}
        assert type(spec["epsilon"]) is float
        assert cli.parse_filter_spec({"kind": "top_k", "k": 2}) == {
            "kind": "top_k", "k": 2}
        assert cli.parse_filter_spec({"kind": "none"}) == {"kind": "none"}
        # a dict is checked, not coerced
        with pytest.raises(ValueError, match="epsilon"):
            cli.parse_filter_spec({"kind": "threshold", "epsilon": "0.5"})
        with pytest.raises(ValueError, match="k >= 1"):
            cli.parse_filter_spec({"kind": "top_k", "k": True})

    @pytest.mark.parametrize("spec", [
        {"kind": "threshold", "epsilon": True},
        {"kind": "threshold", "epsilon": 0.3, "k": 5},
        {"kind": "top_k", "k": 2.7},
        {"kind": "top_k", "k": 2, "epsilon": 0.3},
        {"kind": "none", "k": 1},
        {"kind": "top_k", "k": 2, "depth": 3},
        {"epsilon": 0.5},
    ])
    def test_dict_forms_are_checked(self, spec):
        with pytest.raises(ValueError):
            cli.parse_filter_spec(spec)

    def test_rejects_garbage(self):
        for spec in ("sieve", {"kind": "colander"}, "top_k=2.7", "top2.7",
                     "top0", "epsilon=abc", "epsilon=nan", "epsilon=-0.1",
                     "none=1", 0.3, None):
            with pytest.raises(ValueError, match="filter"):
                cli.parse_filter_spec(spec)

    def test_grid_forms(self):
        grid = cli.parse_grid("epsilon=0.0,0.1,0.3")
        assert [p.label() for p in grid] == [
            "epsilon=0.0", "epsilon=0.1", "epsilon=0.3"]
        grid = cli.parse_grid("top_k=1,2,none")
        assert [p.label() for p in grid] == ["top1", "top2", "none"]
        grid = cli.parse_grid("top2,none")
        assert [p.label() for p in grid] == ["top2", "none"]
        grid = cli.parse_grid("top2,epsilon=0.3,top_k=4")
        assert [p.label() for p in grid] == ["top2", "epsilon=0.3", "top4"]

    @pytest.mark.parametrize("grid", [
        "epsilon=0.3,top2", "epsilon=0.1,none", "top_k=1,top2", "top_k=2.5",
    ])
    def test_grid_list_holds_values_of_its_head(self, grid):
        with pytest.raises(ValueError):
            cli.parse_grid(grid)

    def test_empty_grid(self):
        assert cli.parse_grid("epsilon=") == []


@st.composite
def filter_policies(draw):
    """Every valid policy: none, a finite epsilon >= 0, or a k >= 1."""
    kind = draw(st.sampled_from(["none", "threshold", "top_k"]))
    if kind == "threshold":
        return FilterPolicy.threshold(draw(st.one_of(
            st.floats(min_value=0, allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=2**64))))
    if kind == "top_k":
        return FilterPolicy.top_k(draw(st.integers(min_value=1,
                                                   max_value=2**64)))
    return FilterPolicy.none()


class TestFilterGrammar:
    """A filter's string and dict forms are one grammar, and a sweep grid is
    a list of its strings."""

    @given(filter_policies())
    def test_label_and_dict_give_the_policy(self, policy):
        spec = cli.parse_filter_spec(policy.label())
        assert cli.parse_filter_spec(asdict(policy)) == spec
        assert FilterPolicy(**spec) == policy

    @given(st.lists(filter_policies()))
    def test_grid_of_labels(self, policies):
        labels = ["none"] + [p.label() for p in policies]
        assert cli.parse_grid(",".join(labels)) == [
            FilterPolicy(**cli.parse_filter_spec(label)) for label in labels]

    @given(st.lists(st.floats(min_value=0, allow_nan=False,
                              allow_infinity=False)))
    def test_epsilon_list(self, values):
        text = "epsilon=" + ",".join(repr(v) for v in values)
        assert cli.parse_grid(text) == [
            FilterPolicy(**cli.parse_filter_spec(f"epsilon={v!r}"))
            for v in values]

    @given(st.lists(st.one_of(st.just("none"),
                              st.integers(1, 2**64).map(str))))
    def test_top_k_list(self, values):
        text = "top_k=" + ",".join(values)
        assert cli.parse_grid(text) == [
            FilterPolicy(**cli.parse_filter_spec(
                v if v == "none" else f"top_k={v}"))
            for v in values]


# config-file values that used to run (exit 0), escape as a TypeError
# traceback, or surface as a misleading replay miss; each names a config key,
# or for a filter the field that is wrong
WRONG_CONFIG_VALUES = [
    ("repeats", True, "'repeats'"),
    ("max_concurrency", 2.5, "'max_concurrency'"),
    ("self_consistency_k", 3.0, "'self_consistency_k'"),
    ("filter", {"kind": "top_k", "k": 2.7}, "k"),
    ("filter", {"kind": "threshold", "epsilon": 0.3, "k": 5}, "k"),
    ("temperature_sampling", math.nan, "'temperature_sampling'"),
    ("max_tokens", "512", "'max_tokens'"),
    ("temperature_deterministic", "0.0", "'temperature_deterministic'"),
    ("repeats", "2", "'repeats'"),
    ("transcripts", 5, "'transcripts'"),
    ("info_model", 7, "'info_model'"),
    ("filter", {"kind": "threshold", "epsilon": True}, "epsilon"),
]


class TestConfigValues:
    @pytest.mark.parametrize("command", ["run", "replay-verify"])
    @pytest.mark.parametrize("key,value,named", WRONG_CONFIG_VALUES)
    def test_wrong_value_is_one_line_exit_1(self, tmp_path, capsys, command,
                                            key, value, named):
        config = make_config(tmp_path, **{key: value})
        assert cli.main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        if key == "filter":
            assert "filter" in err
            assert re.search(rf"\b{named}\b", err), err
        else:
            assert named in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data,detail", [
        (b'{"mode": }', "Expecting value: line 1 column 10 (char 9)"),
        (b'{"mode": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["not_json", "not_utf8"])
    def test_malformed_file_is_one_line_naming_it(self, tmp_path, capsys,
                                                  data, detail):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path} is not valid JSON: "
                              f"{detail}") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("max_tokens", ["0", "5000"])
    def test_max_tokens_out_of_range_fails_before_out(self, tmp_path, capsys,
                                                       command, max_tokens):
        config = make_config(tmp_path)
        argv = [command, "--config", str(config), "--max-tokens", max_tokens]
        if command == "sweep":
            argv += ["--grid", "epsilon=0.3"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: max_tokens ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_int_is_taken_for_a_float(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["run", "--config", str(make_config(tmp_path,
                                                temperature_sampling=1))])
        resolved = cli.resolve_config(args)
        assert resolved["temperature_sampling"] == 1.0
        assert type(resolved["temperature_sampling"]) is float

    def test_string_keys_with_a_none_default_take_null(self, tmp_path):
        config = make_config(tmp_path, base_url=None)
        assert cli.main(["run", "--config", str(config)]) == 0

    def test_filter_string_in_a_config_file(self, tmp_path):
        config = make_config(tmp_path, filter="top2")
        args = cli.build_parser().parse_args(["run", "--config", str(config)])
        assert cli.resolve_config(args)["filter"] == {"kind": "top_k", "k": 2}


class TestRunCommand:
    def test_replay_run_full_success(self, tmp_path, capsys):
        config = make_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        rows = load_predictions(out / "predictions.jsonl")
        assert len(rows) == 12
        assert [r.record_id for r in rows] == sorted(r.record_id for r in rows)
        assert all(r.mode == "decisionflow" and r.answer is not None
                   for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["gateway"]["live_calls"] == 0
        assert len(manifest["config_digest"]) == 64
        assert manifest["interrupted"] is False
        assert len(manifest["runs"]) == 12
        assert len(list((out / "traces").glob("*.json"))) == 12
        assert "0 live calls" in capsys.readouterr().out

    def test_abstention_exit_code(self, tmp_path):
        config = make_config(
            tmp_path, mode="zero_shot",
            dataset=str(DATASET_DIR / "mta_edge.jsonl"),
        )
        assert cli.main(["run", "--config", str(config)]) == 2
        rows = load_predictions(tmp_path / "out" / "predictions.jsonl")
        by_id = {r.record_id: r for r in rows}
        assert by_id["mta-edge-refusal"].answer is None
        assert by_id["mta-edge-degenerate"].answer is not None
        manifest = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())
        failed = [r for r in manifest["runs"] if r["abstained"]]
        assert [r["id"] for r in failed] == ["mta-edge-refusal"]
        assert failed[0]["error"] == "OutputParseError"

    def test_infinite_answer_is_an_abstention(self, tmp_path, monkeypatch):
        transport = ScriptedTransport(lambda request: '{"Answer": Infinity}')
        monkeypatch.setattr(cli, "_make_transport", lambda resolved: transport)
        config = make_config(tmp_path, mode="zero_shot", gateway_mode="record",
                             dataset=str(DATASET_DIR / "mta_edge.jsonl"),
                             transcripts=str(tmp_path / "store"))
        assert cli.main(["run", "--config", str(config)]) == 2
        manifest = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())
        assert [r["error"] for r in manifest["runs"]] == ["SchemaError"] * 2

    def test_flags_override_config(self, tmp_path):
        config = make_config(tmp_path)  # mode decisionflow in the file
        assert cli.main(["run", "--config", str(config), "--mode", "cot"]) == 0
        rows = load_predictions(tmp_path / "out" / "predictions.jsonl")
        assert all(r.mode == "cot" for r in rows)

    def test_self_consistency_attempt_indices_in_manifest(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(cli, "_make_transport",
                            lambda resolved: ScriptedTransport())
        records = load_dataset(DATASET_DIR / "mta_small.jsonl", "mta")
        one = [r for r in records if r.record_id == "mta-utilitarianism-high"]
        write_records(one, tmp_path / "one.jsonl")
        config = make_config(
            tmp_path, mode="self_consistency",
            dataset=str(tmp_path / "one.jsonl"),
            transcripts=str(tmp_path / "fresh"),
            gateway_mode="record", repeats=3,
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())
        attempts = [run["attempts"] for run in manifest["runs"]]
        assert attempts == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_record_output_does_not_depend_on_concurrency(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(cli, "_make_transport",
                            lambda resolved: ScriptedTransport())
        for c in (1, 4):
            config = make_config(
                tmp_path, f"c{c}.json", out=str(tmp_path / f"out{c}"),
                transcripts=str(tmp_path / f"store{c}"),
                gateway_mode="record", repeats=3, max_concurrency=c,
            )
            assert cli.main(["run", "--config", str(config)]) == 0
        out1, out4 = tmp_path / "out1", tmp_path / "out4"
        assert (out1 / "predictions.jsonl").read_bytes() == \
            (out4 / "predictions.jsonl").read_bytes()
        traces = sorted(p.name for p in (out1 / "traces").glob("*.json"))
        assert len(traces) == 36
        assert traces == sorted(p.name for p in (out4 / "traces").glob("*.json"))
        for name in traces:
            assert (out1 / "traces" / name).read_bytes() == \
                (out4 / "traces" / name).read_bytes()
        assert TranscriptStore(tmp_path / "store1").digests() == \
            TranscriptStore(tmp_path / "store4").digests()

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_sigint_drains_and_marks_manifest(self, tmp_path, monkeypatch,
                                              concurrency):
        if threading.current_thread() is not threading.main_thread():
            pytest.skip("the SIGINT handler is installed only on the main thread")
        events = []
        run_experiment = cli.run_experiment

        def capture_event(problems, ctx, repeats, interrupt, *rest):
            events.append(interrupt)
            return run_experiment(problems, ctx, repeats, interrupt, *rest)

        execute = pipeline.execute_run
        first = threading.Lock()

        def execute_then_sigint(problem, ctx, repeat=0):
            # the first run sends SIGINT to the main thread, where the
            # handler runs, after a pause long enough for a runner that
            # queues every task up front to have queued them; the others
            # start only once the handler has set the event
            if first.acquire(blocking=False):
                record = execute(problem, ctx, repeat)
                time.sleep(0.1)
                signal.pthread_kill(threading.main_thread().ident,
                                    signal.SIGINT)
                assert events[0].wait(10)
                return record
            assert events[0].wait(10)
            return execute(problem, ctx, repeat)

        monkeypatch.setattr(cli, "run_experiment", capture_event)
        monkeypatch.setattr(pipeline, "execute_run", execute_then_sigint)
        overrides = {}
        if concurrency > 1:  # replay would run execute_run in forked
            # workers, where this SIGINT sender cannot reach the handler
            monkeypatch.setattr(cli, "_make_transport",
                                lambda resolved: ScriptedTransport())
            overrides = {"gateway_mode": "record",
                         "transcripts": str(tmp_path / "store")}
        config = make_config(tmp_path, max_concurrency=concurrency,
                             **overrides)
        assert cli.main(["run", "--config", str(config)]) == \
            cli.EXIT_INTERRUPTED
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["interrupted"] is True
        assert 1 <= len(manifest["runs"]) <= concurrency
        rows = load_predictions(tmp_path / "out" / "predictions.jsonl")
        assert len(rows) == len(manifest["runs"])

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_is_fatal(self, tmp_path, capsys, repeats):
        config = make_config(tmp_path)
        assert cli.main(["run", "--config", str(config),
                         "--repeats", repeats]) == 1
        assert "repeats must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_dataset_is_fatal(self, tmp_path, capsys):
        assert cli.main(["run", "--out", str(tmp_path / "out")]) == 1
        assert "no dataset" in capsys.readouterr().err

    def test_unknown_config_key_is_fatal(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"modee": "cot"}', encoding="utf-8")
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_dataset_id_that_is_a_path_is_fatal(self, tmp_path, capsys):
        first = (DATASET_DIR / "dellma_small.jsonl").read_text(
            encoding="utf-8").splitlines()[0]
        record = {**json.loads(first), "id": "../escaped"}
        dataset = tmp_path / "one.jsonl"
        dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")
        config = make_config(tmp_path, dataset=str(dataset),
                             dataset_kind="dellma",
                             filter={"kind": "top_k", "k": 3})
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "field 'id'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "escaped__r0.json").exists()

    def test_run_and_sweep_never_scan_the_store(self, tmp_path, monkeypatch):
        def scan(store):
            raise AssertionError("whole-store scan")

        monkeypatch.setattr(TranscriptStore, "verify", scan)
        monkeypatch.setattr(TranscriptStore, "digests", scan)
        config = make_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        assert cli.main(["sweep", "--config", str(config),
                         "--grid", "epsilon=0.3"]) == 0

    def test_replay_miss_is_fatal(self, tmp_path, capsys):
        config = make_config(
            tmp_path, mode="cot",
            dataset=str(DATASET_DIR / "dellma_small.jsonl"),
            dataset_kind="dellma",
        )
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "no recorded transcript" in capsys.readouterr().err


def count_runs(monkeypatch) -> list:
    """Wrap pipeline.execute_run; the list gets the (problem id, repeat) of
    each run as it starts."""
    started = []
    execute = pipeline.execute_run

    def counting(problem, ctx, repeat=0):
        started.append((problem.problem_id, repeat))
        return execute(problem, ctx, repeat)

    monkeypatch.setattr(pipeline, "execute_run", counting)
    return started


def trace_files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in (out / "traces").glob("*.json")}


def dataset_with_misses(tmp_path, *at: int) -> Path:
    """mta_small with a problem nobody recorded inserted at each index of
    ``at`` (ascending), a different one for each index."""
    lines = (DATASET_DIR / "mta_small.jsonl").read_text(
        encoding="utf-8").splitlines()
    for index in at:
        unrecorded = json.loads(lines[0])
        unrecorded["id"] = f"mta-unrecorded-{index}"
        unrecorded["scenario"] += f" Nobody recorded this one ({index})."
        lines.insert(index, json.dumps(unrecorded))
    dataset = tmp_path / f"misses_{'_'.join(map(str, at))}.jsonl"
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dataset


def dataset_with_a_miss(tmp_path, at: int) -> Path:
    return dataset_with_misses(tmp_path, at)


class HeldFailuresTransport(ScriptedTransport):
    """Every send whose prompt holds the bias text of mta-risk-aversion-high
    or -low raises BackendError naming that problem; a send for -high first
    waits 0.3 s, so that at c > 1 the later run fails first."""

    def __init__(self):
        super().__init__()
        records = load_dataset(DATASET_DIR / "mta_small.jsonl", "mta")
        self.failing = {r.bias_text: r.record_id for r in records
                        if r.record_id.startswith("mta-risk-aversion-")}

    def send(self, request):
        for bias, problem_id in self.failing.items():
            if bias in request.prompt:
                if problem_id.endswith("-high"):
                    time.sleep(0.3)
                raise BackendError(f"scripted failure for {problem_id}")
        return super().send(request)


class TestTraceOutput:
    """`run` writes each trace file when its run finishes and keeps no trace
    after writing it; the manifest is written last."""

    def test_traces_are_written_as_each_run_finishes(self, tmp_path,
                                                     monkeypatch):
        out = tmp_path / "out"
        seen = []  # trace files present as each run starts
        execute = pipeline.execute_run

        def snapshot_then_execute(problem, ctx, repeat=0):
            seen.append(((problem.problem_id, repeat), trace_files(out)))
            return execute(problem, ctx, repeat)

        returned = []
        run_experiment = cli.run_experiment

        def capture_records(*args):
            returned.extend(run_experiment(*args))
            return returned

        monkeypatch.setattr(pipeline, "execute_run", snapshot_then_execute)
        monkeypatch.setattr(cli, "run_experiment", capture_records)
        config = make_config(tmp_path, repeats=2)
        assert cli.main(["run", "--config", str(config)]) == 0

        final = trace_files(out)
        assert len(seen) == len(final) == 24
        for k, (_, present) in enumerate(seen):
            names = {f"{pid}__r{repeat}.json" for (pid, repeat), _ in seen[:k]}
            assert set(present) == names
            assert all(data == final[name] for name, data in present.items())
        assert len(returned) == 24
        assert all(record.trace == () for record in returned)

    def test_memory_does_not_grow_with_the_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        config = str(CONFIG_DIR / "replay_mta_decisionflow.json")

        def peak(repeats):
            out = tmp_path / f"r{repeats}"
            argv = ["run", "--config", config, "--out", str(out),
                    "--repeats", str(repeats)]
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert cli.main(["run", "--config", config,
                         "--out", str(tmp_path / "warm")]) == 0
        per_run = (peak(4) - peak(1)) / 36  # 12 problems x 3 more repeats
        assert per_run < 10 * 1024, per_run

    def test_replay_miss_leaves_the_finished_traces(self, tmp_path):
        full = tmp_path / "full"
        assert cli.main(["run", "--config", str(make_config(tmp_path)),
                         "--out", str(full)]) == 0
        dataset = dataset_with_a_miss(tmp_path, at=12)
        config = make_config(tmp_path, "miss.json", dataset=str(dataset))
        assert cli.main(["run", "--config", str(config)]) == 1
        out = tmp_path / "out"
        assert not (out / "manifest.json").exists()
        assert not (out / "predictions.jsonl").exists()
        assert trace_files(out) == trace_files(full)
        assert len(trace_files(out)) == 12

    def test_record_failure_leaves_what_a_serial_run_leaves(
            self, tmp_path, monkeypatch, capsys):
        # runs 5 and 6 fail, run 6 first at c > 1; a serial run stops at run
        # 5 with 4 traces, and so does every c
        monkeypatch.chdir(REPO_ROOT)
        monkeypatch.setattr(cli, "_make_transport",
                            lambda resolved: HeldFailuresTransport())

        def run(c):
            out = tmp_path / f"out{c}"
            assert cli.main([
                "run", "--config", str(CONFIG_DIR / "replay_mta_decisionflow.json"),
                "--gateway-mode", "record", "--transcripts",
                str(tmp_path / f"store{c}"), "--out", str(out),
                "--max-concurrency", str(c)]) == 1
            return capsys.readouterr(), trace_files(out)

        serial = run(1)
        assert serial[0].err == \
            "error: scripted failure for mta-risk-aversion-high\n"
        assert len(serial[1]) == 4
        for c in (2, 4):
            assert run(c) == serial

    def test_failed_trace_write_starts_no_further_run(self, tmp_path,
                                                      monkeypatch, capsys):
        started = count_runs(monkeypatch)
        writes = []

        def fail_second_trace(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            if Path(file).parent.name == "traces":
                writes.append(Path(file).name)
                if len(writes) == 2:  # part of it lands, then the disk fills
                    fh.write(b"[\n")
                    fh.close()
                    raise OSError(f"disk full writing {Path(file).name}")
            return fh

        monkeypatch.setattr(datasets, "open", fail_second_trace, raising=False)
        config = make_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "disk full" in capsys.readouterr().err
        assert len(started) == 2
        assert len(trace_files(tmp_path / "out")) == 1
        assert not (tmp_path / "out" / "manifest.json").exists()
        # the failed trace leaves no file, finished or temporary
        left = [p.name for p in (tmp_path / "out" / "traces").iterdir()]
        assert left == list(trace_files(tmp_path / "out"))

    def test_write_past_the_file_size_limit_leaves_no_file(self, tmp_path):
        """A run whose first trace write hits RLIMIT_FSIZE exits 1 and leaves
        no truncated trace behind."""
        child = (
            "import resource, signal, sys\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (8000, 8000))\n"
            "from decisionflow import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        out = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-c", child, "run", "--config",
             str(CONFIG_DIR / "replay_mta_decisionflow.json"), "--out", str(out)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr == "error: [Errno 27] File too large\n"
        assert list((out / "traces").iterdir()) == []

    def test_outputs_get_the_mode_plain_open_gives(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_make_transport",
                            lambda resolved: ScriptedTransport())
        config = make_config(tmp_path, transcripts=str(tmp_path / "store"),
                             gateway_mode="record")
        assert cli.main(["run", "--config", str(config)]) == 0
        trace = next((tmp_path / "out" / "traces").glob("*.json"))
        transcript = next((tmp_path / "store").glob("*/*.json"))
        for path in (trace, transcript):
            plain = path.with_name("plain")
            open(plain, "w").close()
            assert path.stat().st_mode == plain.stat().st_mode, path

    def test_unusable_out_fails_before_the_first_run(self, tmp_path,
                                                     monkeypatch):
        started = count_runs(monkeypatch)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n", encoding="utf-8")
        config = make_config(tmp_path, out=str(taken))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert started == []

    def test_unusable_out_fails_before_the_first_sweep_call(self, tmp_path,
                                                            monkeypatch):
        calls = []
        complete = LlmGateway.complete

        def counting(gateway, request):
            calls.append(request.digest)
            return complete(gateway, request)

        monkeypatch.setattr(LlmGateway, "complete", counting)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n", encoding="utf-8")
        config = make_config(tmp_path, out=str(taken))
        assert cli.main(["sweep", "--config", str(config),
                         "--grid", "epsilon=0.3"]) == 1
        assert calls == []


def start_cli(argv, **popen) -> subprocess.Popen:
    """``decisionflow`` in a child process, importing this checkout."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen(
        [sys.executable, "-c", "import sys; from decisionflow import cli; "
         "sys.exit(cli.main(sys.argv[1:]))", *argv],
        cwd=REPO_ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, **popen)


def processes_where(field: int, value: int) -> list[int]:
    """Pids of the processes, zombies included, whose /proc stat ``field``
    after the command name (1 is the parent pid, 3 the session) is ``value``."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:  # state ppid pgrp session ... follow the ")" closing comm
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we looked
        if int(fields[field]) == value:
            members.append(int(stat.parent.name))
    return members


def session_members(sid: int) -> list[int]:
    return processes_where(3, sid)


def children(pid: int) -> list[int]:
    return processes_where(1, pid)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedReplay:
    """Replay at max_concurrency c > 1 runs each run, and its trace write, in
    one of c forked worker processes."""

    def test_output_does_not_depend_on_concurrency(self, tmp_path,
                                                   monkeypatch):
        pids = tmp_path / "pids"
        write_json = cli.write_json

        def write_noting_pid(value, path, **kwargs):
            write_json(value, path, **kwargs)
            if path.parent.name == "traces":
                with open(pids, "a", encoding="ascii") as fh:
                    fh.write(f"{os.getpid()}\n")

        monkeypatch.setattr(cli, "write_json", write_noting_pid)
        config = make_config(tmp_path, repeats=2)
        out = tmp_path / "out"
        outputs, writers = {}, {}
        for c in (1, 2, 4):
            assert cli.main(["run", "--config", str(config),
                             "--max-concurrency", str(c)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["max_concurrency"] == c
            for key in ("created_at", "config_digest"):
                del manifest[key]
            del manifest["config"]["max_concurrency"]
            for run in manifest["runs"]:
                del run["wall_time"]
            outputs[c] = ((out / "predictions.jsonl").read_bytes(),
                          trace_files(out), manifest)
            writers[c] = set(pids.read_text().split())
            pids.unlink()
            shutil.rmtree(out)
        assert len(outputs[1][1]) == 24
        assert outputs[1][2]["gateway"] == {
            "mode": "replay", "transcripts": str(CORPUS_DIR),
            "live_calls": 0, "cache_hits": 192}
        assert outputs[2] == outputs[1]
        assert outputs[4] == outputs[1]
        assert writers[1] == {str(os.getpid())}
        for c in (2, 4):
            assert len(writers[c]) >= 2
            assert str(os.getpid()) not in writers[c]
        assert children(os.getpid()) == []

    def test_sigint_to_the_session_drains_the_workers(self, tmp_path):
        config = make_config(tmp_path, repeats=40, max_concurrency=2)
        full = tmp_path / "full"
        assert cli.main(["run", "--config", str(config),
                         "--out", str(full)]) == 0
        out = tmp_path / "out"
        proc = start_cli(["run", "--config", str(config)],
                         start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not any((out / "traces").glob("*.json")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == cli.EXIT_INTERRUPTED, err
        assert err.splitlines() == [
            "WARNING decisionflow.cli: interrupt received; draining in-flight "
            "work"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["interrupted"] is True
        left, reference = trace_files(out), trace_files(full)
        assert 0 < len(left) < len(reference) == 480
        assert len(manifest["runs"]) == len(left)
        assert all(data == reference[name] for name, data in left.items())
        assert session_members(proc.pid) == []

    def test_replay_miss_stops_the_workers(self, tmp_path):
        full = tmp_path / "full"
        assert cli.main(["run", "--config", str(make_config(tmp_path)),
                         "--out", str(full), "--repeats", "2"]) == 0
        dataset = dataset_with_a_miss(tmp_path, at=11)
        config = make_config(tmp_path, "miss.json", dataset=str(dataset),
                             repeats=2, max_concurrency=2)
        proc = start_cli(["run", "--config", str(config)])
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        digests = re.findall(r"[0-9a-f]{64}", err)
        assert len(digests) == 1
        assert err == ("error: no recorded transcript for request digest "
                       f"{digests[0]}\n")
        out = tmp_path / "out"
        assert not (out / "manifest.json").exists()
        assert not (out / "predictions.jsonl").exists()
        left, reference = trace_files(out), trace_files(full)
        ids = [json.loads(line)["id"] for line in
               dataset.read_text(encoding="utf-8").splitlines()]
        before = {f"{pid}__r0.json" for pid in ids[:11]}
        # the miss is the 12th run; up to c runs past it may finish
        assert before <= set(left)
        assert len(left) <= len(before) + 2
        assert all(data == reference[name] for name, data in left.items())

    def test_earliest_error_is_raised(self, tmp_path, monkeypatch, capsys):
        execute = pipeline.execute_run

        def hold_back(problem, ctx, repeat=0):  # run 12's error comes first
            if problem.problem_id == "mta-unrecorded-11":
                time.sleep(0.1)
            return execute(problem, ctx, repeat)

        monkeypatch.setattr(pipeline, "execute_run", hold_back)
        full = tmp_path / "full"
        assert cli.main(["run", "--config", str(make_config(tmp_path)),
                         "--out", str(full)]) == 0
        reference = trace_files(full)
        out = tmp_path / "out"

        def run(dataset, c):
            config = make_config(tmp_path, "miss.json", dataset=str(dataset),
                                 max_concurrency=c)
            assert cli.main(["run", "--config", str(config)]) == 1
            left = trace_files(out)
            shutil.rmtree(out)
            return capsys.readouterr().err, left

        # runs 11 and 12 miss; serially run 11's miss ends the run
        dataset = dataset_with_misses(tmp_path, 11, 12)
        first, _ = run(dataset, 1)
        assert first != run(dataset_with_misses(tmp_path, 12), 1)[0]
        ids = [json.loads(line)["id"] for line in
               dataset.read_text(encoding="utf-8").splitlines()]
        before = {f"{pid}__r0.json" for pid in ids[:11]}
        for _ in range(5):
            err, left = run(dataset, 2)
            assert err == first
            assert before <= set(left)
            assert all(data == reference[name] for name, data in left.items())

    def test_corrupt_transcript_fails_alike_at_every_c(self, tmp_path,
                                                      capsys):
        """Run 5 reads a truncated transcript and run 10 a deleted one: the
        workers send run 5's error back, and it alone is reported."""
        full = tmp_path / "full"
        assert cli.main(["run", "--config", str(make_config(tmp_path)),
                         "--out", str(full)]) == 0
        reference = trace_files(full)
        ids = [r.record_id for r in
               load_dataset(DATASET_DIR / "mta_small.jsonl", "mta")]
        reads = {
            record_id: {event["payload"]["digest"]
                        for event in json.loads(reference[f"{record_id}__r0.json"])
                        if event["kind"] == "completion"}
            for record_id in ids}

        def read_only_by(run):
            others = set().union(*(d for i, d in reads.items() if i != run))
            return min(reads[run] - others)

        store = TranscriptStore(tmp_path / "store")
        shutil.copytree(CORPUS_DIR, store.root)
        corrupt = store.path_for(read_only_by(ids[4]))
        corrupt.write_text('{"digest": 1', encoding="utf-8")
        store.path_for(read_only_by(ids[9])).unlink()

        out = tmp_path / "out"
        errors, left = {}, {}
        for c in (1, 2, 4):
            config = make_config(tmp_path, transcripts=str(store.root),
                                 max_concurrency=c)
            assert cli.main(["run", "--config", str(config)]) == 1
            errors[c] = capsys.readouterr().err
            left[c] = trace_files(out)
            shutil.rmtree(out)
        assert errors[1].startswith(f"error: transcript {corrupt} is not "
                                    "valid JSON")
        assert errors[1].count("\n") == 1
        assert set(left[1]) == {f"{i}__r0.json" for i in ids[:4]}
        for c in (2, 4):
            assert errors[c] == errors[1]
            assert set(left[1]) <= set(left[c])
        for files in left.values():
            assert all(data == reference[name] for name, data in files.items())
        assert children(os.getpid()) == []

    def test_killed_worker_fails_the_run(self, tmp_path):
        config = make_config(tmp_path, repeats=40, max_concurrency=2)
        out = tmp_path / "out"
        proc = start_cli(["run", "--config", str(config)],
                         start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while not any((out / "traces").glob("*.json")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.005)
            victim = min(children(proc.pid))
            os.kill(victim, signal.SIGKILL)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 1, err
        assert err == f"error: replay worker {victim} died: SIGKILL\n"
        assert not (out / "manifest.json").exists()
        assert session_members(proc.pid) == []

    def test_sweep_does_not_depend_on_concurrency(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        config = str(CONFIG_DIR / "replay_mta_decisionflow.json")
        outputs = {}
        for c in (1, 2, 4):
            out = tmp_path / f"c{c}"
            assert cli.main(["sweep", "--config", config,
                             "--grid", "epsilon=0.0,0.3,0.7", "--out", str(out),
                             "--max-concurrency", str(c)]) == 0
            sweep = json.loads((out / "sweep.json").read_text())
            del sweep["config_digest"]  # it covers max_concurrency and out
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            outputs[c] = ((out / "sweep.md").read_bytes(), sweep, stdout)
        assert [row["surviving_cells"] for row in outputs[1][1]["settings"]] \
            == [46, 30, 14]
        assert outputs[2] == outputs[1]
        assert outputs[4] == outputs[1]
        assert children(os.getpid()) == []

    def test_replay_loads_no_process_pool(self, tmp_path):
        child = (
            "import sys\n"
            "from decisionflow import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
            " & set(sys.modules)))\n"
            "sys.exit(code)\n"
        )
        config = make_config(tmp_path, max_concurrency=2)
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-c", child, "run", "--config", str(config)],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert "12 runs" in done.stdout
        assert done.stdout.splitlines()[-1] == "[]"


# a record run over the scripted backend that SIGKILLs its own process at
# the n-th send, or at the n-th rename of a transcript into the store
KILLED_CHILD = """
import os, signal, sys, threading
from decisionflow import cli
from decisionflow.testing import ScriptedTransport
where, at, store = sys.argv[1], int(sys.argv[2]), sys.argv[3]
count, lock = 0, threading.Lock()

def count_towards_the_kill():
    global count
    with lock:
        count += 1
        if count == at:
            os.kill(os.getpid(), signal.SIGKILL)

class Transport(ScriptedTransport):
    def send(self, request):
        if where == "send":
            count_towards_the_kill()
        return super().send(request)

replace = os.replace

def dying_replace(src, dst):
    if where == "rename" and os.fspath(dst).startswith(store):
        count_towards_the_kill()
    return replace(src, dst)

os.replace = dying_replace
cli._make_transport = lambda resolved: Transport()
sys.exit(cli.main(sys.argv[4:]))
"""


class TestRecordResumesAfterAKill:
    """A record run killed with SIGKILL at any point resumes exactly: the
    same command sends only the missing digests, each once, and gives the
    pinned output of an uninterrupted replay."""

    @pytest.mark.parametrize("where, at, c", [
        ("send", 1, 1), ("send", 40, 1), ("send", 90, 1), ("send", 40, 3),
        ("rename", 20, 1)])
    def test_rerun_sends_the_missing_digests(self, where, at, c, tmp_path,
                                             monkeypatch):
        store = tmp_path / "store"
        config = str(make_config(tmp_path, gateway_mode="record",
                                 transcripts=str(store), max_concurrency=c))
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_CHILD, where, str(at), str(store),
             "run", "--config", config],
            cwd=REPO_ROOT, env=env, capture_output=True, timeout=60)
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        before = set(TranscriptStore(store).digests())
        strays = sorted(store.rglob("*.tmp"))
        if c == 1:
            assert len(before) == at - 1
            assert len(strays) == (where == "rename")

        sends, lock = [], threading.Lock()

        class Logging(ScriptedTransport):
            def send(self, request):
                with lock:
                    sends.append(request.digest)
                return super().send(request)

        monkeypatch.setattr(cli, "_make_transport", lambda resolved: Logging())
        assert cli.main(["run", "--config", config]) == 0
        after = set(TranscriptStore(store).digests())
        assert len(after) == 90
        assert sorted(sends) == sorted(after - before)
        assert run_output_digest(tmp_path / "out") == PINNED["decisionflow"]
        # a temporary file the kill left stays, and verification skips it
        assert sorted(store.rglob("*.tmp")) == strays
        assert cli.main(["replay-verify", "--config", config]) == 0


class TestEvalCommand:
    def test_eval_matches_library_scoring(self, tmp_path):
        config = make_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert cli.main([
            "eval", "--predictions", str(out / "predictions.jsonl"),
            "--dataset", str(DATASET_DIR / "mta_small.jsonl"),
            "--dataset-kind", "mta", "--out", str(out),
        ]) == 0
        report = json.loads((out / "report.json").read_text())
        records = load_dataset(DATASET_DIR / "mta_small.jsonl", "mta")
        rows = load_predictions(out / "predictions.jsonl")
        expected = evaluate(rows, records, "mta")
        assert report["overall_accuracy"] == expected["overall_accuracy"]
        assert report["alignment"] == expected["alignment"]
        text = (out / "report.md").read_text()
        assert "High-acc | Low-acc | Avg-acc" in text

    def test_eval_missing_predictions_file(self, tmp_path, capsys):
        assert cli.main([
            "eval", "--predictions", str(tmp_path / "nope.jsonl"),
            "--dataset", str(DATASET_DIR / "mta_small.jsonl"),
            "--dataset-kind", "mta", "--out", str(tmp_path),
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_bad_predictions_file_is_named(self, tmp_path, capsys):
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text('{"id": "a", "mode": "cot", "repeat": 0, '
                               '"answer": "maybe"}\n', encoding="utf-8")
        dataset = DATASET_DIR / "mta_small.jsonl"
        assert cli.main([
            "eval", "--predictions", str(predictions),
            "--dataset", str(dataset), "--dataset-kind", "mta",
            "--out", str(tmp_path / "out"),
        ]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: answer must be an integer index or the abstain "
                       f"marker in {predictions} (line 1, field 'answer')\n")

    def test_eval_bad_dataset_file_is_named(self, tmp_path, capsys):
        config = make_config(tmp_path)
        assert cli.main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        dataset = tmp_path / "latin1.jsonl"
        dataset.write_bytes((DATASET_DIR / "mta_small.jsonl").read_bytes()
                            + b'{"id": "caf\xe9"}\n')
        assert cli.main([
            "eval", "--predictions", str(tmp_path / "out" / "predictions.jsonl"),
            "--dataset", str(dataset), "--dataset-kind", "mta",
            "--out", str(tmp_path / "out"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: not UTF-8: ")
        assert err.endswith(f" in {dataset} (line 13)\n")


class ThreadCountingTransport(ScriptedTransport):
    """Scripted backend that notes, under a lock, each send's digest and the
    live thread count, and holds each send for a moment so workers overlap."""

    def __init__(self):
        super().__init__()
        self.digests = set()
        self.active = []
        self._lock = threading.Lock()

    def send(self, request):
        with self._lock:
            self.digests.add(request.digest)
            self.active.append(threading.active_count())
        time.sleep(0.002)
        return super().send(request)


def record_sweep_config(tmp_path, monkeypatch, transport, concurrency):
    monkeypatch.setattr(cli, "_make_transport", lambda resolved: transport)
    return make_config(tmp_path, gateway_mode="record",
                       transcripts=str(tmp_path / "store"),
                       max_concurrency=concurrency)


def abstaining_script(broken):
    """The fixture script, but no attribute table for ``broken``'s run."""
    def script(request):
        if request.stage_tag == "summarize_attributes" \
                and broken.bias_text in request.prompt:
            return "no attribute table here"
        return fixture_script(request)
    return script


# stage tag -> (a reply its parser rejects, the error, the mode that sends it)
BROKEN_REPLIES = {
    "extract_info": ('{"information": 3}', "SchemaError", "decisionflow"),
    "summarize_attributes": (
        '{"Variable": [{"Variable": "Nobody named here", "Attribute": []}]}',
        "AlignmentError", "decisionflow"),
    "weigh": ('{"Weight": "high"}', "SchemaError", "decisionflow"),
    "ground_and_decide": ('{"Scores": []}', "CompletenessError", "decisionflow"),
    "zero_shot": (REFUSAL_TEXT, "OutputParseError", "zero_shot"),
}


@pytest.mark.parametrize("stage, concurrency", [
    *((stage, 1) for stage in BROKEN_REPLIES), ("weigh", 3)])
def test_abstained_trace_ends_with_the_rejected_completion(
        stage, concurrency, tmp_path, monkeypatch):
    """A stage error carries only its message; the text its parser rejected
    is the last event of the run's trace file."""
    records = load_dataset(DATASET_DIR / "mta_small.jsonl", "mta")
    broken = records[2]
    reply, error, mode = BROKEN_REPLIES[stage]
    # an extraction prompt holds no directive, so both runs of the scenario
    # send it; the weigh case breaks cell (1, 0) only, so cell (1, 1) is
    # answered but never reaches the trace
    markers = {
        "extract_info": (broken.scenario,),
        "weigh": (broken.bias_text, f'Action: "{broken.choices[1]}"\n'
                                    'Attribute: "Expected benefit"'),
    }.get(stage, (broken.bias_text,))

    def script(request):
        if request.stage_tag == stage and all(m in request.prompt for m in markers):
            return reply
        return fixture_script(request)

    config = record_sweep_config(tmp_path, monkeypatch, ScriptedTransport(script),
                                 concurrency)
    assert cli.main(["run", "--config", str(config), "--mode", mode]) \
        == cli.EXIT_PARTIAL
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    abstained = [(run["id"], run["error"]) for run in manifest["runs"]
                 if run["abstained"]]
    hit = [r.record_id for r in records if markers[0] in (r.scenario, r.bias_text)]
    assert abstained == [(record_id, error) for record_id in hit]
    for record_id in hit:
        trace = json.loads(
            (out / "traces" / f"{record_id}__r0.json").read_text())
        last = trace[-1]
        assert last["kind"] == "completion"
        assert last["payload"]["stage_tag"] == stage
        assert last["payload"]["text"] == reply


class TestSweepCommand:
    def test_record_sweep_runs_on_the_run_pool(self, tmp_path, monkeypatch):
        # c runs at once, each with c weigh calls at once: the calling
        # thread plus c * c - 1 pool threads, and one send per digest
        transport = ThreadCountingTransport()
        config = record_sweep_config(tmp_path, monkeypatch, transport, 2)
        before = threading.active_count()
        assert cli.main(["sweep", "--config", str(config),
                         "--grid", "epsilon=0.0,0.3"]) == 0
        assert 0 < max(transport.active) - before <= 2 * 2 - 1
        assert len(transport.active) == len(transport.digests) == 90

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_abstaining_run_stops_the_sweep(self, tmp_path, monkeypatch,
                                            capsys, concurrency):
        records = load_dataset(DATASET_DIR / "mta_small.jsonl", "mta")
        broken = records[2]
        started = count_runs(monkeypatch)
        config = record_sweep_config(
            tmp_path, monkeypatch, ScriptedTransport(abstaining_script(broken)),
            concurrency)
        assert cli.main(["sweep", "--config", str(config),
                         "--grid", "epsilon=0.3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert broken.record_id in err and "OutputParseError" in err
        assert not (tmp_path / "out" / "sweep.json").exists()
        if concurrency == 1:  # serial: no run starts after the abstention
            assert started == [(r.record_id, 0) for r in records[:3]]

    def test_abstaining_replay_sweep_prints_one_line(self, tmp_path,
                                                     monkeypatch):
        broken = load_dataset(DATASET_DIR / "mta_small.jsonl", "mta")[2]
        store = str(tmp_path / "store")
        record = record_sweep_config(
            tmp_path, monkeypatch, ScriptedTransport(abstaining_script(broken)),
            1)
        assert cli.main(["run", "--config", str(record)]) == cli.EXIT_PARTIAL
        config = make_config(tmp_path, "replay.json", transcripts=store,
                             max_concurrency=2)
        proc = start_cli(["sweep", "--config", str(config),
                          "--grid", "epsilon=0.3"])
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err == (f"error: cannot sweep: the run of {broken.record_id} "
                       "abstained (OutputParseError)\n")

    @pytest.mark.parametrize("concurrency", [1, 2])
    def test_interrupt_stops_further_sweep_runs(self, tmp_path, monkeypatch,
                                                concurrency):
        execute = pipeline.execute_run
        started = []

        def interrupted_on_main_thread(problem, ctx, repeat=0):
            started.append(problem.problem_id)
            if threading.current_thread() is threading.main_thread() \
                    and len(started) > 1:
                raise KeyboardInterrupt
            return execute(problem, ctx, repeat)

        monkeypatch.setattr(pipeline, "execute_run", interrupted_on_main_thread)
        config = record_sweep_config(tmp_path, monkeypatch,
                                     ScriptedTransport(), concurrency)
        assert cli.main(["sweep", "--config", str(config),
                         "--grid", "epsilon=0.3"]) == cli.EXIT_INTERRUPTED
        assert len(started) < 12
        assert not (tmp_path / "out" / "sweep.json").exists()

    def test_sweep_outputs_and_monotone_support(self, tmp_path):
        config = make_config(tmp_path)
        assert cli.main([
            "sweep", "--config", str(config),
            "--grid", "epsilon=0.0,0.1,0.3,0.5,0.7",
        ]) == 0
        sweep = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert sweep["live_calls"] == 0
        labels = [row["label"] for row in sweep["settings"]]
        assert labels == ["epsilon=0.0", "epsilon=0.1", "epsilon=0.3",
                          "epsilon=0.5", "epsilon=0.7"]
        cells = [row["surviving_cells"] for row in sweep["settings"]]
        assert cells == sorted(cells, reverse=True)
        assert (tmp_path / "out" / "sweep.md").exists()

    def test_sweep_top_k_grid(self, tmp_path):
        config = make_config(
            tmp_path, dataset=str(DATASET_DIR / "dellma_small.jsonl"),
            dataset_kind="dellma", filter={"kind": "top_k", "k": 3},
        )
        assert cli.main([
            "sweep", "--config", str(config), "--grid", "top_k=1,2,3,none",
        ]) == 0
        sweep = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert [row["label"] for row in sweep["settings"]] == [
            "top1", "top2", "top3", "none"]

    def test_sweep_replays_through_the_mode_options(self, tmp_path):
        surviving = {}
        for mode in ("decisionflow", "ablate_no_scoring", "ablate_both"):
            config = make_config(tmp_path, f"{mode}.json", mode=mode,
                                 out=str(tmp_path / mode))
            assert cli.main([
                "sweep", "--config", str(config),
                "--grid", "epsilon=0.0,0.3,0.7",
            ]) == 0
            sweep = json.loads((tmp_path / mode / "sweep.json").read_text())
            assert sweep["live_calls"] == 0
            surviving[mode] = [row["surviving_cells"]
                               for row in sweep["settings"]]
        assert surviving["decisionflow"] == [46, 30, 14]
        # all-ones weights survive every threshold below 1
        assert surviving["ablate_no_scoring"] == [48, 48, 48]
        assert surviving["ablate_both"] == [48, 48, 48]

    def test_empty_grid_is_fatal(self, tmp_path, capsys):
        config = make_config(tmp_path)
        assert cli.main([
            "sweep", "--config", str(config), "--grid", "epsilon=",
        ]) == 1
        assert "empty sweep grid" in capsys.readouterr().err

    def test_baseline_mode_cannot_sweep(self, tmp_path, capsys):
        config = make_config(tmp_path, mode="zero_shot")
        assert cli.main([
            "sweep", "--config", str(config), "--grid", "epsilon=0.3",
        ]) == 1
        assert "structured mode" in capsys.readouterr().err


class TestReplayVerifyCommand:
    def test_integrity_only(self, capsys):
        assert cli.main([
            "replay-verify", "--transcripts", str(CORPUS_DIR),
        ]) == 0
        assert "transcripts verified" in capsys.readouterr().out

    def test_coverage_ok(self, tmp_path):
        config = make_config(tmp_path)
        assert cli.main([
            "replay-verify", "--transcripts", str(CORPUS_DIR),
            "--config", str(config),
        ]) == 0

    def test_coverage_missing_lists_digests(self, tmp_path, capsys):
        config = make_config(
            tmp_path, mode="cot",
            dataset=str(DATASET_DIR / "dellma_small.jsonl"),
            dataset_kind="dellma",
        )
        assert cli.main([
            "replay-verify", "--transcripts", str(CORPUS_DIR),
            "--config", str(config),
        ]) == 1
        err = capsys.readouterr().err
        assert err.count("missing transcript") == 6

    def test_corrupt_store_is_fatal(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        gateway = LlmGateway(
            GatewayConfig(mode="record", transcript_dir=store_dir),
            ScriptedTransport(),
        )
        gateway.complete(CompletionRequest(
            model="reasoning-model", prompt="hello", temperature=0.0,
            stage_tag="zero_shot",
        ))
        victim = next(store_dir.rglob("*.json"))
        entry = json.loads(victim.read_text())
        entry["request"]["prompt"] = "tampered"
        victim.write_text(json.dumps(entry, indent=2))
        assert cli.main([
            "replay-verify", "--transcripts", str(store_dir),
        ]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("garbage", [False, True])
    def test_misplaced_transcript_is_fatal(self, tmp_path, capsys, garbage):
        """A file that sits where no read would look for it is still read."""
        store_dir = tmp_path / "store"
        shutil.copytree(CORPUS_DIR, store_dir)
        original = min(store_dir.glob("*/*.json"))
        stray = store_dir / "ff" / original.name
        assert original.parent.name != "ff"
        stray.parent.mkdir(exist_ok=True)
        stray.write_bytes(b"garbage" if garbage else original.read_bytes())
        assert cli.main([
            "replay-verify", "--transcripts", str(store_dir),
        ]) == 1
        err = capsys.readouterr().err
        expected = ("is not valid JSON" if garbage else
                    f"hashes to {original.stem}; it belongs at {original}")
        assert err.startswith(f"error: transcript {stray} {expected}")

    def test_stray_json_file_is_fatal(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        shutil.copytree(CORPUS_DIR, store_dir)
        stray = store_dir / "03" / "notes.json"
        stray.write_text("{}", encoding="utf-8")
        assert cli.main([
            "replay-verify", "--transcripts", str(store_dir),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: transcript {stray} has a malformed request: 'request'\n")

    def test_truncated_transcript_names_its_file(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(cli, "_make_transport",
                            lambda resolved: ScriptedTransport())
        store_dir = tmp_path / "store"
        config = make_config(tmp_path, mode="zero_shot",
                             transcripts=str(store_dir))
        # every transcript in this store is one the replayed run reads
        assert cli.main(["run", "--config", str(config),
                         "--gateway-mode", "record"]) == 0
        victim = next(store_dir.rglob("*.json"))
        victim.write_bytes(victim.read_bytes()[:40])
        assert cli.main([
            "replay-verify", "--transcripts", str(store_dir),
        ]) == 1
        err = capsys.readouterr().err
        assert str(victim) in err
        assert "not valid JSON" in err

        assert cli.main(["run", "--config", str(config)]) == 1
        assert str(victim) in capsys.readouterr().err

    def test_bundled_configs_name_their_store(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        configs = sorted(CONFIG_DIR.glob("*.json"))
        for config in configs:
            assert cli.main(["replay-verify", "--config", str(config)]) == 0, \
                config.name
        out = capsys.readouterr().out
        assert out.count("verified in fixtures/transcripts") == len(configs) == 9

    def test_run_flags_set_the_checked_experiment(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        config = str(CONFIG_DIR / "replay_mta_decisionflow.json")
        assert cli.main([
            "replay-verify", "--config", config, "--filter", "top2",
        ]) == 0
        assert cli.main([
            "replay-verify", "--config", config, "--filter", "top1",
        ]) == 1
        assert "missing transcript" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--gateway-mode", "record"],
                                      ["--out", "x"],
                                      ["--max-concurrency", "4"]])
    def test_rejects_flags_it_would_ignore(self, monkeypatch, capsys, flag):
        monkeypatch.chdir(REPO_ROOT)
        config = str(CONFIG_DIR / "replay_mta_cot.json")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["replay-verify", "--config", config, *flag])
        assert excinfo.value.code == cli.EXIT_FATAL
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_store_is_fatal(self, tmp_path, capsys):
        assert cli.main([
            "replay-verify", "--transcripts", str(tmp_path / "nowhere"),
        ]) == 1
        assert "not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("with_config", [False, True])
    def test_store_is_verified_once(self, tmp_path, monkeypatch, with_config):
        calls = []
        verify = TranscriptStore.verify

        def counting_verify(store):
            calls.append(store.root)
            return verify(store)

        monkeypatch.setattr(TranscriptStore, "verify", counting_verify)
        argv = ["replay-verify", "--transcripts", str(CORPUS_DIR)]
        if with_config:
            argv += ["--config", str(make_config(tmp_path))]
        assert cli.main(argv) == 0
        assert len(calls) == 1


# frozen outputs: a refactor of the config defaults or the report writer that
# changes one of these has changed behaviour
CONFIG_DIGESTS = {
    "replay_dellma_decisionflow.json":
        "5a57d44c0c7eb6144ed30128d7f18c9dce77a94bf416e9613da3e7c467cf017d",
    "replay_edge_decisionflow.json":
        "19f3160d4d1fb595c906fe818c2ad5ec650f0c25ea4ee880d5113f2313904365",
    "replay_edge_zero_shot.json":
        "06fb8f2715ab7bcc9d7d79ee22f066f802b4f5b8745c3a72728220fdd3305b90",
    "replay_mta_cot.json":
        "cf8ed5437e9106497e5a049a74e855e493e2d879eca180968c1cb40ec514fb8c",
    "replay_mta_cot_with_tools.json":
        "7fa46fba19a386396a16eb4cd4e8979aee342cb829355c7687f4a0702d356eed",
    "replay_mta_decisionflow.json":
        "fcc8e733cb30b8447f44779bf49af2ae555e8ed4c984b650df4e09d4064673d7",
    "replay_mta_joint.json":
        "76cd9d8626b4ad77fab614c30747bedb2f49a46bb01d1bc9038e2c516b12d67e",
    "replay_mta_self_consistency.json":
        "1719c396654e97e5d7bd8674edb04750f01c7b23f432b4520e8ed94288189e8e",
    "replay_mta_zero_shot.json":
        "3752d187e1e05bc4c72e849f28b116ed23a0782cae449aba55106bcca5db19b1",
}

REPORT_SHA256 = {
    ("mta_decisionflow", "report.json"):
        "77bc117912047499ae70457b0da53dd3793a9a8a06b505db8c02026eb91b7250",
    ("mta_decisionflow", "report.md"):
        "adaf71d048a83cc08e7a7d4bb4b8e3e0ec6e7c00492a5053b7d6feb87d627d3a",
    ("dellma_decisionflow", "report.json"):
        "8bba5ac72c82b9d59dac718cb8c988f20d6093bdd8c64caac8eb2b4ef05fc292",
    ("dellma_decisionflow", "report.md"):
        "dc364f8aa5c18e447b1bbc7ec7a75247c1048d8a52a85be7e427e1f82c6068fe",
}


class TestFrozenOutputs:
    def test_bundled_config_digests(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        digests = {}
        for config in sorted(CONFIG_DIR.glob("*.json")):
            args = cli.build_parser().parse_args(
                ["run", "--config", str(config)])
            digests[config.name] = cli.config_digest(cli.resolve_config(args))
        assert digests == CONFIG_DIGESTS

    @pytest.mark.parametrize("name,dataset,kind", [
        ("mta_decisionflow", "mta_small", "mta"),
        ("dellma_decisionflow", "dellma_small", "dellma"),
    ])
    def test_eval_report_bytes(self, tmp_path, monkeypatch, name, dataset,
                               kind):
        monkeypatch.chdir(REPO_ROOT)
        out = tmp_path / name
        assert cli.main(["run", "--config",
                         str(CONFIG_DIR / f"replay_{name}.json"),
                         "--out", str(out)]) == 0
        assert cli.main([
            "eval", "--predictions", str(out / "predictions.jsonl"),
            "--dataset", str(DATASET_DIR / f"{dataset}.jsonl"),
            "--dataset-kind", kind, "--out", str(out),
        ]) == 0
        for report in ("report.json", "report.md"):
            digest = hashlib.sha256((out / report).read_bytes()).hexdigest()
            assert digest == REPORT_SHA256[name, report], report


class TestParserBehavior:
    def test_config_keys_and_flags_are_pinned(self):
        """A new config key or flag has to change this pin on purpose."""
        assert sorted(cli.DEFAULT_CONFIG) == [
            "base_url", "dataset", "dataset_kind", "filter", "filter_target",
            "gateway_mode", "info_model", "max_concurrency", "max_tokens",
            "mode", "out", "reasoning_model", "repeats", "self_consistency_k",
            "temperature_deterministic", "temperature_sampling", "transcripts",
        ]
        shared = ["--config", "--dataset", "--dataset-kind", "--filter",
                  "--filter-target", "--help", "--info-model",
                  "--max-tokens", "--mode",
                  "--reasoning-model", "--repeats", "--self-consistency-k",
                  "--transcripts", "-h"]
        subparsers = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)).choices
        options = {
            name: sorted(s for action in subparsers[name]._actions
                         for s in action.option_strings)
            for name in ("run", "sweep", "replay-verify", "eval")
        }
        assert options == {
            "run": sorted(shared + ["--gateway-mode", "--max-concurrency",
                                    "--out"]),
            "sweep": sorted(shared + ["--gateway-mode", "--grid",
                                      "--max-concurrency", "--out"]),
            "replay-verify": shared,
            "eval": ["--dataset", "--dataset-kind", "--help", "--out",
                     "--predictions", "-h"],
        }

    def test_usage_errors_exit_fatal_not_partial(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bogus-command"])
        assert excinfo.value.code == 1

    def test_run_requires_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 1
