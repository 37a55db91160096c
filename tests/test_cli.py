"""End-to-end CLI tests over the bundled replay corpus."""

from __future__ import annotations

import json
import signal
import threading
import time
from pathlib import Path

import pytest

from conftest import CONFIG_DIR, CORPUS_DIR, DATASET_DIR, REPO_ROOT
from decisionflow import cli, pipeline
from decisionflow.datasets import load_dataset, load_predictions, write_records
from decisionflow.gateway import (
    CompletionRequest,
    GatewayConfig,
    LlmGateway,
    TranscriptStore,
)
from decisionflow.metrics import evaluate
from decisionflow.testing import ScriptedTransport


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
        assert cli.parse_filter_spec({"kind": "threshold", "epsilon": "0.5"}) \
            == {"kind": "threshold", "epsilon": 0.5}
        assert cli.parse_filter_spec({"kind": "none"}) == {"kind": "none"}

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            cli.parse_filter_spec("sieve")
        with pytest.raises(ValueError):
            cli.parse_filter_spec({"kind": "colander"})

    def test_grid_forms(self):
        grid = cli.parse_grid("epsilon=0.0,0.1,0.3")
        assert [p.label() for p in grid] == [
            "epsilon=0.0", "epsilon=0.1", "epsilon=0.3"]
        grid = cli.parse_grid("top_k=1,2,none")
        assert [p.label() for p in grid] == ["top1", "top2", "none"]
        grid = cli.parse_grid("top2,none")
        assert [p.label() for p in grid] == ["top2", "none"]

    def test_empty_grid(self):
        assert cli.parse_grid("epsilon=") == []


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

    def test_replay_run_is_deterministic(self, tmp_path):
        config_a = make_config(tmp_path, "a.json", out=str(tmp_path / "a"))
        config_b = make_config(tmp_path, "b.json", out=str(tmp_path / "b"))
        assert cli.main(["run", "--config", str(config_a)]) == 0
        assert cli.main(["run", "--config", str(config_b)]) == 0
        preds_a = (tmp_path / "a" / "predictions.jsonl").read_bytes()
        preds_b = (tmp_path / "b" / "predictions.jsonl").read_bytes()
        assert preds_a == preds_b
        for trace_a in sorted((tmp_path / "a" / "traces").glob("*.json")):
            trace_b = tmp_path / "b" / "traces" / trace_a.name
            assert trace_a.read_bytes() == trace_b.read_bytes()

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

    def test_flags_override_config(self, tmp_path):
        config = make_config(tmp_path)  # mode decisionflow in the file
        assert cli.main(["run", "--config", str(config), "--mode", "cot"]) == 0
        rows = load_predictions(tmp_path / "out" / "predictions.jsonl")
        assert all(r.mode == "cot" for r in rows)

    def test_bundled_config_files_replay(self, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        for name in ("replay_mta_joint.json", "replay_mta_cot_with_tools.json",
                     "replay_dellma_decisionflow.json"):
            out = tmp_path / name.replace(".json", "")
            code = cli.main([
                "run", "--config", str(CONFIG_DIR / name), "--out", str(out),
            ])
            assert code == 0, name
            assert (out / "predictions.jsonl").exists()

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

        def capture_event(problems, ctx, repeats, interrupt):
            events.append(interrupt)
            return run_experiment(problems, ctx, repeats, interrupt)

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
        config = make_config(tmp_path, max_concurrency=concurrency)
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

    def test_replay_miss_is_fatal(self, tmp_path, capsys):
        config = make_config(
            tmp_path, mode="cot",
            dataset=str(DATASET_DIR / "dellma_small.jsonl"),
            dataset_kind="dellma",
        )
        assert cli.main(["run", "--config", str(config)]) == 1
        assert "no recorded transcript" in capsys.readouterr().err


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


class TestSweepCommand:
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


    def test_truncated_transcript_names_its_file(self, tmp_path, capsys):
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
        victim.write_bytes(victim.read_bytes()[:40])
        assert cli.main([
            "replay-verify", "--transcripts", str(store_dir),
        ]) == 1
        err = capsys.readouterr().err
        assert str(victim) in err
        assert "not valid JSON" in err

        config = make_config(tmp_path, transcripts=str(store_dir))
        assert cli.main(["run", "--config", str(config)]) == 1
        assert str(victim) in capsys.readouterr().err

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


class TestParserBehavior:
    def test_usage_errors_exit_fatal_not_partial(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bogus-command"])
        assert excinfo.value.code == 1

    def test_run_requires_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 1
