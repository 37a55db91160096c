"""Frozen replay output per mode, and the corpus it replays from.

Each of the nine modes replays the bundled MTA config from the recorded
corpus. A SHA-256 over ``predictions.jsonl`` plus every trace file (sorted by
name) must equal the digest frozen here, so a refactor that changes a single
prediction or trace byte fails, not only one that makes two replays of the
same code disagree. Re-recording the corpus with
``scripts/record_fixtures.py`` must give back every transcript file, byte for
byte apart from its ``recorded_at`` time.
"""

from __future__ import annotations

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CONFIG_DIR, CORPUS_DIR, REPO_ROOT
from decisionflow import cli
from decisionflow.pipeline import MODES

PINNED = {
    "decisionflow":
        "19835f845c917c8b0d91f39731738b31c8943b4de2c48db131ffaeaf326bbefe",
    "zero_shot":
        "aae95e730897899362258235b3095a04ca95e60dedb37254a511309acb09fd6e",
    "cot":
        "ba52ece6a2a0be2414b70d5b61f42d2c55e1ac8b513c5fe4cb8b4ba82bcca5b7",
    "cot_with_tools":
        "c76001404b70032894d0edf05f9caa74842b1ed171d4ad9009e78d874c3a8aaf",
    "self_consistency":
        "f43d2c102a41cce632623b051bc445e6be48bac20f5efe66d2c00b665e16c5b1",
    "joint":
        "c4e15dbe7c4fa5fd504baa06fe3558c0fa8df2d260345bf4a2377bdadcfb0451",
    "ablate_no_filter":
        "830102a72d1e5045cc72f142b6007b1fc5aed05d9b17779d626824779f23d240",
    "ablate_no_scoring":
        "4a2f467b1eb20d07adbbe2a07bd608e28a7dbcbdac92fac8642628ac937ef21f",
    "ablate_both":
        "7747e6eabe86b641f9ec61dc326a43e592f92a5be666131182f839aa6f3bc593",
}


def run_output_digest(out: Path) -> str:
    h = hashlib.sha256()
    h.update((out / "predictions.jsonl").read_bytes())
    for trace in sorted((out / "traces").glob("*.json")):
        h.update(trace.name.encode("utf-8") + b"\0")
        h.update(trace.read_bytes())
    return h.hexdigest()


def test_every_mode_is_pinned():
    assert set(PINNED) == set(MODES)


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_mode_replay_matches_pinned_digest(mode, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / mode
    code = cli.main([
        "run", "--config", str(CONFIG_DIR / "replay_mta_decisionflow.json"),
        "--mode", mode, "--out", str(out),
    ])
    assert code == 0
    assert run_output_digest(out) == PINNED[mode]


RECORDED_AT = re.compile(rb'\n  "recorded_at": "[^"]*",\n')


def _transcripts(root: Path) -> dict[str, bytes]:
    """Relative path -> file bytes with the recorded_at line taken out."""
    return {str(path.relative_to(root)):
            RECORDED_AT.sub(b"\n", path.read_bytes())
            for path in root.rglob("*") if path.is_file()}


def test_record_fixtures_reproduces_the_corpus(tmp_path):
    out = tmp_path / "transcripts"
    subprocess.run([sys.executable, str(REPO_ROOT / "scripts" /
                                        "record_fixtures.py"),
                    "--out", str(out)],
                   check=True, capture_output=True, timeout=120)
    recorded = _transcripts(out)
    assert len(recorded) == 311
    assert recorded == _transcripts(CORPUS_DIR)
