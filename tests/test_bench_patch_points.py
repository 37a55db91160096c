"""The benchmark's patch points exist and come back intact.

``perfbench/spans.py`` times a traced pass by replacing functions at the
names their callers look up (``pipeline.request_digest``,
``pipeline.ThreadPoolExecutor``, ``TranscriptStore.has``, ...). Removing
one of those names breaks only traced benchmark passes, so this test runs
the instrumentation in-process and then undoes it.
"""

from __future__ import annotations

import importlib.util
import sys

from conftest import REPO_ROOT


def _load_spans(monkeypatch):
    name = "perfbench_spans"
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_exists_and_is_restored(monkeypatch):
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, None)
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    assert patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
