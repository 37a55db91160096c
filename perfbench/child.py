"""One timed pass of a workload, in a fresh process.

Usage: ``python3 perfbench/child.py SPEC.json``. The spec names the
``decisionflow`` arguments, the source tree to import the program from,
whether the pass records (then the backend is the fixed-latency transport),
and whether the pass is traced. The pass times ``decisionflow.cli.main``
and writes a JSON result (and, when traced, the spans) to the paths in the
spec.

A fresh process per pass keeps passes independent and makes the process's
peak resident memory the memory of that workload alone.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """Peak resident memory of this process since it started the program.

    ``ru_maxrss`` is not that on Linux: it keeps the high-water mark of the
    memory the process had before ``exec``, which after ``vfork`` is the
    parent's, so it reads the harness's size whenever that is larger.
    ``VmHWM`` is the mark of the current address space only.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from decisionflow import cli

    import spans as tracing
    from transport import FixedLatencyTransport

    transport = None
    if spec["record"]:
        transport = FixedLatencyTransport()
        cli._make_transport = lambda resolved: transport

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.instrument(tracer, transport)

    started = time.perf_counter()
    code = cli.main(spec["argv"])
    wall = time.perf_counter() - started

    result = {
        "wall_s": wall,
        "exit_code": code,
        "transport": transport.counters() if transport else None,
        "maxrss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        tracer.restore()
        Path(spec["spans"]).write_text(
            json.dumps([s.to_json() for s in tracer.spans]), encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
