#!/usr/bin/env python3
"""decisionflow benchmark.

Usage, from the root of a decisionflow checkout:

    python3 perfbench/run.py --workload replay-verbose --seed 1 --seconds 50 --trace 0

Workloads are ``replay-verbose`` and ``record-dup`` (see ``workloads.py``).
The run builds its inputs from ``--seed``, measures for about ``--seconds``
seconds, checks every pass's outputs against a reference, prints the
metrics by name with their units, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``. It exits 0 only when every output was correct.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATASET = ROOT / "fixtures" / "datasets" / "dellma_small.jsonl"
WORK_ROOT = ROOT / ".bench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="decisionflow benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT))
               for p in (SRC / "decisionflow" / "cli.py", DATASET, ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run it inside a "
              "decisionflow checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import decisionflow

    if Path(decisionflow.__file__).resolve().parent != (SRC / "decisionflow").resolve():
        print(f"perfbench: imported decisionflow from {decisionflow.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), DATASET, WORK_ROOT)
    except harness.BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
