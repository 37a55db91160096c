"""Seeded inputs for the decisionflow benchmark.

Everything the program under test sees is generated here from the seed:
a DeLLMa-style dataset file, and a transcript store recorded with the
scripted backend from ``decisionflow.testing``. Recording goes through
``decisionflow.cli.main`` with the ``cli._make_transport`` hook, before any
timing starts, so the recorded run doubles as the reference output that
every timed pass must reproduce byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from decisionflow import cli
from decisionflow.stages import extract_json_block
from decisionflow.testing import ScriptedTransport, default_stage_script

ACTION_COUNTS = (2, 3, 4, 5, 6, 7)

# Share of JSON completions that keep a trailing comma in the verbose corpus,
# so the parser's repair path runs on every replay-verbose pass.
TRAILING_COMMA_SHARE = 0.10
# Target size of the padded Explanation/Reasoning field of a verbose completion.
VERBOSE_PAD_CHARS = 1500
FILTER_SPEC = "top3"
# max_concurrency of the timed passes: the core count of the machine the
# benchmark was built on. Reference recordings run serially.
PASS_CONCURRENCY = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the CLI invocation and the inputs it gets."""

    name: str
    gateway_mode: str  # mode of the timed passes: "replay" | "record"
    responder: str  # "verbose" | "bare"
    problems: int
    repeats: int


WORKLOADS = {
    w.name: w
    for w in (
        # Fenced, padded completions, a tenth with trailing commas, replayed at
        # c=2: JSON extraction/repair and the gateway read path do most of the
        # work, under the nested thread pools.
        Workload(name="replay-verbose", gateway_mode="replay",
                 responder="verbose", problems=204, repeats=1),
        # Record into an empty store over a 20 ms backend, 3 repeats at c=2:
        # backend latency dominates, so this measures concurrency, duplicate
        # sends and store writes, and parser or kernel changes should not
        # move it.
        Workload(name="record-dup", gateway_mode="record",
                 responder="bare", problems=24, repeats=3),
    )
}


# --- problems -----------------------------------------------------------

CROPS = (
    "apples", "avocados", "grapes", "grapefruit", "lemons", "peaches",
    "pears", "plums", "cherries", "apricots", "figs", "limes", "oranges",
    "mandarins", "kiwis", "quinces", "nectarines", "persimmons", "olives",
    "almonds", "walnuts", "pecans", "blueberries", "raspberries",
)
PLOTS = (
    "north", "south", "east", "west", "river", "hillside", "upper", "lower",
    "orchard", "terrace", "valley", "ridge", "creek", "meadow", "canyon",
    "prairie", "lakeside", "windward", "leeward", "sunny", "shaded", "old",
    "new", "middle",
)
VERBS = ("Plant", "Grow", "Cultivate", "Sow")
LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def load_contexts(dataset_path: Path) -> list[tuple[str, str]]:
    """Distinct (domain, context) pairs of the bundled DeLLMa dataset."""
    seen = []
    for line in dataset_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        pair = (record["domain"], record["context"])
        if pair not in seen:
            seen.append(pair)
    return seen


def _label(rng: random.Random, domain: str) -> str:
    if domain == "stocks":
        ticker = "".join(rng.choice(LETTERS) for _ in range(4))
        return f"Buy shares of {ticker}"
    return f"{rng.choice(VERBS)} {rng.choice(CROPS)} on the {rng.choice(PLOTS)} plot"


def make_records(seed: int, n_problems: int, contexts) -> list[dict]:
    """DeLLMa-style dataset records, deterministic per seed.

    Action counts cycle evenly through 2..7 (then get shuffled), so the shape
    of the workload is the same for every seed and only the content varies.
    Every label is a fixed-width pattern, so no label is a substring of
    another one and the pipeline's name matching stays unambiguous.
    """
    rng = random.Random(seed)
    counts = [ACTION_COUNTS[k % len(ACTION_COUNTS)] for k in range(n_problems)]
    rng.shuffle(counts)
    records = []
    for k, n in enumerate(counts):
        domain, context = contexts[rng.randrange(len(contexts))]
        labels: list[str] = []
        while len(labels) < n:
            label = _label(rng, domain)
            if label not in labels:
                labels.append(label)
        records.append({
            "id": f"bench-{seed}-{k:04d}",
            "domain": domain,
            "context": context,
            "actions": labels,
            "gold": rng.randrange(n),
        })
    return records


def write_dataset(records, path: Path) -> None:
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )


# --- responders -----------------------------------------------------------

PAD_WORDS = (
    "the", "forecast", "suggests", "margin", "demand", "season", "risk",
    "supply", "price", "outlook", "yield", "cost", "weather", "buyers",
    "exposure", "trend", "volume", "holding", "steady", "pressure",
)


def _stream(*parts: str) -> random.Random:
    digest = hashlib.sha256("\x1f".join(parts).encode("utf-8")).digest()
    return random.Random(digest)


def _padding(rng: random.Random, chars: int) -> str:
    """Plain prose: no braces, quotes, backslashes or commas, so the padding
    never looks like JSON syntax to the parser's repair passes."""
    sentences = []
    size = 0
    while size < chars:
        words = [rng.choice(PAD_WORDS) for _ in range(rng.randint(8, 16))]
        sentence = " ".join(words).capitalize() + "."
        sentences.append(sentence)
        size += len(sentence) + 1
    return " ".join(sentences)


def verbose_script(seed: int):
    """Responder of the replay-verbose corpus.

    It takes the schema-correct completion of ``default_stage_script`` and
    makes it look like a chatty model's: a prose preamble, a ```json fence
    around a pretty-printed object whose Explanation/Reasoning is padded to
    about 1.5 KB, and, on a fixed share of completions, a trailing comma
    that only the parser's repair pass can fix. The rationale stays plain
    text, as the pipeline uses it verbatim.
    """

    def script(request) -> str:
        text = default_stage_script(request)
        if request.stage_tag == "rationale":
            return text
        rng = _stream(str(seed), request.prompt, str(request.attempt))
        payload = json.loads(text)
        key = "Explanation" if "Explanation" in payload else "Reasoning"
        lead = payload.get(key, "")
        payload[key] = (lead + " " if lead else "") + _padding(rng, VERBOSE_PAD_CHARS)
        body = json.dumps(payload, indent=2, ensure_ascii=False)
        if rng.random() < TRAILING_COMMA_SHARE:
            body = body[:-2] + ",\n}"
        return (
            "Here is my assessment. I read the scenario and the directive "
            "and weighed each factor before writing the values below.\n\n"
            f"```json\n{body}\n```\n\nI can expand on any of these points."
        )

    return script


# --- recording and inputs ------------------------------------------------------

def run_argv(workload: Workload, dataset: Path, store: Path, out: Path, *,
             gateway_mode: str, max_concurrency: int) -> list[str]:
    """Arguments of the ``decisionflow run`` command for one pass."""
    return [
        "run", "--mode", "decisionflow",
        "--dataset", str(dataset), "--dataset-kind", "dellma",
        "--transcripts", str(store), "--gateway-mode", gateway_mode,
        "--out", str(out), "--repeats", str(workload.repeats),
        "--filter", FILTER_SPEC,
        "--max-concurrency", str(max_concurrency),
    ]


def record_reference(workload: Workload, seed: int, dataset: Path, store: Path,
                     out: Path) -> int:
    """Record the corpus serially with the scripted backend, writing the
    reference outputs to ``out``. Returns the CLI exit code."""
    script = verbose_script(seed) if workload.responder == "verbose" else default_stage_script
    transport = ScriptedTransport(script)
    saved = cli._make_transport
    cli._make_transport = lambda resolved: transport
    try:
        return quiet_main(run_argv(workload, dataset, store, out,
                                   gateway_mode="record", max_concurrency=1))
    finally:
        cli._make_transport = saved


def quiet_main(argv) -> int:
    """``decisionflow`` in this process, its per-run report lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def input_properties(records, reference_out: Path) -> dict:
    """Properties of the generated inputs, each with its base, measured on
    the reference run's traces."""
    manifest = json.loads((reference_out / "manifest.json").read_text(encoding="utf-8"))
    runs = len(manifest["runs"])
    served: set[str] = set()
    calls = repeated = text_bytes = json_calls = repaired = 0
    for run in sorted(manifest["runs"], key=lambda r: (r["id"], r["repeat"])):
        trace_path = reference_out / "traces" / f"{run['id']}__r{run['repeat']}.json"
        for event in json.loads(trace_path.read_text(encoding="utf-8")):
            if event["kind"] != "completion":
                continue
            payload = event["payload"]
            calls += 1
            repeated += payload["digest"] in served
            served.add(payload["digest"])
            text_bytes += len(payload["text"].encode("utf-8"))
            if payload["stage_tag"] != "rationale":
                json_calls += 1
                repaired += bool(extract_json_block(payload["text"])[1])
    histogram = Counter(len(r["actions"]) for r in records)
    return {
        "runs": runs,
        "calls": calls,
        "calls_per_problem": calls / runs,
        "repeated_digest_calls": repeated,
        "repeated_digest_share": repeated / calls,
        "mean_completion_bytes": text_bytes / calls,
        "json_completions": json_calls,
        "repaired_completions": repaired,
        "repair_share": repaired / json_calls if json_calls else 0.0,
        "action_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
