"""Evaluation metrics and report rendering.

Accuracy is percent correct with abstentions counted as incorrect. Every
figure is the accuracy per repeat over one group of records, given as its
mean and sample standard deviation. MTA evaluations break out the two
alignment directions, their average and the signed high-minus-low gap, and
each DMA on each side it has; multi-action evaluations break out accuracy
by the number of candidate actions. Reports are written twice: a
canonical full-precision report.json and a human-readable report.md whose
numbers are rounded to two decimals with half-up rounding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from statistics import fmean, stdev

from .datasets import DATASET_KINDS, PredictionRow, write_json, write_text

def accuracy_percent(flags) -> float:
    """Percent of true flags; raises on an empty series."""
    flags = list(flags)
    if not flags:
        raise ValueError("no outcomes to score")
    return 100.0 * sum(1 for f in flags if f) / len(flags)


def average_accuracy(high: float, low: float) -> float:
    return (high + low) / 2.0


def bias_score(high: float, low: float) -> float:
    """Signed sensitivity to the directive direction: high minus low."""
    return high - low


@dataclass(frozen=True)
class RepeatStats:
    """Mean and sample standard deviation over per-repeat values."""

    mean: float
    std: float
    n: int
    single_repeat: bool


def repeat_stats(values) -> RepeatStats:
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values to summarize")
    if len(values) == 1:
        return RepeatStats(mean=values[0], std=0.0, n=1, single_repeat=True)
    return RepeatStats(mean=fmean(values), std=stdev(values), n=len(values),
                       single_repeat=False)


@dataclass(frozen=True)
class UsageSummary:
    """Per-run means of token usage and recorded latency."""

    n_runs: int
    mean_prompt_tokens: float
    mean_response_tokens: float
    mean_latency: float
    total_calls: int
    usage_approximate: bool


def usage_summary(records) -> UsageSummary:
    """Summarize RunRecord-like objects carrying token and latency totals."""
    records = list(records)
    if not records:
        raise ValueError("no run records to summarize")
    return UsageSummary(
        n_runs=len(records),
        mean_prompt_tokens=fmean(r.prompt_tokens for r in records),
        mean_response_tokens=fmean(r.response_tokens for r in records),
        mean_latency=fmean(r.latency_total for r in records),
        total_calls=sum(r.llm_calls for r in records),
        usage_approximate=any(r.usage_approximate for r in records),
    )


def format_2dp(value: float) -> str:
    """Two decimals, half-up, exact over decimal string representations."""
    return str(Decimal(str(value)).quantize(Decimal("0.01"),
                                            rounding=ROUND_HALF_UP))


def _group_predictions(predictions, records_by_id):
    """Validate and bucket predictions by repeat; full coverage per repeat,
    and each answer an index of its record's choices or actions."""
    predictions = list(predictions)
    if not predictions:
        raise ValueError("no predictions to evaluate")
    modes = {p.mode for p in predictions}
    if len(modes) != 1:
        raise ValueError(f"predictions mix modes {sorted(modes)}")
    by_repeat: dict[int, dict[str, PredictionRow]] = {}
    for prediction in predictions:
        if prediction.record_id not in records_by_id:
            raise ValueError(
                f"prediction for unknown record id {prediction.record_id!r}"
            )
        record = records_by_id[prediction.record_id]
        n = len(getattr(record, "choices", None) or record.actions)
        if prediction.answer is not None and not 0 <= prediction.answer < n:
            raise ValueError(
                f"prediction for {prediction.record_id!r} in repeat "
                f"{prediction.repeat} answers {prediction.answer}, outside "
                f"its record's actions [0, {n - 1}]"
            )
        bucket = by_repeat.setdefault(prediction.repeat, {})
        if prediction.record_id in bucket:
            raise ValueError(
                f"duplicate prediction for {prediction.record_id!r} "
                f"in repeat {prediction.repeat}"
            )
        bucket[prediction.record_id] = prediction
    for repeat, bucket in sorted(by_repeat.items()):
        if set(bucket) != set(records_by_id):
            raise ValueError(
                f"repeat {repeat} covers {len(bucket)} of "
                f"{len(records_by_id)} records"
            )
    return modes.pop(), dict(sorted(by_repeat.items()))


def evaluate(predictions, records, kind: str) -> dict:
    """Score predictions against a dataset; returns the report dictionary.

    Every figure is the accuracy per repeat over one group of records, as
    its mean and sample standard deviation. kind selects the breakdown:
    "mta" groups by directive alignment, and "dellma" groups by the number
    of candidate actions.
    """
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    records_by_id = {r.record_id: r for r in records}
    mode, by_repeat = _group_predictions(predictions, records_by_id)

    def accuracies(keep) -> list[float]:
        """Accuracy per repeat over the records that keep selects; a None
        answer never equals a gold index."""
        kept = [r for r in records_by_id.values() if keep(r)]
        return [accuracy_percent(bucket[r.record_id].answer == r.gold
                                 for r in kept)
                for bucket in by_repeat.values()]

    def stats(values) -> dict:
        return asdict(repeat_stats(values))

    report = {
        "mode": mode,
        "dataset_kind": kind,
        "n_problems": len(records_by_id),
        "repeats": list(by_repeat),
        "n_predictions": sum(len(b) for b in by_repeat.values()),
        "abstentions": sum(1 for bucket in by_repeat.values()
                           for p in bucket.values() if p.answer is None),
        "overall_accuracy": stats(accuracies(lambda r: True)),
    }
    if kind == "mta":
        pairs = {(r.dma, r.alignment) for r in records_by_id.values()}
        report["alignment"] = None
        if {"high", "low"} <= {side for _, side in pairs}:
            high = accuracies(lambda r: r.alignment == "high")
            low = accuracies(lambda r: r.alignment == "low")
            bias = stats(map(bias_score, high, low))
            report["alignment"] = {
                "high": stats(high),
                "low": stats(low),
                "average": stats(map(average_accuracy, high, low)),
                "bias": {**bias, "absolute_mean": abs(bias["mean"])},
            }
        report["per_attribute"] = {
            dma: {side: stats(accuracies(
                      lambda r: (r.dma, r.alignment) == (dma, side)))
                  for side in ("high", "low") if (dma, side) in pairs}
            for dma in sorted({dma for dma, _ in pairs})
        }
    else:
        counts = sorted({len(r.actions) for r in records_by_id.values()})
        report["action_groups"] = {
            **{str(n): stats(accuracies(lambda r: len(r.actions) == n))
               for n in counts},
            "All": report["overall_accuracy"],
        }
    return report


def sweep_report(settings, records, kind: str) -> dict:
    """Accuracy per filter setting from a post-hoc kernel sweep."""
    records_by_id = {r.record_id: r for r in records}
    rows = []
    for setting in settings:
        flags = []
        for record_id, answer in sorted(setting.answers.items()):
            if record_id not in records_by_id:
                raise ValueError(
                    f"sweep answer for unknown record id {record_id!r}"
                )
            flags.append(answer == records_by_id[record_id].gold)
        rows.append({
            "label": setting.label,
            "accuracy": accuracy_percent(flags),
            "surviving_cells": setting.surviving_cells,
            "n_problems": len(flags),
        })
    return {"dataset_kind": kind, "settings": rows}


def _stats_cells(stats: dict) -> str:
    value = format_2dp(stats["mean"])
    if stats.get("single_repeat"):
        return value
    return f"{value} ± {format_2dp(stats['std'])}"


def _table(header, rows) -> list[str]:
    """A markdown table, one '| a | b |' line per row, then a blank line."""
    return ["| " + " | ".join(map(str, cells)) + " |"
            for cells in (header, ["---"] * len(header), *rows)] + [""]


def render_markdown(report: dict) -> str:
    """Human-readable report; all numbers at two decimals, half-up."""
    lines = [
        "# Evaluation report",
        "",
        f"- Mode: `{report['mode']}`",
        f"- Dataset kind: `{report['dataset_kind']}`",
        f"- Problems: {report['n_problems']} "
        f"(repeats: {len(report['repeats'])}, "
        f"predictions: {report['n_predictions']})",
        f"- Abstentions: {report['abstentions']} of {report['n_predictions']}",
        "",
        f"Overall accuracy: **{_stats_cells(report['overall_accuracy'])}**",
        "",
    ]

    alignment = report.get("alignment")
    if report["dataset_kind"] == "mta" and alignment:
        bias = alignment["bias"]
        rows = [["All", _stats_cells(alignment["high"]),
                 _stats_cells(alignment["low"]),
                 _stats_cells(alignment["average"]),
                 format_2dp(bias["mean"]), format_2dp(bias["absolute_mean"])]]
        for attribute, row in report["per_attribute"].items():
            cells = [_stats_cells(row[side]) if side in row else "-"
                     for side in ("high", "low")]
            if "high" in row and "low" in row:
                high, low = row["high"]["mean"], row["low"]["mean"]
                gap = bias_score(high, low)
                cells += map(format_2dp,
                             (average_accuracy(high, low), gap, abs(gap)))
            else:
                cells += ["-"] * 3
            rows.append([attribute, *cells])
        lines += ["## Directive-alignment accuracy", ""]
        lines += _table(["Group", "High-acc", "Low-acc", "Avg-acc", "Bias",
                         "Abs bias"], rows)

    if report["dataset_kind"] == "dellma":
        groups = report["action_groups"]
        headers = [k for k in groups if k != "All"] + ["All"]
        lines += ["## Accuracy by number of actions", ""]
        lines += _table(["The Number of Actions", *headers],
                        [["Accuracy", *(_stats_cells(groups[h])
                                        for h in headers)]])
    return "\n".join(lines)


def render_sweep_markdown(report: dict) -> str:
    rows = [[row["label"], format_2dp(row["accuracy"]),
             row["surviving_cells"]] for row in report["settings"]]
    return "\n".join([
        "# Filter sweep",
        "",
        f"- Dataset kind: `{report['dataset_kind']}`",
        "",
        *_table(["Setting", "Accuracy", "Surviving cells"], rows),
    ])


def write_report(report: dict, directory):
    """Write report.json (full precision) and report.md (rounded)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "report.json"
    md_path = directory / "report.md"
    write_json(report, json_path)
    write_text(render_markdown(report), md_path)
    return json_path, md_path
