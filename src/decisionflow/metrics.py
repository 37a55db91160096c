"""Evaluation metrics and report rendering.

Accuracy is percent correct with abstentions counted as incorrect. MTA
evaluations break out the two alignment directions and report their average
and the signed high-minus-low gap; multi-action evaluations break out
accuracy by the number of candidate actions. Reports are written twice: a
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


def _is_correct(prediction: PredictionRow, gold: int) -> bool:
    return prediction.answer is not None and prediction.answer == gold


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


def _per_repeat_accuracy(by_repeat, records_by_id, ids) -> list[float]:
    ids = list(ids)
    return [
        accuracy_percent(
            _is_correct(bucket[i], records_by_id[i].gold) for i in ids
        )
        for bucket in by_repeat.values()
    ]


def evaluate(predictions, records, kind: str) -> dict:
    """Score predictions against a dataset; returns the report dictionary.

    kind selects the breakdown: "mta" groups by directive alignment, and
    "dellma" groups by the number of candidate actions.
    """
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    records_by_id = {r.record_id: r for r in records}
    mode, by_repeat = _group_predictions(predictions, records_by_id)
    repeats = list(by_repeat)
    all_ids = sorted(records_by_id)

    overall = repeat_stats(_per_repeat_accuracy(by_repeat, records_by_id,
                                                all_ids))
    abstentions = sum(
        1 for bucket in by_repeat.values()
        for p in bucket.values() if p.answer is None
    )
    report = {
        "mode": mode,
        "dataset_kind": kind,
        "n_problems": len(records_by_id),
        "repeats": repeats,
        "n_predictions": sum(len(b) for b in by_repeat.values()),
        "abstentions": abstentions,
        "overall_accuracy": asdict(overall),
    }
    if kind == "mta":
        report["alignment"] = _alignment_section(by_repeat, records_by_id)
        report["per_attribute"] = _per_attribute_section(by_repeat,
                                                         records_by_id)
    else:
        report["action_groups"] = _action_group_section(by_repeat,
                                                        records_by_id)
    return report


def _alignment_section(by_repeat, records_by_id):
    high_ids = sorted(i for i, r in records_by_id.items()
                      if r.alignment == "high")
    low_ids = sorted(i for i, r in records_by_id.items()
                     if r.alignment == "low")
    if not high_ids or not low_ids:
        return None
    high = _per_repeat_accuracy(by_repeat, records_by_id, high_ids)
    low = _per_repeat_accuracy(by_repeat, records_by_id, low_ids)
    averages = [average_accuracy(h, l) for h, l in zip(high, low)]
    biases = [bias_score(h, l) for h, l in zip(high, low)]
    bias = repeat_stats(biases)
    return {
        "high": asdict(repeat_stats(high)),
        "low": asdict(repeat_stats(low)),
        "average": asdict(repeat_stats(averages)),
        "bias": {**asdict(bias), "absolute_mean": abs(bias.mean)},
    }


def _per_attribute_section(by_repeat, records_by_id):
    attributes = sorted({r.dma for r in records_by_id.values()})
    section = {}
    for attribute in attributes:
        row = {}
        for side in ("high", "low"):
            ids = sorted(
                i for i, r in records_by_id.items()
                if r.dma == attribute and r.alignment == side
            )
            if ids:
                row[side] = asdict(repeat_stats(
                    _per_repeat_accuracy(by_repeat, records_by_id, ids)
                ))
        section[attribute] = row
    return section


def _action_group_section(by_repeat, records_by_id):
    counts = sorted({len(r.actions) for r in records_by_id.values()})
    section = {}
    for count in counts:
        ids = sorted(i for i, r in records_by_id.items()
                     if len(r.actions) == count)
        section[str(count)] = asdict(repeat_stats(
            _per_repeat_accuracy(by_repeat, records_by_id, ids)
        ))
    section["All"] = asdict(repeat_stats(
        _per_repeat_accuracy(by_repeat, records_by_id, sorted(records_by_id))
    ))
    return section


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


def render_markdown(report: dict) -> str:
    """Human-readable report; all numbers at two decimals, half-up."""
    lines = ["# Evaluation report", ""]
    lines.append(f"- Mode: `{report['mode']}`")
    lines.append(f"- Dataset kind: `{report['dataset_kind']}`")
    lines.append(
        f"- Problems: {report['n_problems']} "
        f"(repeats: {len(report['repeats'])}, "
        f"predictions: {report['n_predictions']})"
    )
    lines.append(
        f"- Abstentions: {report['abstentions']} of {report['n_predictions']}"
    )
    lines.append("")
    overall = report["overall_accuracy"]
    lines.append(f"Overall accuracy: **{_stats_cells(overall)}**")
    lines.append("")

    if report["dataset_kind"] == "mta" and report.get("alignment"):
        alignment = report["alignment"]
        lines.append("## Directive-alignment accuracy")
        lines.append("")
        lines.append("| Group | High-acc | Low-acc | Avg-acc | Bias | Abs bias |")
        lines.append("| --- | --- | --- | --- | --- | --- |")
        lines.append(
            "| All | {high} | {low} | {avg} | {bias} | {abs_bias} |".format(
                high=_stats_cells(alignment["high"]),
                low=_stats_cells(alignment["low"]),
                avg=_stats_cells(alignment["average"]),
                bias=format_2dp(alignment["bias"]["mean"]),
                abs_bias=format_2dp(alignment["bias"]["absolute_mean"]),
            )
        )
        for attribute, row in report["per_attribute"].items():
            high = _stats_cells(row["high"]) if "high" in row else "-"
            low = _stats_cells(row["low"]) if "low" in row else "-"
            if "high" in row and "low" in row:
                high_mean, low_mean = row["high"]["mean"], row["low"]["mean"]
                avg = format_2dp(average_accuracy(high_mean, low_mean))
                gap = bias_score(high_mean, low_mean)
                bias = format_2dp(gap)
                abs_bias = format_2dp(abs(gap))
            else:
                avg = bias = abs_bias = "-"
            lines.append(
                f"| {attribute} | {high} | {low} | {avg} | {bias} | {abs_bias} |"
            )
        lines.append("")

    if report["dataset_kind"] == "dellma":
        groups = report["action_groups"]
        lines.append("## Accuracy by number of actions")
        lines.append("")
        headers = [k for k in groups if k != "All"] + ["All"]
        lines.append("| The Number of Actions | " + " | ".join(headers) + " |")
        lines.append("| --- |" + " --- |" * len(headers))
        lines.append(
            "| Accuracy | "
            + " | ".join(_stats_cells(groups[h]) for h in headers)
            + " |"
        )
        lines.append("")
    return "\n".join(lines)


def render_sweep_markdown(report: dict) -> str:
    lines = ["# Filter sweep", ""]
    lines.append(f"- Dataset kind: `{report['dataset_kind']}`")
    lines.append("")
    lines.append("| Setting | Accuracy | Surviving cells |")
    lines.append("| --- | --- | --- |")
    for row in report["settings"]:
        lines.append(
            f"| {row['label']} | {format_2dp(row['accuracy'])} | "
            f"{row['surviving_cells']} |"
        )
    lines.append("")
    return "\n".join(lines)


def write_report(report: dict, directory):
    """Write report.json (full precision) and report.md (rounded)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / "report.json"
    md_path = directory / "report.md"
    write_json(report, json_path)
    write_text(render_markdown(report), md_path)
    return json_path, md_path
