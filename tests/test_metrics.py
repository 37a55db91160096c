"""Metric arithmetic against hand-computed values, plus report rendering."""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decisionflow import metrics
from decisionflow.datasets import DellmaRecord, MtaRecord, PredictionRow
from decisionflow.metrics import (
    accuracy_percent,
    average_accuracy,
    bias_score,
    evaluate,
    format_2dp,
    render_markdown,
    render_sweep_markdown,
    repeat_stats,
    sweep_report,
    usage_summary,
    write_report,
)


def _mta(record_id, dma, alignment, gold):
    return MtaRecord(
        record_id=record_id,
        scenario="A ward scenario long enough to be plausible for tests.",
        choices=(f"First option for {record_id}", f"Second option for {record_id}"),
        dma=dma,
        alignment=alignment,
        bias_text="Weigh the stated attribute as instructed.",
        gold=gold,
    )


def _pred(record_id, repeat, answer, mode="zero_shot"):
    return PredictionRow(record_id=record_id, mode=mode, repeat=repeat,
                         answer=answer)


class TestScalarMetrics:
    def test_accuracy_is_percent_correct(self):
        assert accuracy_percent([True] * 181 + [False] * 19) == 90.5
        assert accuracy_percent([True] * 136 + [False] * 64) == 68.0
        assert accuracy_percent([False, False]) == 0.0
        assert accuracy_percent([True]) == 100.0

    def test_accuracy_rejects_empty(self):
        with pytest.raises(ValueError):
            accuracy_percent([])

    def test_average_and_bias(self):
        assert average_accuracy(90.5, 68.0) == 79.25
        assert bias_score(90.5, 68.0) == 22.5
        assert bias_score(85.5, 14.5) == 71.0
        assert bias_score(68.0, 90.5) == -22.5

    def test_repeat_stats_mean_and_sample_std(self):
        stats = repeat_stats([64.0, 65.0, 66.0])
        assert stats.mean == 65.0
        assert stats.std == 1.0
        assert stats.n == 3
        assert not stats.single_repeat

    def test_repeat_stats_single_value_flagged(self):
        stats = repeat_stats([42.0])
        assert stats.mean == 42.0
        assert stats.std == 0.0
        assert stats.single_repeat

    def test_repeat_stats_constant_series(self):
        assert repeat_stats([50.0, 50.0, 50.0]).std == 0.0

    def test_repeat_stats_rejects_empty(self):
        with pytest.raises(ValueError):
            repeat_stats([])


class TestUsageSummary:
    def test_means_over_runs(self):
        runs = [
            SimpleNamespace(prompt_tokens=319, response_tokens=183,
                            latency_total=2.22, llm_calls=8,
                            usage_approximate=False)
            for _ in range(9)
        ]
        runs.append(SimpleNamespace(prompt_tokens=320, response_tokens=182,
                                    latency_total=2.22, llm_calls=8,
                                    usage_approximate=False))
        summary = usage_summary(runs)
        assert summary.n_runs == 10
        assert summary.mean_prompt_tokens == pytest.approx(319.10, abs=1e-12)
        assert summary.mean_response_tokens == pytest.approx(182.90, abs=1e-12)
        assert summary.mean_latency == pytest.approx(2.22, abs=1e-12)
        assert summary.total_calls == 80
        assert summary.usage_approximate is False

    def test_approximate_flag_propagates(self):
        runs = [
            SimpleNamespace(prompt_tokens=10, response_tokens=5,
                            latency_total=1.0, llm_calls=1,
                            usage_approximate=False),
            SimpleNamespace(prompt_tokens=10, response_tokens=5,
                            latency_total=1.0, llm_calls=1,
                            usage_approximate=True),
        ]
        assert usage_summary(runs).usage_approximate is True

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            usage_summary([])


class TestRounding:
    def test_half_up_two_decimals(self):
        assert format_2dp(79.25) == "79.25"
        assert format_2dp(90.5) == "90.50"
        assert format_2dp(0.005) == "0.01"
        assert format_2dp(2.675) == "2.68"
        assert format_2dp(-22.5) == "-22.50"
        assert format_2dp(100.0) == "100.00"


RECORDS = [
    _mta("rec-a", "fairness", "high", 0),
    _mta("rec-b", "fairness", "low", 1),
    _mta("rec-c", "risk_aversion", "high", 0),
    _mta("rec-d", "risk_aversion", "low", 0),
]

PREDICTIONS = [
    # repeat 0: a correct, b wrong, c correct, d abstains -> overall 50
    _pred("rec-a", 0, 0), _pred("rec-b", 0, 0),
    _pred("rec-c", 0, 0), _pred("rec-d", 0, None),
    # repeat 1: a wrong, b correct, c correct, d correct -> overall 75
    _pred("rec-a", 1, 1), _pred("rec-b", 1, 1),
    _pred("rec-c", 1, 0), _pred("rec-d", 1, 0),
]


class TestEvaluateMta:
    def test_overall_and_alignment_numbers(self):
        report = evaluate(PREDICTIONS, RECORDS, "mta")
        assert report["mode"] == "zero_shot"
        assert report["n_problems"] == 4
        assert report["repeats"] == [0, 1]
        assert report["n_predictions"] == 8
        assert report["abstentions"] == 1

        overall = report["overall_accuracy"]
        assert overall["mean"] == 62.5
        assert overall["std"] == pytest.approx(math.sqrt(312.5), rel=1e-12)

        alignment = report["alignment"]
        assert alignment["high"]["mean"] == 75.0  # repeats: 100, 50
        assert alignment["low"]["mean"] == 50.0  # repeats: 0, 100
        assert alignment["average"]["mean"] == 62.5
        assert alignment["bias"]["mean"] == 25.0  # repeats: +100, -50
        assert alignment["bias"]["absolute_mean"] == 25.0
        assert alignment["bias"]["std"] == pytest.approx(math.sqrt(11250),
                                                         rel=1e-12)

    def test_per_attribute_breakdown(self):
        report = evaluate(PREDICTIONS, RECORDS, "mta")
        fairness = report["per_attribute"]["fairness"]
        assert fairness["high"]["mean"] == 50.0  # repeats: 100, 0
        assert fairness["low"]["mean"] == 50.0  # repeats: 0, 100
        risk = report["per_attribute"]["risk_aversion"]
        assert risk["high"]["mean"] == 100.0
        assert risk["low"]["mean"] == 50.0

    def test_alignment_absent_when_one_sided(self):
        records = [_mta("solo-a", "fairness", "high", 0),
                   _mta("solo-b", "fairness", "high", 1)]
        predictions = [_pred("solo-a", 0, 0), _pred("solo-b", 0, 1)]
        report = evaluate(predictions, records, "mta")
        assert report["alignment"] is None
        assert report["overall_accuracy"]["mean"] == 100.0

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="no predictions"):
            evaluate([], RECORDS, "mta")
        with pytest.raises(ValueError, match="unknown record id"):
            evaluate([_pred("ghost", 0, 0)], RECORDS, "mta")
        with pytest.raises(ValueError, match="mix modes"):
            evaluate(
                [_pred("rec-a", 0, 0), _pred("rec-b", 0, 0, mode="cot"),
                 _pred("rec-c", 0, 0), _pred("rec-d", 0, 0)],
                RECORDS, "mta",
            )
        with pytest.raises(ValueError, match="duplicate prediction"):
            evaluate(
                PREDICTIONS + [_pred("rec-a", 0, 1)], RECORDS, "mta",
            )
        with pytest.raises(ValueError, match="covers 3 of 4"):
            evaluate(PREDICTIONS[:3] + PREDICTIONS[4:], RECORDS, "mta")
        with pytest.raises(ValueError, match="unknown dataset kind"):
            evaluate(PREDICTIONS, RECORDS, "laundry")
        for answer in (2, 99):  # 2: a 1-based answer to the second choice
            with pytest.raises(ValueError, match=(
                    f"'rec-b' in repeat 1 answers {answer}, "
                    r"outside its record's actions \[0, 1\]")):
                evaluate(PREDICTIONS[:5] + [_pred("rec-b", 1, answer)]
                         + PREDICTIONS[6:], RECORDS, "mta")


class TestEvaluateDellma(object):
    def test_action_count_groups(self, dellma_records):
        predictions = [
            _pred(r.record_id, 0,
                  r.gold if len(r.actions) != 2 else 1 - r.gold)
            for r in dellma_records
        ]
        report = evaluate(predictions, dellma_records, "dellma")
        groups = report["action_groups"]
        assert set(groups) == {"2", "3", "4", "5", "6", "7", "All"}
        assert groups["2"]["mean"] == 0.0
        for count in ("3", "4", "5", "6", "7"):
            assert groups[count]["mean"] == 100.0
        assert groups["All"]["mean"] == 100.0 * 5 / 6


class TestSweepReport:
    def test_accuracy_per_setting(self):
        records = RECORDS[:2]
        settings = [
            SimpleNamespace(label="epsilon=0.0",
                            answers={"rec-a": 0, "rec-b": 1},
                            surviving_cells=8),
            SimpleNamespace(label="epsilon=0.7",
                            answers={"rec-a": 1, "rec-b": 1},
                            surviving_cells=2),
        ]
        report = sweep_report(settings, records, "mta")
        assert report["settings"][0]["accuracy"] == 100.0
        assert report["settings"][1]["accuracy"] == 50.0
        assert report["settings"][1]["surviving_cells"] == 2

    def test_unknown_id_rejected(self):
        settings = [SimpleNamespace(label="none", answers={"ghost": 0},
                                    surviving_cells=1)]
        with pytest.raises(ValueError, match="unknown record id"):
            sweep_report(settings, RECORDS, "mta")

    def test_markdown_table(self):
        settings = [SimpleNamespace(label="epsilon=0.3",
                                    answers={"rec-a": 0}, surviving_cells=3)]
        text = render_sweep_markdown(sweep_report(settings, RECORDS[:1], "mta"))
        assert "| Setting | Accuracy | Surviving cells |" in text
        assert "| epsilon=0.3 | 100.00 | 3 |" in text


class TestRendering:
    def test_mta_markdown_headers_and_values(self):
        report = evaluate(PREDICTIONS, RECORDS, "mta")
        text = render_markdown(report)
        assert "High-acc | Low-acc | Avg-acc" in text
        assert "| All | " in text
        assert "| fairness | " in text
        assert "62.50" in text  # overall mean, two decimals
        assert "25.00" in text  # signed bias mean

    def test_dellma_markdown_headers(self, dellma_records):
        predictions = [_pred(r.record_id, 0, r.gold) for r in dellma_records]
        report = evaluate(predictions, dellma_records, "dellma")
        text = render_markdown(report)
        assert "The Number of Actions" in text
        assert "| Accuracy | " in text
        for count in ("2", "3", "4", "5", "6", "7", "All"):
            assert f" {count} " in text or f"| {count} |" in text

    def test_single_repeat_shows_bare_value(self):
        predictions = [_pred(r.record_id, 0, r.gold) for r in RECORDS]
        report = evaluate(predictions, RECORDS, "mta")
        text = render_markdown(report)
        assert "±" not in text

    def test_multi_repeat_shows_std(self):
        report = evaluate(PREDICTIONS, RECORDS, "mta")
        text = render_markdown(report)
        assert "±" in text

    def test_write_report_round_trip(self, tmp_path):
        report = evaluate(PREDICTIONS, RECORDS, "mta")
        json_path, md_path = write_report(report, tmp_path / "out")
        assert json_path.name == "report.json"
        assert md_path.name == "report.md"
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["overall_accuracy"]["mean"] == 62.5
        text = md_path.read_text(encoding="utf-8")
        assert text == render_markdown(report)


# evaluate and the renderers frozen as they were before every figure came
# from one per-group rule; the property test below holds the current code
# to them, report and markdown alike.

def old_is_correct(prediction, gold):
    return prediction.answer is not None and prediction.answer == gold


def old_per_repeat_accuracy(by_repeat, records_by_id, ids):
    ids = list(ids)
    return [
        accuracy_percent(
            old_is_correct(bucket[i], records_by_id[i].gold) for i in ids
        )
        for bucket in by_repeat.values()
    ]


def old_evaluate(predictions, records, kind):
    records_by_id = {r.record_id: r for r in records}
    mode, by_repeat = metrics._group_predictions(predictions, records_by_id)
    repeats = list(by_repeat)
    all_ids = sorted(records_by_id)

    overall = repeat_stats(old_per_repeat_accuracy(by_repeat, records_by_id,
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
        report["alignment"] = old_alignment_section(by_repeat, records_by_id)
        report["per_attribute"] = old_per_attribute_section(by_repeat,
                                                            records_by_id)
    else:
        report["action_groups"] = old_action_group_section(by_repeat,
                                                           records_by_id)
    return report


def old_alignment_section(by_repeat, records_by_id):
    high_ids = sorted(i for i, r in records_by_id.items()
                      if r.alignment == "high")
    low_ids = sorted(i for i, r in records_by_id.items()
                     if r.alignment == "low")
    if not high_ids or not low_ids:
        return None
    high = old_per_repeat_accuracy(by_repeat, records_by_id, high_ids)
    low = old_per_repeat_accuracy(by_repeat, records_by_id, low_ids)
    averages = [average_accuracy(h, l) for h, l in zip(high, low)]
    biases = [bias_score(h, l) for h, l in zip(high, low)]
    bias = repeat_stats(biases)
    return {
        "high": asdict(repeat_stats(high)),
        "low": asdict(repeat_stats(low)),
        "average": asdict(repeat_stats(averages)),
        "bias": {**asdict(bias), "absolute_mean": abs(bias.mean)},
    }


def old_per_attribute_section(by_repeat, records_by_id):
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
                    old_per_repeat_accuracy(by_repeat, records_by_id, ids)
                ))
        section[attribute] = row
    return section


def old_action_group_section(by_repeat, records_by_id):
    counts = sorted({len(r.actions) for r in records_by_id.values()})
    section = {}
    for count in counts:
        ids = sorted(i for i, r in records_by_id.items()
                     if len(r.actions) == count)
        section[str(count)] = asdict(repeat_stats(
            old_per_repeat_accuracy(by_repeat, records_by_id, ids)
        ))
    section["All"] = asdict(repeat_stats(
        old_per_repeat_accuracy(by_repeat, records_by_id, sorted(records_by_id))
    ))
    return section


def old_stats_cells(stats):
    value = format_2dp(stats["mean"])
    if stats.get("single_repeat"):
        return value
    return f"{value} ± {format_2dp(stats['std'])}"


def old_render_markdown(report):
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
    lines.append(f"Overall accuracy: **{old_stats_cells(overall)}**")
    lines.append("")

    if report["dataset_kind"] == "mta" and report.get("alignment"):
        alignment = report["alignment"]
        lines.append("## Directive-alignment accuracy")
        lines.append("")
        lines.append("| Group | High-acc | Low-acc | Avg-acc | Bias | Abs bias |")
        lines.append("| --- | --- | --- | --- | --- | --- |")
        lines.append(
            "| All | {high} | {low} | {avg} | {bias} | {abs_bias} |".format(
                high=old_stats_cells(alignment["high"]),
                low=old_stats_cells(alignment["low"]),
                avg=old_stats_cells(alignment["average"]),
                bias=format_2dp(alignment["bias"]["mean"]),
                abs_bias=format_2dp(alignment["bias"]["absolute_mean"]),
            )
        )
        for attribute, row in report["per_attribute"].items():
            high = old_stats_cells(row["high"]) if "high" in row else "-"
            low = old_stats_cells(row["low"]) if "low" in row else "-"
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
            + " | ".join(old_stats_cells(groups[h]) for h in headers)
            + " |"
        )
        lines.append("")
    return "\n".join(lines)


def old_render_sweep_markdown(report):
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


DMAS = ("fairness", "risk_aversion", "moral_desert")


@st.composite
def scored_datasets(draw):
    """Records of either kind, 1-3 repeats with gaps in their numbers, and
    predictions of which about a fifth abstain. MTA sets may hold one
    alignment side only, and a DMA may appear on one side only. Hypothesis
    draws the kind, the sides and a seed for the rest, which keeps 2,000
    examples quick to draw."""
    kind = draw(st.sampled_from(["mta", "dellma"]))
    sides = draw(st.sampled_from([("high", "low"), ("high", "low"),
                                  ("high",), ("low",)]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    repeats = rng.sample(range(6), rng.randint(1, 3))
    records = []
    for i in range(rng.randint(1, 14)):
        labels = tuple(f"option {j}" for j in range(rng.randint(2, 7)))
        gold = rng.randrange(len(labels))
        if kind == "mta":
            records.append(MtaRecord(
                record_id=f"mta-{i}", scenario="A ward scenario.",
                choices=labels, dma=rng.choice(DMAS),
                alignment=rng.choice(sides),
                bias_text="Weigh the attribute.", gold=gold))
        else:
            records.append(DellmaRecord(
                record_id=f"dellma-{i}", domain="stocks",
                context="A market.", actions=labels, gold=gold))
    predictions = []
    for repeat in repeats:
        for record in records:
            n = len(getattr(record, "choices", None) or record.actions)
            answer = rng.choice([record.gold, rng.randrange(n)])
            predictions.append(_pred(record.record_id, repeat,
                                     None if rng.random() < 0.2 else answer))
    rng.shuffle(predictions)
    sweep = [SimpleNamespace(
        label=f"epsilon={k / 10}", surviving_cells=k,
        answers={r.record_id: rng.randrange(2) for r in records})
        for k in range(rng.randrange(4))]
    return kind, records, predictions, sweep


class TestOneRulePerFigure:
    """evaluate and the renderers against the section builders and
    line-by-line tables they replaced."""

    @settings(derandomize=True, max_examples=2000, deadline=None)
    @given(scored_datasets())
    def test_reports_and_markdown_match(self, case):
        kind, records, predictions, sweep = case
        report = evaluate(predictions, records, kind)
        old = old_evaluate(predictions, records, kind)
        assert report == old
        assert list(report) == list(old)
        for section in ("per_attribute", "action_groups"):
            if section in old:
                assert list(report[section]) == list(old[section])
                assert [list(row) for row in report[section].values()] == \
                    [list(row) for row in old[section].values()]
        assert render_markdown(report) == old_render_markdown(old)
        swept = sweep_report(sweep, records, kind)
        assert render_sweep_markdown(swept) == old_render_sweep_markdown(swept)
