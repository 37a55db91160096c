"""Dataset and prediction file formats (JSONL, one record per line).

Serialization is canonical: fixed field order, UTF-8, LF line endings, and
default JSON number formatting, so load followed by serialize is
byte-identical. Validation errors name the line and field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import Constraint, DecisionProblem, parse_constraint
from .errors import DatasetError

DMA_VALUES = (
    "protocol_focus",
    "fairness",
    "risk_aversion",
    "continuing_care",
    "moral_desert",
    "utilitarianism",
)

ALIGNMENTS = ("high", "low")

DELLMA_DOMAINS = ("agriculture", "stocks")

ABSTAIN = "abstain"


@dataclass(frozen=True)
class MtaRecord:
    """Medical triage record with a decision-maker attribute directive."""

    record_id: str
    scenario: str
    choices: tuple[str, ...]
    dma: str
    alignment: str
    bias_text: str
    gold: int

    FIELDS = ("id", "scenario", "choices", "dma", "alignment", "bias_text", "gold")

    def to_json(self) -> dict:
        return {
            "id": self.record_id,
            "scenario": self.scenario,
            "choices": list(self.choices),
            "dma": self.dma,
            "alignment": self.alignment,
            "bias_text": self.bias_text,
            "gold": self.gold,
        }


@dataclass(frozen=True)
class DellmaRecord:
    """Decision-under-uncertainty record over a market context."""

    record_id: str
    domain: str
    context: str
    actions: tuple[str, ...]
    gold: int

    FIELDS = ("id", "domain", "context", "actions", "gold")

    def to_json(self) -> dict:
        return {
            "id": self.record_id,
            "domain": self.domain,
            "context": self.context,
            "actions": list(self.actions),
            "gold": self.gold,
        }


@dataclass(frozen=True)
class PredictionRow:
    """One prediction: answer is a 0-based index, or the abstain marker."""

    record_id: str
    mode: str
    repeat: int
    answer: int | None  # None means abstained

    def to_json(self) -> dict:
        return {
            "id": self.record_id,
            "mode": self.mode,
            "repeat": self.repeat,
            "answer": ABSTAIN if self.answer is None else self.answer,
        }


def _field(obj: dict, name: str, types, line: int, *, required=True):
    if name not in obj:
        if required:
            raise DatasetError("missing field", line=line, field=name)
        return None
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, types):
        raise DatasetError(
            f"field has type {type(value).__name__}", line=line, field=name
        )
    return value


def _string_list(obj: dict, name: str, line: int, *, min_len=1) -> tuple[str, ...]:
    value = _field(obj, name, list, line)
    if len(value) < min_len or any(
        not isinstance(v, str) or not v.strip() for v in value
    ):
        raise DatasetError(
            f"must be a list of at least {min_len} non-empty strings",
            line=line, field=name,
        )
    return tuple(value)


def _parse_mta(obj: dict, line: int) -> MtaRecord:
    record_id = _field(obj, "id", str, line)
    scenario = _field(obj, "scenario", str, line)
    choices = _string_list(obj, "choices", line, min_len=2)
    dma = _field(obj, "dma", str, line)
    if dma not in DMA_VALUES:
        raise DatasetError(f"unknown dma {dma!r}", line=line, field="dma")
    alignment = _field(obj, "alignment", str, line)
    if alignment not in ALIGNMENTS:
        raise DatasetError(
            f"alignment must be one of {ALIGNMENTS}", line=line, field="alignment"
        )
    bias_text = _field(obj, "bias_text", str, line)
    if not bias_text.strip():
        raise DatasetError("bias_text must be non-empty", line=line, field="bias_text")
    gold = _field(obj, "gold", int, line)
    if not 0 <= gold < len(choices):
        raise DatasetError(
            f"gold {gold} out of range for {len(choices)} choices",
            line=line, field="gold",
        )
    if not scenario.strip():
        raise DatasetError("scenario must be non-empty", line=line, field="scenario")
    return MtaRecord(
        record_id=record_id, scenario=scenario, choices=choices, dma=dma,
        alignment=alignment, bias_text=bias_text, gold=gold,
    )


def _parse_dellma(obj: dict, line: int) -> DellmaRecord:
    record_id = _field(obj, "id", str, line)
    domain = _field(obj, "domain", str, line)
    if domain not in DELLMA_DOMAINS:
        raise DatasetError(
            f"domain must be one of {DELLMA_DOMAINS}", line=line, field="domain"
        )
    context = _field(obj, "context", str, line)
    if not context.strip():
        raise DatasetError("context must be non-empty", line=line, field="context")
    actions = _string_list(obj, "actions", line, min_len=2)
    if len(actions) > 7:
        raise DatasetError(
            f"{len(actions)} actions exceeds the supported maximum of 7",
            line=line, field="actions",
        )
    gold = _field(obj, "gold", int, line)
    if not 0 <= gold < len(actions):
        raise DatasetError(
            f"gold {gold} out of range for {len(actions)} actions",
            line=line, field="gold",
        )
    return DellmaRecord(
        record_id=record_id, domain=domain, context=context,
        actions=actions, gold=gold,
    )


def _read_jsonl(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as err:
                raise DatasetError(f"invalid JSON: {err.msg}", line=line_no) from err
            if not isinstance(obj, dict):
                raise DatasetError("record is not a JSON object", line=line_no)
            yield line_no, obj


def load_dataset(path: str | Path, kind: str):
    """Load and validate a dataset; kind is "mta" or "dellma"."""
    if kind not in ("mta", "dellma"):
        raise ValueError(f"unknown dataset kind {kind!r}")
    parse = _parse_mta if kind == "mta" else _parse_dellma
    records = []
    seen: dict[str, int] = {}
    for line_no, obj in _read_jsonl(path):
        record = parse(obj, line_no)
        # the id names the run's trace files
        if record.record_id in ("", ".", "..") or any(
                c in record.record_id for c in "/\\\0"):
            raise DatasetError(f"id {record.record_id!r} is not a plain file name",
                               line=line_no, field="id")
        if record.record_id in seen:
            raise DatasetError(
                f"duplicate id {record.record_id!r} (first on line "
                f"{seen[record.record_id]})",
                line=line_no, field="id",
            )
        seen[record.record_id] = line_no
        records.append(record)
    return records


def dumps_record(record) -> str:
    """Canonical single-line serialization for any record type here."""
    return json.dumps(record.to_json(), ensure_ascii=False)


def write_records(records, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(dumps_record(record) + "\n")


def serialize_records(records) -> str:
    return "".join(dumps_record(r) + "\n" for r in records)


def load_predictions(path: str | Path) -> list[PredictionRow]:
    rows = []
    for line_no, obj in _read_jsonl(path):
        record_id = _field(obj, "id", str, line_no)
        mode = _field(obj, "mode", str, line_no)
        repeat = _field(obj, "repeat", int, line_no)
        if repeat < 0:
            raise DatasetError("repeat must be >= 0", line=line_no, field="repeat")
        answer = obj.get("answer")
        if answer == ABSTAIN:
            answer = None
        elif isinstance(answer, bool) or not isinstance(answer, int):
            raise DatasetError(
                "answer must be an integer index or the abstain marker",
                line=line_no, field="answer",
            )
        elif answer < 0:
            raise DatasetError("answer must be >= 0", line=line_no, field="answer")
        rows.append(
            PredictionRow(record_id=record_id, mode=mode, repeat=repeat, answer=answer)
        )
    return rows


def write_predictions(rows, path: str | Path) -> None:
    """Write prediction rows ordered by (id, repeat); the order is part of the
    format so repeated runs diff cleanly."""
    ordered = sorted(rows, key=lambda r: (r.record_id, r.repeat))
    write_records(ordered, path)


def mta_problem(record: MtaRecord) -> DecisionProblem:
    """View an MTA record as a decision problem with standard one-hot
    constraints."""
    return DecisionProblem(
        problem_id=record.record_id,
        scenario=record.scenario,
        actions=record.choices,
        constraints=_one_hot_constraints(len(record.choices)),
        bias_directive=record.bias_text,
        gold=record.gold,
    )


def dellma_problem(record: DellmaRecord) -> DecisionProblem:
    return DecisionProblem(
        problem_id=record.record_id,
        scenario=record.context,
        actions=record.actions,
        constraints=_one_hot_constraints(len(record.actions)),
        bias_directive=None,
        gold=record.gold,
    )


def _one_hot_constraints(n: int) -> tuple[Constraint, ...]:
    variables = [f"x{i + 1}" for i in range(n)]
    return (
        parse_constraint(" + ".join(variables) + " <= 1"),
        parse_constraint(", ".join(variables) + " in {0, 1}"),
    )


def problems_from_records(records, kind: str):
    convert = mta_problem if kind == "mta" else dellma_problem
    return [convert(r) for r in records]
