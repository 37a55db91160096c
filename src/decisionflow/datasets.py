"""Dataset and prediction file formats (JSONL, one record per line), and the
one writer of every file the package writes.

Serialization is canonical: fixed field order, UTF-8, LF line endings, and
default JSON number formatting, so load followed by serialize is
byte-identical. Validation errors name the file, the line and the field.

Every JSON file (traces, transcripts, manifests, reports) is the text of
``json.dumps(value, indent=2, sort_keys=..., ensure_ascii=False)``, written
by ``dumps_indented``: a container that holds no container goes whole to the
standard library's C encoder, with the string escaping of
``ensure_ascii=False``, and the rest is walked here. The text is left to
``json.dumps`` when a value or key is not of an exact JSON type, or the
value nests deeper than ``MAX_FAST_DEPTH``. Python 3.13's own
``json.dumps(indent=2)`` is about as fast, so the function can go when the
project moves to 3.13.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import cache
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring
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

DATASET_KINDS = ("mta", "dellma")


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


@dataclass(frozen=True)
class DellmaRecord:
    """Decision-under-uncertainty record over a market context."""

    record_id: str
    domain: str
    context: str
    actions: tuple[str, ...]
    gold: int


@dataclass(frozen=True)
class PredictionRow:
    """One prediction: answer is a 0-based index, or the abstain marker."""

    record_id: str
    mode: str
    repeat: int
    answer: int | None  # None means abstained


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
    for i, label in enumerate(value):
        if label in value[:i]:
            raise DatasetError(f"repeats the label {label!r}",
                               line=line, field=name)
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


def _load(path: str | Path, parse) -> list:
    """``parse(obj, line)`` of each record of the JSONL file at ``path``; a
    DatasetError raised on the way names ``path``."""
    rows = []
    try:
        # bytes.splitlines ends lines where text mode does: \n, \r\n or \r
        for line_no, raw in enumerate(Path(path).read_bytes().splitlines(),
                                      start=1):
            try:
                text = raw.decode("utf-8")
                if not text.strip():
                    continue
                obj = json.loads(text)
            except UnicodeDecodeError as err:
                raise DatasetError(f"not UTF-8: {err}", line=line_no) from err
            except json.JSONDecodeError as err:
                raise DatasetError(f"invalid JSON: {err.msg}", line=line_no) from err
            if not isinstance(obj, dict):
                raise DatasetError("record is not a JSON object", line=line_no)
            rows.append(parse(obj, line_no))
    except DatasetError as err:
        err.path = os.fspath(path)
        raise
    return rows


def load_dataset(path: str | Path, kind: str):
    """Load and validate a dataset of one of DATASET_KINDS."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    parse_kind = _parse_mta if kind == "mta" else _parse_dellma
    seen: dict[str, int] = {}

    def parse(obj: dict, line_no: int):
        record = parse_kind(obj, line_no)
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
        return record

    return _load(path, parse)


def dumps_record(record) -> str:
    """Canonical single-line serialization for any record type here: its
    fields in order, ``record_id`` as "id", tuples as arrays and a None
    answer as the abstain marker."""
    row = {"id" if f.name == "record_id" else f.name: getattr(record, f.name)
           for f in fields(record)}
    if "answer" in row and row["answer"] is None:
        row["answer"] = ABSTAIN
    return json.dumps(row, ensure_ascii=False)


def write_text(text: str, path: str | Path) -> None:
    """Every file the package writes goes through here, whole or not at all:
    the UTF-8 bytes go to a temporary file beside path, which then replaces
    path. Plain open gives the file the umask's mode. A failed write raises
    its OSError naming path, not the temporary file."""
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException as err:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(err, OSError) and err.filename == tmp:
            err.filename = os.fspath(path)  # the file the caller named
            del err.filename2  # os.replace's target, path again
        raise


# the exact types dumps_indented encodes itself; any other type, a subclass
# included, leaves the value to json.dumps
_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = frozenset({dict, list, tuple})
_STR = frozenset({str})
MAX_FAST_DEPTH = 8
_NEWLINE = tuple("\n" + "  " * depth for depth in range(MAX_FAST_DEPTH + 1))
# sort_keys -> depth -> a C encoder for a container that opens at depth - 1:
# without an indent it writes each item separator whole, and that one ends
# in the indent of depth; encode_basestring is the escaping of
# ensure_ascii=False
_FLAT = {sort_keys: tuple(
    c_make_encoder(None, None, encode_basestring, None, ": ",
                   "," + newline, sort_keys, False, True)
    for newline in _NEWLINE) for sort_keys in (False, True)}
_SCALAR = _FLAT[False][0]


class _Fallback(Exception):
    """The value is left to json.dumps."""


def _indent(value, depth, flat, sort_keys, out) -> None:
    """Append the text of the dict, list or tuple ``value`` that opens at
    ``depth`` to ``out``, piece by piece; ``flat`` is ``_FLAT[sort_keys]``."""
    if not value:
        out("{}" if type(value) is dict else "[]")
        return
    depth += 1
    if depth > MAX_FAST_DEPTH:
        raise _Fallback
    newline = _NEWLINE[depth]
    if type(value) is dict:
        if not _STR.issuperset(map(type, value)):
            raise _Fallback
        items = value.values()
    else:
        items = value
    if _SCALARS.issuperset(map(type, items)):
        # the C encoder writes all of it, in several pieces once it is long
        text = "".join(flat[depth](value, 0))
        out(text[0] + newline)
        out(text[1:-1])
        out(_NEWLINE[depth - 1] + text[-1])
        return
    if type(value) is dict:
        keys = sorted(value) if sort_keys else value
        heads = [encode_basestring(key) + ": " for key in keys]
        items = map(value.__getitem__, keys)
        brackets = "{}"
    else:
        heads = repeat("")
        brackets = "[]"
    separator = brackets[0] + newline
    for head, item in zip(heads, items):
        out(separator + head)
        separator = "," + newline
        kind = type(item)
        if kind is str:
            out(encode_basestring(item))
        elif kind in _CONTAINERS:
            _indent(item, depth, flat, sort_keys, out)
        elif kind in _SCALARS:
            out("".join(_SCALAR(item, 0)))
        else:
            raise _Fallback
    out(_NEWLINE[depth - 1] + brackets[1])


def dumps_indented(value, *, sort_keys: bool = True) -> str:
    """Exactly ``json.dumps(value, indent=2, sort_keys=sort_keys,
    ensure_ascii=False)``, its errors included: see the module docstring."""
    chunks: list[str] = []
    try:
        if type(value) in _CONTAINERS:
            _indent(value, 0, _FLAT[sort_keys], sort_keys, chunks.append)
        elif type(value) in _SCALARS:
            chunks.extend(_SCALAR(value, 0))
        else:
            raise _Fallback
    except _Fallback:
        return json.dumps(value, indent=2, sort_keys=sort_keys,
                          ensure_ascii=False)
    return "".join(chunks)


def write_json(value, path: str | Path, *, sort_keys: bool = True) -> None:
    """Every JSON file the package writes: two-space indent, UTF-8, one
    trailing newline."""
    write_text(dumps_indented(value, sort_keys=sort_keys) + "\n", path)


def write_records(records, path: str | Path) -> None:
    write_text("".join(dumps_record(record) + "\n" for record in records), path)


def _parse_prediction(obj: dict, line: int) -> PredictionRow:
    record_id = _field(obj, "id", str, line)
    mode = _field(obj, "mode", str, line)
    repeat = _field(obj, "repeat", int, line)
    if repeat < 0:
        raise DatasetError("repeat must be >= 0", line=line, field="repeat")
    answer = obj.get("answer")
    if answer == ABSTAIN:
        answer = None
    elif isinstance(answer, bool) or not isinstance(answer, int):
        raise DatasetError(
            "answer must be an integer index or the abstain marker",
            line=line, field="answer",
        )
    elif answer < 0:
        raise DatasetError("answer must be >= 0", line=line, field="answer")
    return PredictionRow(record_id=record_id, mode=mode, repeat=repeat, answer=answer)


def load_predictions(path: str | Path) -> list[PredictionRow]:
    return _load(path, _parse_prediction)


def write_predictions(rows, path: str | Path) -> None:
    """Write prediction rows ordered by (id, repeat); the order is part of the
    format so repeated runs diff cleanly."""
    ordered = sorted(rows, key=lambda r: (r.record_id, r.repeat))
    write_records(ordered, path)


def _one_hot_constraints(n: int) -> tuple[Constraint, ...]:
    variables = [f"x{i + 1}" for i in range(n)]
    return (
        parse_constraint(" + ".join(variables) + " <= 1"),
        parse_constraint(", ".join(variables) + " in {0, 1}"),
    )


def mta_problem(record: MtaRecord,
                one_hot=_one_hot_constraints) -> DecisionProblem:
    """View an MTA record as a decision problem with standard one-hot
    constraints, ``one_hot(n)`` for n actions."""
    return DecisionProblem(
        problem_id=record.record_id,
        scenario=record.scenario,
        actions=record.choices,
        constraints=one_hot(len(record.choices)),
        bias_directive=record.bias_text,
    )


def dellma_problem(record: DellmaRecord,
                   one_hot=_one_hot_constraints) -> DecisionProblem:
    return DecisionProblem(
        problem_id=record.record_id,
        scenario=record.context,
        actions=record.actions,
        constraints=one_hot(len(record.actions)),
        bias_directive=None,
    )


def problems_from_records(records, kind: str):
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    convert = mta_problem if kind == "mta" else dellma_problem
    # one pair per action count, shared by its problems; built afresh per
    # call, so every call parses as much as a new process does
    one_hot = cache(_one_hot_constraints)
    return [convert(r, one_hot) for r in records]
