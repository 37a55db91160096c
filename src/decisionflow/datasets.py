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

import io
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


_MISSING = object()
_scan = json.JSONDecoder().scan_once


def _read(obj: dict, table) -> dict:
    """Record field -> value of the keys ``table`` names, each read and
    checked once, in table order, arrays as tuples. A row ``(field, key,
    type, fault)`` requires the key and its exact type (JSON gives no
    subclass, so a bool is not an int); then ``fault(value, values)``, given
    the values read before it, gives the text of the value's fault or None."""
    values = {}
    for field, key, kind, fault in table:
        value = obj.get(key, _MISSING)
        if type(value) is not kind:
            raise DatasetError("missing field" if value is _MISSING else
                               f"field has type {type(value).__name__}", field=key)
        if fault is not None and (message := fault(value, values)):
            raise DatasetError(message, field=key)
        values[field] = tuple(value) if kind is list else value
    return values


def _record(cls, values: dict):
    """``cls(**values)`` made as pickle makes it, with values as its __dict__:
    a frozen __init__ sets each field with object.__setattr__, at 3x the cost."""
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", values)
    return record


def _label_fault(labels: list, values=None) -> str | None:
    """Two or more non-blank strings, none repeated: the first repeat is named."""
    try:
        blank = len(labels) < 2 or not all(map(str.strip, labels))
    except TypeError:  # str.strip of a label that is not a string
        blank = True
    if blank:
        return "must be a list of at least 2 non-empty strings"
    if len(set(labels)) < len(labels):
        repeat = next(label for i, label in enumerate(labels) if label in labels[:i])
        return f"repeats the label {repeat!r}"
    return None


def _gold_fault(labels: str):
    """gold indexes the labels of the field ``labels``."""
    return lambda gold, values: (
        f"gold {gold} out of range for {len(values[labels])} {labels}"
        if not 0 <= gold < len(values[labels]) else None)


# one row per field, in the order of the record's fields and of the checks
_MTA_FIELDS = (
    ("record_id", "id", str, None),
    ("scenario", "scenario", str, None),  # its text is checked after the others
    ("choices", "choices", list, _label_fault),
    ("dma", "dma", str, lambda dma, _: f"unknown dma {dma!r}" if dma not in DMA_VALUES else None),
    ("alignment", "alignment", str, lambda alignment, _:
     f"alignment must be one of {ALIGNMENTS}" if alignment not in ALIGNMENTS else None),
    ("bias_text", "bias_text", str, lambda text, _: "bias_text must be non-empty"
     if not text.strip() else None),
    ("gold", "gold", int, _gold_fault("choices")),
)
_DELLMA_FIELDS = (
    ("record_id", "id", str, None),
    ("domain", "domain", str, lambda domain, _: f"domain must be one of {DELLMA_DOMAINS}"
     if domain not in DELLMA_DOMAINS else None),
    ("context", "context", str, lambda text, _: "context must be non-empty"
     if not text.strip() else None),
    ("actions", "actions", list, lambda labels, _: _label_fault(labels) or (
        f"{len(labels)} actions exceeds the supported maximum of 7"
        if len(labels) > 7 else None)),
    ("gold", "gold", int, _gold_fault("actions")),
)
_PREDICTION_FIELDS = (
    ("record_id", "id", str, None),
    ("mode", "mode", str, None),
    ("repeat", "repeat", int, lambda repeat, _: "repeat must be >= 0" if repeat < 0 else None),
)


def _parse_mta(obj: dict) -> MtaRecord:
    record = _record(MtaRecord, _read(obj, _MTA_FIELDS))
    if not record.scenario.strip():
        raise DatasetError("scenario must be non-empty", field="scenario")
    return record


def _parse_dellma(obj: dict) -> DellmaRecord:
    return _record(DellmaRecord, _read(obj, _DELLMA_FIELDS))


def _load(path: str | Path, parse) -> list:
    """``parse(obj, line)`` of each record of the JSONL file at ``path``; a
    DatasetError raised on the way names ``path`` and the line."""
    rows = []
    data = Path(path).read_bytes()
    if b"\r" in data:  # end lines where text mode does: at \n, \r\n or \r
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:  # BytesIO finds each \n with memchr; bytes.splitlines tests each byte
        for line_no, raw in enumerate(io.BytesIO(data), start=1):
            try:
                text = raw.rstrip(b"\n").decode("utf-8")
                if not text.strip():
                    continue
                text = text.lstrip(" \t")  # json.loads(text) and its errors
                try:
                    obj, end = _scan(text, 0)
                except StopIteration as err:  # no value starts at err.value
                    raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)"
                                               if raw.startswith(b"\xef\xbb\xbf") else
                                               "Expecting value", text, err.value) from None
                if end < len(text) and text[end:].strip(" \t"):
                    raise json.JSONDecodeError("Extra data", text, end)
            except UnicodeDecodeError as err:
                raise DatasetError(f"not UTF-8: {err}") from err
            except json.JSONDecodeError as err:
                raise DatasetError(f"invalid JSON: {err.msg}") from err
            if type(obj) is not dict:
                raise DatasetError("record is not a JSON object")
            rows.append(parse(obj, line_no))
    except DatasetError as err:
        err.path = os.fspath(path)
        err.line = line_no
        raise
    return rows


def load_dataset(path: str | Path, kind: str):
    """Load and validate a dataset of one of DATASET_KINDS."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    parse_kind = _parse_mta if kind == "mta" else _parse_dellma
    seen: dict[str, int] = {}

    def parse(obj: dict, line_no: int):
        record = parse_kind(obj)
        record_id = record.record_id
        # the id names the run's trace files
        if (record_id in ("", ".", "..") or "/" in record_id
                or "\\" in record_id or "\0" in record_id):
            raise DatasetError(f"id {record_id!r} is not a plain file name",
                               field="id")
        if record_id in seen:
            raise DatasetError(f"duplicate id {record_id!r} (first on line "
                               f"{seen[record_id]})", field="id")
        seen[record_id] = line_no
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


def _parse_prediction(obj: dict) -> PredictionRow:
    values = _read(obj, _PREDICTION_FIELDS)
    answer = obj.get("answer")
    if answer == ABSTAIN:
        answer = None
    elif type(answer) is not int:
        raise DatasetError(
            "answer must be an integer index or the abstain marker",
            field="answer",
        )
    elif answer < 0:
        raise DatasetError("answer must be >= 0", field="answer")
    return PredictionRow(**values, answer=answer)


def load_predictions(path: str | Path) -> list[PredictionRow]:
    return _load(path, lambda obj, line_no: _parse_prediction(obj))


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


def problems_from_records(records, kind: str):
    """One DecisionProblem per record, with the standard one-hot constraints
    of its action count; a DeLLMa problem has no bias directive."""
    if kind not in DATASET_KINDS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    # one pair per action count, shared by its problems; built afresh per
    # call, so every call parses as much as a new process does
    one_hot = cache(_one_hot_constraints)
    # positional: a keyword call costs a fifth more
    if kind == "mta":
        return [DecisionProblem(r.record_id, r.scenario, r.choices,
                                one_hot(len(r.choices)), r.bias_text) for r in records]
    return [DecisionProblem(r.record_id, r.context, r.actions, one_hot(len(r.actions)))
            for r in records]
