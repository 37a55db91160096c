"""Prompt stages: template loading, rendering, and completion parsers.

Rendering fills ``{placeholder}`` slots in plain-text templates; literal JSON
examples survive because only lowercase identifier tokens are treated as
placeholders. A template is split at its placeholders once, on its first
render, and every later render joins the pieces.

Parsing recovers a JSON object from a completion, applying a bounded set of
syntactic repairs (trailing commas, bare keys, single quotes), each logged.
Fence blocks are the odd pieces of ``text.split("```")`` that a later fence
closes, less a leading ``json`` tag and leading whitespace. The object in a
fence is preferred over bare braces, and its first candidate is decoded
with ``json.JSONDecoder.raw_decode`` before any walk. Only when that fails
does a balanced-brace walk run; it jumps between the five characters that
can change its state (braces, both quotes and backslash) rather than
stepping through every character. Semantic guessing is out of scope: a
completion that does not carry the expected fields fails with a classified
error.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Mapping

from .core import NOT_MENTIONED, AttributeTable, canonical_name, finite_float
from .errors import (
    AlignmentError,
    AnswerRangeError,
    CompletenessError,
    OutputParseError,
    SchemaError,
    TemplateError,
)
from .gateway import STAGE_TAGS

log = logging.getLogger(__name__)

# one template per stage tag; self_consistency samples the zero_shot prompt
STAGES = tuple(tag for tag in STAGE_TAGS if tag != "self_consistency")

PLACEHOLDER_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")
# the characters that can change the state of the balanced-brace walk
WALK_RE = re.compile(r"""[{}"'\\]""")
TRAILING_COMMA_RE = re.compile(r",(\s*[}\]])")
BARE_KEY_RE = re.compile(r"([{,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)")


@dataclass(frozen=True)
class StageTemplate:
    stage: str
    body: str

    @cached_property
    def pieces(self) -> tuple[str, ...]:
        """The body split at its placeholders: literal text at even indices,
        placeholder names at odd ones. Computed once per template."""
        return tuple(PLACEHOLDER_RE.split(self.body))

    @cached_property
    def placeholder_names(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.pieces[1::2])))


def load_templates(directory: str | Path | None = None) -> dict[str, StageTemplate]:
    """Load one template per stage from a directory of ``<stage>.txt`` files.

    With no directory, the packaged defaults are used.
    """
    root = (resources.files("decisionflow").joinpath("templates")
            if directory is None else Path(directory))
    templates = {}
    for stage in STAGES:
        path = root.joinpath(f"{stage}.txt")
        if not path.is_file():
            raise TemplateError(f"no template file for stage '{stage}' at {path}")
        templates[stage] = StageTemplate(stage=stage,
                                         body=path.read_text(encoding="utf-8"))
    return templates


def render_stage_prompt(template: StageTemplate, context: Mapping[str, object]) -> str:
    """Substitute every placeholder; a missing one is an error naming it."""
    missing = [name for name in template.placeholder_names if name not in context]
    if missing:
        raise TemplateError(
            f"stage '{template.stage}' is missing placeholder value(s): "
            + ", ".join(missing)
        )
    pieces = list(template.pieces)
    pieces[1::2] = [str(context[name]) for name in pieces[1::2]]
    return "".join(pieces)


def _first_balanced_object(text: str) -> str | None:
    """Slice of text from the first '{' to its string-aware matching '}'.

    Inside a string a backslash escapes the character after it; outside one
    it is an ordinary character.
    """
    start = text.find("{")
    if start < 0:
        return None
    depth = 0
    quote = ""  # the quote of the open string; empty outside a string
    escaped = -1  # the position a backslash in a string escapes
    for match in WALK_RE.finditer(text, start):
        pos = match.start()
        if pos == escaped:
            continue
        ch = text[pos]
        if quote:
            if ch == "\\":
                escaped = pos + 1
            elif ch == quote:
                quote = ""
            continue
        if ch in "\"'":
            quote = ch
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[start : pos + 1]
    return None


def _single_to_double_quotes(text: str) -> str:
    """Swap single-quoted strings for double-quoted ones, character-wise."""
    out = []
    in_string = False
    quote = ""
    escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
                out.append(ch)
            elif ch == "\\":
                escaped = True
                out.append(ch)
            elif ch == quote:
                in_string = False
                out.append('"')
            elif ch == '"' and quote == "'":
                out.append('\\"')
            else:
                out.append(ch)
            continue
        if ch in "\"'":
            in_string = True
            quote = ch
            out.append('"')
        else:
            out.append(ch)
    return "".join(out)


REPAIR_PASSES = (
    ("removed trailing commas", lambda s: TRAILING_COMMA_RE.sub(r"\1", s)),
    ("quoted bare keys", lambda s: BARE_KEY_RE.sub(r'\1"\2"\3', s)),
    ("converted single quotes to double quotes", _single_to_double_quotes),
)


_DECODER = json.JSONDecoder()


def _fence_blocks(text: str) -> list[str]:
    """The body of every closed ``` fence in text, less a leading ``json``
    tag and the whitespace after it."""
    blocks = []
    for block in text.split("```")[1:-1:2]:
        if block.startswith("json"):
            block = block[4:]
        blocks.append(block.lstrip())
    return blocks


def extract_json_block(text: str) -> tuple[str, list[str]]:
    """Return the first well-delimited JSON object in ``text`` plus a repair log.

    The object inside a code fence is preferred over bare braces. Repairs are
    purely syntactic and bounded; if none of them produce valid JSON the raw
    text rides along on the error.

    The first candidate is decoded as it stands before any walk: it starts at
    the first '{' of the first fence block holding one, else of the whole
    text. Valid JSON there is the slice the walk would return, so only a
    completion that needs the walk or a repair pays for them.
    """
    source = next((block for block in _fence_blocks(text) if "{" in block),
                  text)
    start = source.find("{")
    if start >= 0:
        try:
            _, end = _DECODER.raw_decode(source, start)
            return source[start:end], []
        except json.JSONDecodeError:
            pass
    return _walk_json_block(text)


def _walk_json_block(text: str) -> tuple[str, list[str]]:
    """`extract_json_block` by balanced walks over every candidate, with the
    repair passes applied to each in turn."""
    candidates = []
    for block in _fence_blocks(text):
        inner = _first_balanced_object(block)
        if inner is not None:
            candidates.append(inner)
    whole = _first_balanced_object(text)
    if whole is not None and whole not in candidates:
        candidates.append(whole)
    if not candidates:
        raise OutputParseError("no JSON object found in completion", raw=text)

    last_error = None
    for candidate in candidates:
        attempt = candidate
        repairs: list[str] = []
        try:
            json.loads(attempt)
            return attempt, []
        except json.JSONDecodeError as err:
            last_error = err
        for note, fix in REPAIR_PASSES:
            fixed = fix(attempt)
            if fixed != attempt:
                repairs.append(note)
                attempt = fixed
            try:
                json.loads(attempt)
                for applied in repairs:
                    log.debug("json repair applied: %s", applied)
                return attempt, repairs
            except json.JSONDecodeError as err:
                last_error = err
    raise OutputParseError(
        f"completion contains no parseable JSON object: {last_error}", raw=text
    )


def parse_json_payload(text: str) -> tuple[object, list[str]]:
    block, repairs = extract_json_block(text)
    return json.loads(block), repairs


def _json_object(text: str) -> dict:
    """The JSON object a completion carries; SchemaError if it is not one."""
    payload, _ = parse_json_payload(text)
    if not isinstance(payload, dict):
        raise SchemaError(
            f"expected a JSON object, got {type(payload).__name__}", raw=text
        )
    return payload


def _as_number(value: object) -> float | None:
    """value, or the string value read by float(), as a finite float; None
    for anything else, NaN, the infinities and ints past the float range."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return None
    return finite_float(value)


def _unit_interval(value: object, what: str, raw: str) -> float:
    """value read by `_as_number` and clamped into [0, 1] with one warning;
    SchemaError naming ``what`` when it is not a finite number. A value in
    range comes back as it was read."""
    number = _as_number(value)
    if number is None:
        raise SchemaError(f"{what} is not a finite number: {value!r}", raw=raw)
    if not 0.0 <= number <= 1.0:
        clamped = min(1.0, max(0.0, number))
        log.warning("%s is %s, outside [0, 1]; clamped to %s", what, number, clamped)
        return clamped
    return number


def _label_tokens(label: str) -> set[str]:
    return {tok for tok in canonical_name(label).split() if len(tok) >= 3}


def parse_extraction(text: str, actions) -> list[str]:
    """Read the ``information`` statement array.

    Statements that name no action are logged and kept; an empty array is a
    degenerate but legal outcome (the caller flags it).
    """
    payload = _json_object(text)
    if "information" not in payload:
        raise SchemaError("completion lacks an 'information' key", raw=text)
    items = payload["information"]
    if not isinstance(items, list):
        raise SchemaError("'information' must be an array", raw=text)
    subject_tokens = set()
    for label in actions:
        subject_tokens |= _label_tokens(label)
    statements = []
    for item in items:
        if not isinstance(item, str):
            raise SchemaError("'information' entries must be strings", raw=text)
        stmt = item.strip()
        if not stmt:
            continue
        if subject_tokens and not (_label_tokens(stmt) & subject_tokens):
            log.warning("extracted statement names no known subject: %r", stmt)
        statements.append(stmt)
    if not statements:
        log.warning("extraction produced no statements; downstream table is empty")
    return statements


def _match_canonical(name: str, canon_actions: list[str]) -> int | None:
    """Resolve a variable name to an action index: the label it equals once
    normalized, else the first label it contains or is contained in. The
    labels come canonicalised, so that a parser canonicalises them once
    rather than once per entry."""
    canon = canonical_name(name)
    if not canon:
        return None
    if canon in canon_actions:
        return canon_actions.index(canon)
    for i, canon_label in enumerate(canon_actions):
        if canon in canon_label or canon_label in canon:
            return i
    return None


def _cell_text(value: object) -> str:
    if isinstance(value, list):
        return ", ".join(_cell_text(v) for v in value)
    if isinstance(value, dict):
        return ", ".join(f"{k}: {_cell_text(v)}" for k, v in value.items())
    return str(value).strip()


def _attribute_pairs(entry: object, raw: str):
    """Normalize one variable's attribute listing to (name, verbal) pairs."""
    if isinstance(entry, dict):
        for name, value in entry.items():
            yield str(name), _cell_text(value)
        return
    if not isinstance(entry, list):
        raise SchemaError("'Attribute' must be an array or object", raw=raw)
    for item in entry:
        if isinstance(item, dict):
            name = item.get("Attribute") or item.get("attribute") or item.get("Name")
            if not isinstance(name, str) or not name.strip():
                raise SchemaError("attribute entry lacks a name", raw=raw)
            value = item.get("Value", item.get("value", ""))
            yield name, _cell_text(value)
        elif isinstance(item, str):
            if ":" in item:
                name, _, value = item.partition(":")
                yield name, value.strip()
            else:
                yield item, "mentioned"
        else:
            raise SchemaError(
                f"attribute entry has unsupported type {type(item).__name__}", raw=raw
            )


def parse_attribute_table(text: str, actions) -> AttributeTable:
    """Build the verbal attribute table from a summarize_attributes completion.

    Attribute names are unioned across actions under canonicalization; cells
    the model never filled read "not mentioned". A variable that matches no
    action is an alignment error listing the candidates.
    """
    payload = _json_object(text)
    entries = payload.get("Variable", payload.get("Variables"))
    if entries is None:
        raise SchemaError("completion lacks a 'Variable' key", raw=text)
    if not isinstance(entries, list):
        raise SchemaError("'Variable' must be an array", raw=text)

    actions = tuple(actions)
    canon_actions = [canonical_name(label) for label in actions]
    attr_order: list[str] = []
    attr_display: dict[str, str] = {}
    filled: dict[tuple[int, str], str] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaError("variable entries must be objects", raw=text)
        name = entry.get("Variable", entry.get("variable"))
        if not isinstance(name, str) or not name.strip():
            raise SchemaError("variable entry lacks a name", raw=text)
        index = _match_canonical(name, canon_actions)
        if index is None:
            raise AlignmentError(
                f"variable {name!r} matches no action; candidates: {list(actions)}",
                raw=text,
            )
        for attr_name, verbal in _attribute_pairs(entry.get("Attribute", []), text):
            canon = canonical_name(attr_name)
            if not canon:
                continue
            if canon not in attr_display:
                attr_display[canon] = attr_name.strip()
                attr_order.append(canon)
            key = (index, canon)
            if key in filled:
                log.warning(
                    "duplicate attribute %r for action %r; keeping the first value",
                    attr_name, actions[index],
                )
                continue
            filled[key] = verbal if verbal else NOT_MENTIONED
    cells = tuple(
        tuple(filled.get((i, canon), NOT_MENTIONED) for canon in attr_order)
        for i in range(len(actions))
    )
    return AttributeTable(
        actions=actions,
        attributes=tuple(attr_display[c] for c in attr_order),
        cells=cells,
    )


def parse_weight(text: str) -> tuple[str, float]:
    """Read (explanation, weight); out-of-range weights clamp with a warning."""
    payload = _json_object(text)
    if "Weight" not in payload:
        raise SchemaError("completion lacks a 'Weight' key", raw=text)
    weight = _unit_interval(payload["Weight"], "'Weight'", text)
    explanation = payload.get("Explanation", "")
    return (str(explanation) if explanation is not None else "", weight)


def parse_decision(text: str, n_actions: int, index_base: int = 0) -> tuple[str, int]:
    """Read (reasoning, answer), normalizing the published indexing to 0-based.

    index_base describes how the choices were numbered in the prompt (0 or 1).
    The answer is normalized exactly once, here at the boundary.
    """
    payload = _json_object(text)
    if "Answer" not in payload:
        raise SchemaError("completion lacks an 'Answer' key", raw=text)
    value = _as_number(payload["Answer"])
    if value is None or int(value) != value:
        raise SchemaError(
            f"'Answer' is not an integer index: {payload['Answer']!r}", raw=text
        )
    answer = int(value) - index_base
    if not 0 <= answer < n_actions:
        raise AnswerRangeError(
            f"answer {payload['Answer']!r} is outside the action range "
            f"[{index_base}, {index_base + n_actions - 1}]",
            raw=text,
        )
    reasoning = payload.get("Reasoning", "")
    return (str(reasoning) if reasoning is not None else "", answer)


def parse_grounding(text: str, table: AttributeTable, surviving) -> tuple:
    """Read per-cell scores for the filter-surviving cells of the table.

    Returns an n x m grid. Cells outside the surviving set default to 0.0;
    "not mentioned" cells score 0.0 by definition; a surviving, mentioned
    cell with no score is a completeness error naming the cell.
    """
    payload = _json_object(text)
    if "Scores" not in payload:
        raise SchemaError("completion lacks a 'Scores' key", raw=text)
    items = payload["Scores"]
    if not isinstance(items, list):
        raise SchemaError("'Scores' must be an array", raw=text)

    canon_actions = [canonical_name(label) for label in table.actions]
    scored: dict[tuple[int, int], float] = {}
    for item in items:
        if not isinstance(item, dict):
            raise SchemaError("score entries must be objects", raw=text)
        var = item.get("Variable", item.get("variable"))
        attr = item.get("Attribute", item.get("attribute"))
        if not isinstance(var, str) or not isinstance(attr, str):
            raise SchemaError("score entry lacks Variable/Attribute names", raw=text)
        i = _match_canonical(var, canon_actions)
        j = table.columns.get(canonical_name(attr))
        if i is None or j is None:
            log.warning("score for unknown cell (%r, %r) ignored", var, attr)
            continue
        value = _unit_interval(item.get("Score"),
                               f"score for ({var!r}, {attr!r})", text)
        if (i, j) not in scored:
            scored[(i, j)] = value

    surviving = set(surviving)
    n, m = table.shape
    grid = []
    for i in range(n):
        row = []
        for j in range(m):
            if not table.mentioned[i][j]:
                row.append(0.0)
            elif (i, j) in scored:
                row.append(scored[(i, j)])
            elif (i, j) in surviving:
                raise CompletenessError(
                    f"no score for surviving cell ({table.actions[i]!r}, "
                    f"{table.attributes[j]!r})",
                    raw=text,
                )
            else:
                row.append(0.0)
        grid.append(tuple(row))
    return tuple(grid)
