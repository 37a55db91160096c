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
with ``json.JSONDecoder.raw_decode`` before any walk. One pattern,
``STRING``, decides where strings are: a string opens at either quote, a
backslash in it escapes the next character, and a string that never closes
runs to the end of the text. The balanced-brace walk steps from string or
brace to the next, and each repair is a substitution that puts every string
back as it was (the single-quote repair converts the closed single-quoted
ones), so braces and repairs count only outside strings. Semantic guessing
is out of scope: a completion that does not carry the expected fields fails
with a classified error.
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
# where the strings are, for the walk and every repair: group 1 is a whole
# string, group 2 the body of a closed single-quoted one
STRING = r"""("[^"\\]*(?:\\.[^"\\]*)*"|'([^'\\]*(?:\\.[^'\\]*)*)'|["'].*)"""
WALK_RE = re.compile(STRING + "|[{}]", re.S)
# in a single-quoted body: an escape (\' becomes ', any other stays as it
# is) or a double quote
BODY_QUOTE_RE = re.compile(r'(\\.)|"', re.S)


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
        try:  # one read, with read_text's newlines but not its text-mode file
            body = path.read_bytes().decode("utf-8")
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise TemplateError(f"no template file for stage '{stage}' at {path}") from None
        body = body.replace("\r\n", "\n").replace("\r", "\n")
        templates[stage] = StageTemplate(stage=stage, body=body)
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
    """Slice of text from the first '{' to its matching '}', stepping from
    string or brace to the next, so that braces in strings do not count."""
    start = text.find("{")
    if start < 0:
        return None
    depth = 0
    for match in WALK_RE.finditer(text, start):
        if match[0] == "{":
            depth += 1
        elif match[0] == "}":
            depth -= 1
            if depth == 0:
                return text[start : match.end()]
    return None


def _double_quoted(match: re.Match) -> str:
    """A closed single-quoted string as a double-quoted one, its \\' as a
    plain '; any other string as it stands."""
    if match[2] is None:
        return match[1]
    return '"' + BODY_QUOTE_RE.sub(
        lambda m: "'" if m[1] == "\\'" else m[1] or '\\"', match[2]) + '"'


# (note, pattern, replacement): each pattern matches a string first and puts
# it back, so that a repair rewrites only the text outside strings
REPAIR_PASSES = (
    ("removed trailing commas",
     re.compile(STRING + r"|,(\s*[}\]])", re.S), r"\1\3"),
    ("quoted bare keys",
     re.compile(STRING + r"|([{,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)", re.S),
     lambda m: m[1] or f'{m[3]}"{m[4]}"{m[5]}'),
    ("converted single quotes to double quotes",
     re.compile(STRING, re.S), _double_quoted),
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
    purely syntactic and bounded; if none of them produce valid JSON the
    error says why, and the run's trace holds the text.

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


def _candidates(text: str):
    """The first balanced object of each fence block, then, once those have
    all been tried, that of the whole text unless a block gave it."""
    fenced = [candidate for candidate in map(_first_balanced_object,
                                              _fence_blocks(text))
              if candidate is not None]
    yield from fenced
    whole = _first_balanced_object(text)
    if whole is not None and whole not in fenced:
        yield whole


def _walk_json_block(text: str) -> tuple[str, list[str]]:
    """`extract_json_block` by balanced walks over every candidate, with the
    repair passes applied to each in turn."""
    last_error = None
    for candidate in _candidates(text):
        try:
            json.loads(candidate)
            return candidate, []
        except json.JSONDecodeError as err:
            last_error = str(err)  # not err: its traceback would make a cycle
        attempt, repairs = candidate, []
        for note, pattern, replacement in REPAIR_PASSES:
            fixed = pattern.sub(replacement, attempt)
            if fixed == attempt:
                continue  # the same text fails as it did
            repairs.append(note)
            attempt = fixed
            try:
                json.loads(attempt)
            except json.JSONDecodeError as err:
                last_error = str(err)
                continue
            for applied in repairs:
                log.debug("json repair applied: %s", applied)
            return attempt, repairs
    if last_error is None:
        raise OutputParseError("no JSON object found in completion")
    raise OutputParseError(f"completion contains no parseable JSON object: {last_error}")


def parse_json_payload(text: str) -> tuple[object, list[str]]:
    block, repairs = extract_json_block(text)
    return json.loads(block), repairs


def _json_object(text: str) -> dict:
    """The JSON object a completion carries; SchemaError if it is not one."""
    payload, _ = parse_json_payload(text)
    if not isinstance(payload, dict):
        raise SchemaError(f"expected a JSON object, got {type(payload).__name__}")
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


def _unit_interval(value: object, what: str) -> float:
    """value read by `_as_number` and clamped into [0, 1] with one warning;
    SchemaError naming ``what`` when it is not a finite number. A value in
    range comes back as it was read."""
    number = _as_number(value)
    if number is None:
        raise SchemaError(f"{what} is not a finite number: {value!r}")
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
        raise SchemaError("completion lacks an 'information' key")
    items = payload["information"]
    if not isinstance(items, list):
        raise SchemaError("'information' must be an array")
    subject_tokens = set()
    for label in actions:
        subject_tokens |= _label_tokens(label)
    statements = []
    for item in items:
        if not isinstance(item, str):
            raise SchemaError("'information' entries must be strings")
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


def _attribute_pairs(entry: object):
    """Normalize one variable's attribute listing to (name, verbal) pairs."""
    if isinstance(entry, dict):
        for name, value in entry.items():
            yield str(name), _cell_text(value)
        return
    if not isinstance(entry, list):
        raise SchemaError("'Attribute' must be an array or object")
    for item in entry:
        if isinstance(item, dict):
            name = item.get("Attribute") or item.get("attribute") or item.get("Name")
            if not isinstance(name, str) or not name.strip():
                raise SchemaError("attribute entry lacks a name")
            value = item.get("Value", item.get("value", ""))
            yield name, _cell_text(value)
        elif isinstance(item, str):
            if ":" in item:
                name, _, value = item.partition(":")
                yield name, value.strip()
            else:
                yield item, "mentioned"
        else:
            raise SchemaError(f"attribute entry has unsupported type {type(item).__name__}")


def parse_attribute_table(text: str, actions) -> AttributeTable:
    """Build the verbal attribute table from a summarize_attributes completion.

    Attribute names are unioned across actions under canonicalization; cells
    the model never filled read "not mentioned". A variable that matches no
    action is an alignment error listing the candidates.
    """
    payload = _json_object(text)
    entries = payload.get("Variable", payload.get("Variables"))
    if entries is None:
        raise SchemaError("completion lacks a 'Variable' key")
    if not isinstance(entries, list):
        raise SchemaError("'Variable' must be an array")

    actions = tuple(actions)
    canon_actions = [canonical_name(label) for label in actions]
    attr_order: list[str] = []
    attr_display: dict[str, str] = {}
    filled: dict[tuple[int, str], str] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise SchemaError("variable entries must be objects")
        name = entry.get("Variable", entry.get("variable"))
        if not isinstance(name, str) or not name.strip():
            raise SchemaError("variable entry lacks a name")
        index = _match_canonical(name, canon_actions)
        if index is None:
            raise AlignmentError(
                f"variable {name!r} matches no action; candidates: {list(actions)}")
        for attr_name, verbal in _attribute_pairs(entry.get("Attribute", [])):
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
        raise SchemaError("completion lacks a 'Weight' key")
    weight = _unit_interval(payload["Weight"], "'Weight'")
    explanation = payload.get("Explanation", "")
    return (str(explanation) if explanation is not None else "", weight)


def parse_decision(text: str, n_actions: int) -> int:
    """Read the 0-based answer. The completion numbers the choices from 1, as
    the prompts do; it is made 0-based once, here at the boundary. Other
    keys, such as a Reasoning, are ignored: the trace keeps the text."""
    payload = _json_object(text)
    if "Answer" not in payload:
        raise SchemaError("completion lacks an 'Answer' key")
    value = _as_number(payload["Answer"])
    if value is None or int(value) != value:
        raise SchemaError(f"'Answer' is not an integer index: {payload['Answer']!r}")
    answer = int(value) - 1
    if not 0 <= answer < n_actions:
        raise AnswerRangeError(
            f"answer {payload['Answer']!r} is outside the action range [1, {n_actions}]")
    return answer


def parse_grounding(text: str, table: AttributeTable, surviving) -> tuple:
    """Read per-cell scores for the filter-surviving cells of the table.

    Returns an n x m grid. Cells outside the surviving set default to 0.0;
    "not mentioned" cells score 0.0 by definition; a surviving, mentioned
    cell with no score is a completeness error naming the cell.
    """
    payload = _json_object(text)
    if "Scores" not in payload:
        raise SchemaError("completion lacks a 'Scores' key")
    items = payload["Scores"]
    if not isinstance(items, list):
        raise SchemaError("'Scores' must be an array")

    canon_actions = [canonical_name(label) for label in table.actions]
    scored: dict[tuple[int, int], float] = {}
    for item in items:
        if not isinstance(item, dict):
            raise SchemaError("score entries must be objects")
        var = item.get("Variable", item.get("variable"))
        attr = item.get("Attribute", item.get("attribute"))
        if not isinstance(var, str) or not isinstance(attr, str):
            raise SchemaError("score entry lacks Variable/Attribute names")
        i = _match_canonical(var, canon_actions)
        j = table.columns.get(canonical_name(attr))
        if i is None or j is None:
            log.warning("score for unknown cell (%r, %r) ignored", var, attr)
            continue
        value = _unit_interval(item.get("Score"), f"score for ({var!r}, {attr!r})")
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
                    f"{table.attributes[j]!r})")
            else:
                row.append(0.0)
        grid.append(tuple(row))
    return tuple(grid)
