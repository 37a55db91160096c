"""Deterministic scripted backend for tests and fixture recording.

ScriptedTransport satisfies the gateway transport interface without any
network. The scripted responders in this module synthesize well-formed stage
completions from the prompt text alone, with hash-derived numbers, so entire
experiment runs can be recorded and replayed byte for byte. A handful of
content-keyed overrides pin exact values for the worked triage example and
for failure-path fixtures.
"""

from __future__ import annotations

import hashlib
import json
import re

from .gateway import BackendReply, CompletionRequest, count_tokens

_CHOICE_LINE_RE = re.compile(r"^\((\d+)\)\s+(.*)$", re.MULTILINE)
_ACTION_LINE_RE = re.compile(r'^Action:\s*"(.*)"\s*$', re.MULTILINE)
_ATTRIBUTE_LINE_RE = re.compile(r'^Attribute:\s*"(.*)"\s*$', re.MULTILINE)

_CELLS_MARKER = "Attribute cells to score, as JSON:"

GENERIC_ATTRIBUTES = ("Expected benefit", "Risk level")
VERBAL_LEVELS = ("very poor", "poor", "fair", "good", "excellent")

RATIONALE_TEXT = (
    "The selected action carries the strongest weighted attribute profile "
    "under the stated directive; its leading attributes outscore those of "
    "the runner-up, and no active constraint rules it out."
)

REFUSAL_TEXT = (
    "I'm sorry, but I can't make this choice for you. Decisions like this "
    "one should be made by the responsible clinician on duty."
)


def _digest_int(*parts: str) -> int:
    joined = "\x1f".join(parts)
    return int(hashlib.sha256(joined.encode("utf-8")).hexdigest()[:8], 16)


def unit_hash(*parts: str) -> float:
    """Stable pseudo-random float in [0, 1], rounded to two decimals."""
    return round(_digest_int(*parts) / 0xFFFFFFFF, 2)


def deterministic_latency(request: CompletionRequest) -> float:
    """Stable fake latency in [0.5, 2.5), derived from the request digest."""
    return round(int(request.digest[:8], 16) / 0xFFFFFFFF * 2.0 + 0.5, 4)


def _bullet_block(prompt: str, header: str) -> list[str]:
    """The '- item' lines directly under a header line."""
    items = []
    lines = prompt.splitlines()
    try:
        start = lines.index(header) + 1
    except ValueError:
        return items
    for line in lines[start:]:
        if line.startswith("- "):
            items.append(line[2:])
        else:
            break
    return items


def _numbered_choices(prompt: str) -> tuple[list[str], int]:
    matches = _CHOICE_LINE_RE.findall(prompt)
    if not matches:
        return [], 1
    base = int(matches[0][0])
    return [label for _, label in matches], base


def _cells_from_prompt(prompt: str) -> list[dict]:
    marker = prompt.find(_CELLS_MARKER)
    if marker < 0:
        return []
    start = prompt.find("{", marker)
    payload, _ = json.JSONDecoder().raw_decode(prompt, start)
    return payload.get("Cells", [])


def _verbal_for(action: str, attribute: str) -> str:
    index = min(int(unit_hash(action, attribute, "verbal") * 5), 4)
    return VERBAL_LEVELS[index]


def default_stage_script(request: CompletionRequest) -> str:
    """Schema-correct completion for any pipeline request.

    Numbers are hash-derived from the content they score, so identical
    content always receives the identical value.
    """
    tag = request.stage_tag
    prompt = request.prompt

    if tag == "extract_info":
        actions = _bullet_block(prompt, "Candidate actions:")
        statements = [
            f"{action}: {attribute.lower()} looks "
            f"{_verbal_for(action, attribute)}."
            for action in actions
            for attribute in GENERIC_ATTRIBUTES
        ]
        return json.dumps({"information": statements}, ensure_ascii=False)

    if tag == "summarize_attributes":
        actions = _bullet_block(prompt, "Candidate actions (one variable per action):")
        variables = [
            {
                "Variable": action,
                "Attribute": [
                    {"Attribute": attribute, "Value": _verbal_for(action, attribute)}
                    for attribute in GENERIC_ATTRIBUTES
                ],
            }
            for action in actions
        ]
        return json.dumps({"Variable": variables}, ensure_ascii=False)

    if tag == "weigh":
        action = _ACTION_LINE_RE.search(prompt).group(1)
        attribute = _ATTRIBUTE_LINE_RE.search(prompt).group(1)
        weight = unit_hash(action, attribute, "weight")
        return json.dumps({
            "Explanation": f"{attribute} bears directly on {action}.",
            "Weight": weight,
        }, ensure_ascii=False)

    if tag == "ground_and_decide":
        scores = [
            {
                "Variable": cell["Variable"],
                "Attribute": cell["Attribute"],
                "Score": unit_hash(cell["Variable"], cell["Attribute"], "score"),
            }
            for cell in _cells_from_prompt(prompt)
        ]
        return json.dumps({
            "Reasoning": "Scores reflect how favorably each reported value "
                         "reads under the directive.",
            "Scores": scores,
        }, ensure_ascii=False)

    if tag == "rationale":
        return RATIONALE_TEXT

    if tag in ("zero_shot", "cot", "self_consistency", "joint"):
        labels, base = _numbered_choices(prompt)
        n = max(len(labels), 1)
        answer = base + _digest_int(prompt, str(request.attempt)) % n
        if tag == "zero_shot" or tag == "self_consistency":
            return json.dumps({"Answer": answer})
        reasoning = (
            "Comparing the candidate actions on the stated directive, option "
            f"({answer}) holds up best."
        )
        return json.dumps({"Reasoning": reasoning, "Answer": answer},
                          ensure_ascii=False)

    raise ValueError(f"no scripted responder for stage tag {request.stage_tag!r}")


# Exact values for the worked triage example: two casualties, two attributes,
# weights then grounded scores chosen so the utilities come out 0.625 / 1.62.
CASE_STUDY_ACTIONS = ("Treat the young woman", "Treat the bomber")

CASE_STUDY_TABLE = {
    "Treat the young woman": (
        ("Medical condition", "severe abdominal trauma"),
        ("Survival probability", "low even with immediate treatment"),
    ),
    "Treat the bomber": (
        ("Medical condition", "a treatable head wound"),
        ("Survival probability", "high if treated promptly"),
    ),
}

CASE_STUDY_WEIGHTS = {
    ("Treat the young woman", "Medical condition"): 0.9,
    ("Treat the young woman", "Survival probability"): 0.85,
    ("Treat the bomber", "Medical condition"): 0.9,
    ("Treat the bomber", "Survival probability"): 0.9,
}

CASE_STUDY_SCORES = {
    ("Treat the young woman", "Medical condition"): 0.6,
    ("Treat the young woman", "Survival probability"): 0.1,
    ("Treat the bomber", "Medical condition"): 0.9,
    ("Treat the bomber", "Survival probability"): 0.9,
}

# Weigh override for the degenerate fixture: every weight lands under any
# reasonable threshold, so filtering empties the matrix.
DEGENERATE_ACTION_MARKERS = ("Monitor the patient", "Discharge the patient")
DEGENERATE_WEIGHT = 0.05

# Baseline refusal fixture: prompts about this scenario get refused outright.
REFUSAL_MARKER = "tourniquet"

JOINT_WORKED_MARKER = "Proceed with surgery for Patient A"

JOINT_WORKED_REASONING = (
    "Step 1: the scenario describes two patients; Patient A is mid-surgery "
    "with a stable airway, Patient B just arrived with worsening vitals. "
    "Step 2: continuity of the current procedure and each patient's "
    "deterioration risk carry the most weight under the directive. "
    "Step 3: scoring those attributes gives the in-progress surgery a higher "
    "weighted utility than switching. "
    "Step 4: the highest-utility action is the first one."
)


def _case_study_statements() -> list[str]:
    statements = []
    for action, rows in CASE_STUDY_TABLE.items():
        for attribute, value in rows:
            statements.append(f"{action}: {attribute.lower()} is {value}.")
    return statements


def fixture_script(request: CompletionRequest) -> str:
    """The responder behind the bundled transcript corpus.

    Content-keyed overrides pin the worked triage example, the single-prompt
    worked example, the refusal fixture, and the degenerate-weights fixture;
    everything else falls through to the generic responder.
    """
    tag = request.stage_tag
    prompt = request.prompt

    if tag == "extract_info" and CASE_STUDY_ACTIONS[1] in prompt:
        return json.dumps({"information": _case_study_statements()},
                          ensure_ascii=False)

    if tag == "summarize_attributes" and CASE_STUDY_ACTIONS[1] in prompt:
        variables = [
            {
                "Variable": action,
                "Attribute": [
                    {"Attribute": attribute, "Value": value}
                    for attribute, value in CASE_STUDY_TABLE[action]
                ],
            }
            for action in CASE_STUDY_ACTIONS
        ]
        return json.dumps({"Variable": variables}, ensure_ascii=False)

    if tag == "weigh":
        action = _ACTION_LINE_RE.search(prompt).group(1)
        attribute = _ATTRIBUTE_LINE_RE.search(prompt).group(1)
        if (action, attribute) in CASE_STUDY_WEIGHTS:
            return json.dumps({
                "Explanation": f"{attribute} is central to the directive.",
                "Weight": CASE_STUDY_WEIGHTS[(action, attribute)],
            }, ensure_ascii=False)
        if any(marker in action for marker in DEGENERATE_ACTION_MARKERS):
            return json.dumps({
                "Explanation": "This attribute barely matters here.",
                "Weight": DEGENERATE_WEIGHT,
            }, ensure_ascii=False)

    if tag == "ground_and_decide":
        cells = _cells_from_prompt(prompt)
        if any((c["Variable"], c["Attribute"]) in CASE_STUDY_SCORES for c in cells):
            scores = [
                {
                    "Variable": cell["Variable"],
                    "Attribute": cell["Attribute"],
                    "Score": CASE_STUDY_SCORES.get(
                        (cell["Variable"], cell["Attribute"]),
                        unit_hash(cell["Variable"], cell["Attribute"], "score"),
                    ),
                }
                for cell in cells
            ]
            return json.dumps({
                "Reasoning": "The bomber's treatable wound and survival odds "
                             "dominate under a save-the-most-lives directive.",
                "Scores": scores,
            }, ensure_ascii=False)

    if tag in ("zero_shot", "cot", "self_consistency") and REFUSAL_MARKER in prompt:
        return REFUSAL_TEXT

    if tag == "joint" and JOINT_WORKED_MARKER in prompt:
        return json.dumps({"Reasoning": JOINT_WORKED_REASONING, "Answer": 1},
                          ensure_ascii=False)

    return default_stage_script(request)


class ScriptedTransport:
    """Transport stand-in that answers from a script function.

    The script maps a CompletionRequest to completion text (or to a full
    BackendReply for finer control). Token counts are whitespace counts and
    latency is digest-derived, so recorded transcripts are reproducible.
    """

    def __init__(self, script=fixture_script):
        self.script = script
        self.calls = 0

    def send(self, request: CompletionRequest) -> BackendReply:
        self.calls += 1
        scripted = self.script(request)
        if isinstance(scripted, BackendReply):
            return scripted
        return BackendReply(
            text=scripted,
            prompt_tokens=count_tokens(request.prompt),
            response_tokens=count_tokens(scripted),
            latency=deterministic_latency(request),
        )
