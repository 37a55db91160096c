"""Shared robustness corpus for the completion parsers.

Each case documents the raw completion text and the expected outcome: either
a value check or a classified error. The unit tests and the acceptance suite
both run this table; any exception outside the documented class is a crash.
"""

from dataclasses import dataclass, field
from typing import Callable

from decisionflow.core import AttributeTable
from decisionflow.errors import (
    AlignmentError,
    AnswerRangeError,
    CompletenessError,
    OutputParseError,
    SchemaError,
)
from decisionflow.stages import (
    extract_json_block,
    parse_attribute_table,
    parse_decision,
    parse_extraction,
    parse_grounding,
    parse_weight,
)

ACTIONS = ("Treat the young woman", "Treat the bomber")

TABLE = AttributeTable(
    actions=ACTIONS,
    attributes=("Medical condition", "Survival probability"),
    cells=(
        ("severe bleeding", "low"),
        ("head trauma", "not mentioned"),
    ),
)


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    error: type | None = None
    check: Callable[[object], bool] | None = None
    tags: tuple = field(default_factory=tuple)


def _block(text):
    return lambda: extract_json_block(text)


def _weight(text):
    return lambda: parse_weight(text)


def _decision(text, n=2):
    return lambda: parse_decision(text, n)


def _extraction(text, actions=ACTIONS):
    return lambda: parse_extraction(text, actions)


def _table(text, actions=ACTIONS):
    return lambda: parse_attribute_table(text, actions)


def _grounding(text, surviving):
    return lambda: parse_grounding(text, TABLE, surviving)


CASES = [
    # --- JSON block extraction ---
    Case("block_clean", _block('{"Answer": 1}'),
         check=lambda out: out == ('{"Answer": 1}', [])),
    Case("block_fenced_json", _block('```json\n{"Answer": 1}\n```'),
         check=lambda out: out[0] == '{"Answer": 1}' and out[1] == []),
    Case("block_fenced_bare", _block('```\n{"Answer": 2}\n```'),
         check=lambda out: out[0] == '{"Answer": 2}'),
    Case("block_prose_wrapped",
         _block('Sure, here is my decision.\n{"Answer": 1}\nLet me know.'),
         check=lambda out: out[0] == '{"Answer": 1}'),
    Case("block_trailing_comma", _block('{"Answer": 1,}'),
         check=lambda out: out[1] == ["removed trailing commas"]),
    Case("block_single_quotes", _block("{'Answer': 1}"),
         check=lambda out: "converted single quotes to double quotes" in out[1]),
    Case("block_bare_keys", _block('{Answer: 1}'),
         check=lambda out: "quoted bare keys" in out[1]),
    Case("block_no_json", _block("I cannot choose between these options."),
         error=OutputParseError),
    Case("block_never_closes", _block('{"Answer": '), error=OutputParseError),
    Case("block_braces_inside_strings",
         _block('{"Reasoning": "set {x} to }", "Answer": 1}'),
         check=lambda out: out[1] == []),
    Case("block_fence_preferred_over_prose_braces",
         _block('ignore {this}\n```json\n{"Answer": 1}\n```'),
         check=lambda out: out[0] == '{"Answer": 1}'),
    # a single-quoted string keeps its escapes; JSON has no \' escape
    Case("block_single_quoted_escaped_double_quote",
         _block(r"""{'Answer': 'say \"hi\"'}"""),
         check=lambda out: out == (r'{"Answer": "say \"hi\""}',
                                   ["converted single quotes to double quotes"])),
    Case("block_single_quoted_escaped_single_quote",
         _block(r"{'Answer': 'it\'s'}"),
         check=lambda out: out == ('{"Answer": "it\'s"}',
                                   ["converted single quotes to double quotes"])),
    Case("block_single_quoted_double_quote",
         _block("""{'Answer': 'the "best" one'}"""),
         check=lambda out: out == (r'{"Answer": "the \"best\" one"}',
                                   ["converted single quotes to double quotes"])),
    # a string that never closes runs to the end, braces and all
    Case("block_single_quoted_never_closes",
         _block("{'Answer': 1, 'Reasoning': 'it never ends}"),
         error=OutputParseError),

    # --- weight parsing ---
    Case("weight_clean", _weight('{"Explanation": "decisive", "Weight": 0.9}'),
         check=lambda out: out == ("decisive", 0.9)),
    Case("weight_integer", _weight('{"Explanation": "max", "Weight": 1}'),
         check=lambda out: out[1] == 1.0),
    Case("weight_numeric_string", _weight('{"Explanation": "", "Weight": "0.35"}'),
         check=lambda out: out[1] == 0.35),
    Case("weight_clamped_high", _weight('{"Weight": 1.4}'),
         check=lambda out: out[1] == 1.0, tags=("clamp",)),
    Case("weight_clamped_negative", _weight('{"Weight": -0.2}'),
         check=lambda out: out[1] == 0.0, tags=("clamp",)),
    Case("weight_non_numeric", _weight('{"Weight": "high"}'), error=SchemaError),
    Case("weight_missing_key", _weight('{"Explanation": "no number"}'),
         error=SchemaError),
    Case("weight_nan_string", _weight('{"Weight": "nan"}'), error=SchemaError),
    Case("weight_boolean", _weight('{"Weight": true}'), error=SchemaError),
    # the repairs rewrite only the text outside strings
    Case("weight_bare_keys_keep_a_colon_in_a_string",
         _weight('{Weight: 0.5, Explanation: "risk, cost: high"}'),
         check=lambda out: out == ("risk, cost: high", 0.5)),
    Case("weight_trailing_comma_kept_in_a_string",
         _weight('{"Explanation": "ranked [a, b,] by cost", "Weight": 0.5,}'),
         check=lambda out: out == ("ranked [a, b,] by cost", 0.5)),
    Case("weight_single_quotes_keep_a_colon_in_a_string",
         _weight("""{'Weight': 0.5, 'Explanation': 'the "best" option, cost: low'}"""),
         check=lambda out: out == ('the "best" option, cost: low', 0.5)),

    # --- decision parsing ---
    Case("decision_one_based", _decision('{"Answer": 2}', n=2),
         check=lambda out: out == 1),
    Case("decision_out_of_range", _decision('{"Answer": 7}', n=2),
         error=AnswerRangeError),
    Case("decision_zero_under_one_based", _decision('{"Answer": 0}', n=2),
         error=AnswerRangeError),
    Case("decision_numeric_string", _decision('{"Answer": "2"}', n=3),
         check=lambda out: out == 1),
    Case("decision_integral_float", _decision('{"Answer": 2.0}', n=2),
         check=lambda out: out == 1),
    Case("decision_fractional", _decision('{"Answer": 1.5}'), error=SchemaError),
    Case("decision_missing_answer",
         _decision('{"Reasoning": "both options are bad"}'), error=SchemaError),
    Case("decision_refusal_prose",
         _decision("I am not able to make this choice."), error=OutputParseError),
    Case("decision_list_answer", _decision('{"Answer": [1]}'), error=SchemaError),
    Case("decision_with_reasoning",
         _decision('{"Reasoning": "the bomber can be saved", "Answer": 2}'),
         check=lambda out: out == 1),

    # --- extraction parsing ---
    Case("extraction_clean",
         _extraction('{"information": ["The young woman is bleeding heavily.", '
                     '"The bomber has stable vitals."]}'),
         check=lambda out: len(out) == 2),
    Case("extraction_missing_key", _extraction('{"facts": []}'), error=SchemaError),
    Case("extraction_not_an_array", _extraction('{"information": "lots"}'),
         error=SchemaError),
    Case("extraction_non_string_entry", _extraction('{"information": [1, 2]}'),
         error=SchemaError),
    Case("extraction_empty_is_degenerate", _extraction('{"information": []}'),
         check=lambda out: out == []),
    Case("extraction_fenced_with_trailing_comma",
         _extraction('```json\n{"information": ["The bomber is stable.",]}\n```'),
         check=lambda out: out == ["The bomber is stable."]),

    # --- attribute table parsing ---
    Case("table_two_variables",
         _table('{"Variable": ['
                '{"Variable": "young woman", "Attribute": ['
                '{"Attribute": "Condition", "Value": "severe bleeding"}]},'
                '{"Variable": "bomber", "Attribute": ['
                '{"Attribute": "condition!", "Value": "head trauma"},'
                '{"Attribute": "Survival probability", "Value": "high"}]}]}'),
         check=lambda out: out.shape == (2, 2)
         and out.cells[0][1] == "not mentioned"),
    Case("table_string_style_attributes",
         _table('{"Variable": [{"Variable": "Treat the bomber", '
                '"Attribute": ["Survival: high", "Age: 30s"]}]}'),
         check=lambda out: out.cells[1][0] == "high"),
    Case("table_unknown_variable",
         _table('{"Variable": [{"Variable": "the helicopter", "Attribute": []}]}'),
         error=AlignmentError),
    Case("table_missing_variable_key", _table('{"rows": []}'), error=SchemaError),
    Case("table_entry_not_object", _table('{"Variable": ["bomber"]}'),
         error=SchemaError),

    # --- grounding parsing ---
    Case("grounding_full",
         _grounding('{"Scores": ['
                    '{"Variable": "young woman", "Attribute": "Medical condition", "Score": 0.6},'
                    '{"Variable": "young woman", "Attribute": "Survival probability", "Score": 0.1},'
                    '{"Variable": "bomber", "Attribute": "Medical condition", "Score": 0.9}]}',
                    surviving={(0, 0), (0, 1), (1, 0)}),
         check=lambda out: out == ((0.6, 0.1), (0.9, 0.0))),
    Case("grounding_missing_surviving_cell",
         _grounding('{"Scores": [{"Variable": "young woman", '
                    '"Attribute": "Medical condition", "Score": 0.6}]}',
                    surviving={(0, 0), (0, 1)}),
         error=CompletenessError),
    Case("grounding_out_of_range_clamps",
         _grounding('{"Scores": [{"Variable": "bomber", '
                    '"Attribute": "Medical condition", "Score": 1.8}]}',
                    surviving={(1, 0)}),
         check=lambda out: out[1][0] == 1.0, tags=("clamp",)),
    Case("grounding_not_mentioned_scores_zero",
         _grounding('{"Scores": [{"Variable": "bomber", '
                    '"Attribute": "Medical condition", "Score": 0.9},'
                    '{"Variable": "bomber", "Attribute": "Survival probability", '
                    '"Score": 0.7}]}',
                    surviving={(1, 0), (1, 1)}),
         check=lambda out: out[1][1] == 0.0),
    Case("grounding_missing_scores_key", _grounding('{"Reasoning": "done"}',
                                                    surviving=set()),
         error=SchemaError),
]


def run_case(case: Case):
    """Execute one corpus case, asserting the documented outcome."""
    if case.error is not None:
        try:
            case.run()
        except case.error:
            return
        raise AssertionError(f"{case.name}: expected {case.error.__name__}")
    out = case.run()
    if case.check is not None:
        assert case.check(out), f"{case.name}: value check failed on {out!r}"
