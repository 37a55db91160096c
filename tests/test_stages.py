"""Template rendering and parser behavior tests."""

import json
import logging
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR
from decisionflow import stages
from decisionflow.core import NOT_MENTIONED, AttributeTable
from decisionflow.errors import DecisionFlowError, SchemaError, TemplateError
from decisionflow.stages import (
    STAGES,
    StageTemplate,
    extract_json_block,
    load_templates,
    parse_attribute_table,
    parse_decision,
    parse_extraction,
    parse_grounding,
    parse_json_payload,
    parse_weight,
    render_stage_prompt,
)
from parser_corpus import CASES, run_case


class TestTemplates:
    def test_packaged_templates_cover_every_stage(self):
        templates = load_templates()
        assert set(templates) == set(STAGES)
        for stage, template in templates.items():
            assert template.stage == stage
            assert template.body.strip()

    def test_loading_from_directory(self, tmp_path):
        for stage in STAGES:
            (tmp_path / f"{stage}.txt").write_text(f"custom {stage}: {{scenario}}")
        templates = load_templates(tmp_path)
        assert templates["cot"].body.startswith("custom cot")

    def test_missing_template_file_is_an_error(self, tmp_path):
        for stage in STAGES[:-1]:
            (tmp_path / f"{stage}.txt").write_text("x")
        with pytest.raises(TemplateError) as err:
            load_templates(tmp_path)
        assert STAGES[-1] in str(err.value)

    @pytest.mark.parametrize("case", ["missing", "directory", "not_a_directory"])
    def test_a_template_that_cannot_be_read_names_its_stage(self, tmp_path,
                                                            case):
        for stage in STAGES[1:]:
            (tmp_path / f"{stage}.txt").write_text("x")
        root = tmp_path / "weigh.txt" if case == "not_a_directory" else tmp_path
        path = root / f"{STAGES[0]}.txt"
        if case == "directory":
            path.mkdir()
        with pytest.raises(TemplateError) as err:
            load_templates(root)
        assert str(err.value) == \
            f"no template file for stage '{STAGES[0]}' at {path}"
        assert err.value.__cause__ is None

    def test_a_template_reads_as_text_mode_reads_it(self, tmp_path):
        for stage in STAGES:
            (tmp_path / f"{stage}.txt").write_bytes(b"a\r\nb\rc\n\xc3\xa9\r")
        bodies = {t.body for t in load_templates(tmp_path).values()}
        assert bodies == {"a\nb\nc\n\u00e9\n"}
        (tmp_path / f"{STAGES[0]}.txt").write_bytes(b"ok\n\xe9t\xe9")
        with pytest.raises(UnicodeDecodeError, match=r"^'utf-8' codec can't "
                           r"decode byte 0xe9 in position 3: invalid "
                           r"continuation byte$"):
            load_templates(tmp_path)

    def test_weigh_template_states_the_weight_scale(self):
        body = load_templates()["weigh"].body
        assert "Assign a weight between 0 and 1" in body

    def test_zero_shot_template_requests_an_integer_index(self):
        body = load_templates()["zero_shot"].body
        assert "Integer index identifying your selected answer" in body


class TestRendering:
    def test_placeholders_found(self):
        t = StageTemplate("cot", "choose {scenario} given {bias}")
        assert t.placeholder_names == ("bias", "scenario")

    def test_render_fills_all_placeholders(self):
        t = StageTemplate("cot", "S={scenario} B={bias}")
        out = render_stage_prompt(t, {"scenario": "a fire", "bias": "be fair"})
        assert out == "S=a fire B=be fair"

    def test_missing_placeholder_error_names_it(self):
        t = StageTemplate("cot", "S={scenario} B={bias}")
        with pytest.raises(TemplateError) as err:
            render_stage_prompt(t, {"scenario": "a fire"})
        assert "bias" in str(err.value)
        assert "cot" in str(err.value)

    def test_literal_json_braces_survive_rendering(self):
        rendered = render_stage_prompt(
            load_templates()["zero_shot"],
            {"scenario": "s", "bias": "b", "choices": "(1) a\n(2) b"},
        )
        assert '{"Answer":' in rendered
        assert "{scenario}" not in rendered

    def test_rendering_is_deterministic(self):
        t = load_templates()["weigh"]
        ctx = {"bias": "b", "constraints": "none", "action": "a",
               "attribute": "cost", "verbal": "high"}
        assert render_stage_prompt(t, ctx) == render_stage_prompt(t, ctx)

    def test_extra_context_keys_are_ignored(self):
        t = StageTemplate("cot", "S={scenario}")
        assert render_stage_prompt(t, {"scenario": "x", "unused": "y"}) == "S=x"

    def test_matches_a_substitution_on_every_packaged_template(self):
        for template in load_templates().values():
            context = {name: f"<{name} {{x}} \\1>"
                       for name in template.placeholder_names}
            expected = stages.PLACEHOLDER_RE.sub(
                lambda m: context[m.group(1)], template.body)
            assert render_stage_prompt(template, context) == expected

    def test_each_template_is_scanned_once(self, monkeypatch):
        scans = []

        class CountingPattern:
            def __getattr__(self, name):
                scans.append(name)
                return getattr(pattern, name)

        pattern = stages.PLACEHOLDER_RE
        monkeypatch.setattr(stages, "PLACEHOLDER_RE", CountingPattern())
        t = StageTemplate("cot", "S={scenario} B={bias} S={scenario}")
        for i in range(20):
            assert render_stage_prompt(t, {"scenario": i, "bias": "b"}) == \
                f"S={i} B=b S={i}"
            with pytest.raises(TemplateError):
                render_stage_prompt(t, {"scenario": i})
        assert len(scans) == 1


class TestParserCorpus:
    def test_corpus_is_large_enough(self):
        assert len(CASES) >= 30

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_case(self, case):
        run_case(case)

    def test_repair_soundness_round_trip(self):
        """Canonical re-serialization of any repaired payload needs no repairs."""
        block_cases = [
            c for c in CASES if c.name.startswith("block_") and c.error is None
        ]
        assert block_cases
        for case in block_cases:
            out = case.run()
            payload = json.loads(out[0])
            canonical = json.dumps(payload)
            text, repairs = extract_json_block(canonical)
            assert repairs == []
            assert json.loads(text) == payload


class TestParserWarnings:
    def test_clamped_weight_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="decisionflow.stages"):
            _, weight = parse_weight('{"Weight": 1.7}')
        assert weight == 1.0
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_clamped_score_warns_once(self, caplog):
        text = ('{"Scores": [{"Variable": "alpha", "Attribute": "cost", '
                '"Score": "1.5"}]}')
        with caplog.at_level(logging.WARNING, logger="decisionflow.stages"):
            grid = parse_grounding(text, TWO_BY_ONE, [(0, 0)])
        assert grid == ((1.0,), (0.0,))
        assert [rec.message for rec in caplog.records] == [
            "score for ('alpha', 'cost') is 1.5, outside [0, 1]; clamped to 1.0"]

    def test_value_in_range_is_returned_as_read(self, caplog):
        with caplog.at_level(logging.WARNING, logger="decisionflow.stages"):
            _, weight = parse_weight('{"Weight": -0.0}')
        assert str(weight) == "-0.0"
        assert caplog.records == []

    def test_statement_without_subject_is_logged_and_kept(self, caplog):
        with caplog.at_level(logging.WARNING, logger="decisionflow.stages"):
            out = parse_extraction(
                '{"information": ["It is raining."]}',
                ("Treat the young woman", "Treat the bomber"),
            )
        assert out == ["It is raining."]
        assert any("no known subject" in rec.message for rec in caplog.records)

    def test_duplicate_attribute_keeps_first_value(self, caplog):
        text = (
            '{"Variable": [{"Variable": "alpha", "Attribute": ['
            '{"Attribute": "Cost", "Value": "low"},'
            '{"Attribute": "cost", "Value": "high"}]}]}'
        )
        with caplog.at_level(logging.WARNING, logger="decisionflow.stages"):
            table = parse_attribute_table(text, ("alpha", "beta"))
        assert table.cells[0][0] == "low"
        assert any("duplicate attribute" in rec.message for rec in caplog.records)


TWO_BY_ONE = AttributeTable(actions=("alpha", "beta"), attributes=("Cost",),
                            cells=(("low",), ("high",)))


@pytest.mark.parametrize("value", [
    "Infinity", "-Infinity", "1e999", '"inf"', "NaN", '"nan"',
    pytest.param("9" * 400, id="400-digit-int")])
@pytest.mark.parametrize("parse", [
    lambda v: parse_weight(f'{{"Weight": {v}}}'),
    lambda v: parse_decision(f'{{"Answer": {v}}}', 2, index_base=1),
    lambda v: parse_grounding(
        f'{{"Scores": [{{"Variable": "alpha", "Attribute": "Cost", '
        f'"Score": {v}}}]}}', TWO_BY_ONE, [(0, 0)]),
], ids=["weight", "decision", "grounding"])
def test_non_finite_number_is_a_schema_error(parse, value):
    """A number no finite float holds is an abstention in every parser that
    reads one: not a crash, and not clamped into range."""
    with pytest.raises(SchemaError):
        parse(value)


class TestLabelsCanonicalisedOncePerParse:
    """A parser canonicalises each action label once, not once per entry."""

    ACTIONS = tuple(f"Action number {i}" for i in range(8))
    ATTRS = tuple(f"Attribute {j}" for j in range(8))

    def count_canonical_calls(self, monkeypatch, parse):
        calls = []
        canonical = stages.canonical_name

        def counting(text):
            calls.append(text)
            return canonical(text)

        monkeypatch.setattr(stages, "canonical_name", counting)
        result = parse()
        return result, len(calls)

    def test_attribute_table(self, monkeypatch):
        entries = [{"Variable": f"action number {i}",
                    "Attribute": [{"Attribute": a, "Value": "v"}
                                  for a in self.ATTRS]}
                   for i in reversed(range(len(self.ACTIONS)))]
        text = json.dumps({"Variable": entries})
        table, calls = self.count_canonical_calls(
            monkeypatch, lambda: parse_attribute_table(text, self.ACTIONS))
        assert table.attributes == self.ATTRS
        assert all(cell == "v" for row in table.cells for cell in row)
        items = len(entries) * (1 + len(self.ATTRS))
        assert calls <= items + len(self.ACTIONS)

    def test_grounding(self, monkeypatch):
        n, m = len(self.ACTIONS), len(self.ATTRS)
        table = AttributeTable(
            actions=self.ACTIONS, attributes=self.ATTRS,
            cells=(("v",) * m,) * n)
        scores = [{"Variable": f"action number {i}", "Attribute": a,
                   "Score": 0.5} for i in reversed(range(n)) for a in self.ATTRS]
        text = json.dumps({"Scores": scores})
        grid, calls = self.count_canonical_calls(
            monkeypatch, lambda: parse_grounding(text, table, []))
        assert grid == ((0.5,) * m,) * n
        assert calls <= 2 * len(scores) + n


def test_grounding_exact_label_wins_over_an_earlier_substring():
    table = AttributeTable(actions=("Buy X", "Buy XY"), attributes=("Cost",),
                           cells=(("low",), ("high",)))
    text = json.dumps({"Scores": [
        {"Variable": "Buy XY", "Attribute": "Cost", "Score": 0.9},
        {"Variable": "buy x", "Attribute": "Cost", "Score": 0.2}]})
    assert parse_grounding(text, table, [(0, 0), (1, 0)]) == ((0.2,), (0.9,))


class TestAttributeTableShape:
    def test_union_fills_not_mentioned(self):
        text = (
            '{"Variable": ['
            '{"Variable": "alpha", "Attribute": [{"Attribute": "Cost", "Value": "low"}]},'
            '{"Variable": "beta", "Attribute": [{"Attribute": "Speed", "Value": "fast"}]}'
            "]}"
        )
        table = parse_attribute_table(text, ("alpha", "beta"))
        assert table.attributes == ("Cost", "Speed")
        assert table.cells[0][1] == NOT_MENTIONED
        assert table.cells[1][0] == NOT_MENTIONED

    def test_attribute_names_canonicalize_across_variants(self):
        text = (
            '{"Variable": ['
            '{"Variable": "alpha", "Attribute": [{"Attribute": "Survival-Probability", "Value": "low"}]},'
            '{"Variable": "beta", "Attribute": [{"Attribute": "survival probability", "Value": "high"}]}'
            "]}"
        )
        table = parse_attribute_table(text, ("alpha", "beta"))
        assert table.attributes == ("Survival-Probability",)
        assert table.shape == (2, 1)

    def test_exact_label_wins_over_an_earlier_substring(self):
        text = json.dumps({"Variable": [
            {"Variable": name, "Attribute": [{"Attribute": "Cost", "Value": name}]}
            for name in ("buy xy", "Buy X")]})
        table = parse_attribute_table(text, ("Buy X", "Buy XY"))
        assert table.cells == (("Buy X",), ("buy xy",))
        # a name equal to no label takes the first substring match
        table = parse_attribute_table(text, ("Buy X", "Buy XYZ"))
        assert table.cells == (("buy xy",), (NOT_MENTIONED,))

    def test_payload_round_trip(self):
        payload, repairs = parse_json_payload('```json\n{"Weight": 0.4,}\n```')
        assert payload == {"Weight": 0.4}
        assert repairs == ["removed trailing commas"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# prose with the characters the walk treats specially, fence markers included
prose = st.text(alphabet="ab {}[]\"',:`\n", max_size=24)


@st.composite
def completions(draw):
    """A JSON object in prose, in one fence or among several, with braces or
    quotes in the prose and sometimes a trailing comma put in."""
    obj = draw(st.dictionaries(st.text(max_size=6), json_values, max_size=4))
    block = json.dumps(obj, indent=draw(st.sampled_from([None, 2])))
    if obj and draw(st.booleans()):
        block = block[:-1].rstrip() + ",}"
    layout = draw(st.sampled_from(["bare", "fence", "fences"]))
    if layout == "fence":
        block = f"```json\n{block}\n```"
    elif layout == "fences":
        other = json.dumps(draw(json_values))
        block = draw(st.permutations(
            [f"```\n{other}\n```", f"```json\n{block}\n```"]))
        block = draw(prose).join(block)
    return draw(prose) + block + draw(prose)


def outcome(extract, text):
    try:
        return extract(text)
    except DecisionFlowError as err:
        return type(err)


def corpus_completions():
    return [json.loads(path.read_text(encoding="utf-8"))["response"]["text"]
            for path in sorted(CORPUS_DIR.glob("*/*.json"))]


class TestDecodeFirst:
    """`extract_json_block` decodes its first candidate before any walk; the
    walk-and-repair path is the reference it must match."""

    @given(completions())
    def test_matches_the_walk(self, text):
        assert outcome(extract_json_block, text) == \
            outcome(stages._walk_json_block, text)

    def test_matches_the_walk_on_the_corpus(self):
        texts = corpus_completions()
        assert len(texts) > 300
        for text in texts:
            assert outcome(extract_json_block, text) == \
                outcome(stages._walk_json_block, text), text

    def test_valid_completions_skip_the_walk(self, monkeypatch):
        clean = []
        for text in corpus_completions():
            result = outcome(stages._walk_json_block, text)
            if isinstance(result, tuple) and result[1] == []:
                clean.append(text)
        assert len(clean) > 200
        walks = []
        walk = stages._first_balanced_object

        def counting(text):
            walks.append(text)
            return walk(text)

        monkeypatch.setattr(stages, "_first_balanced_object", counting)
        for text in clean:
            extract_json_block(text)
        assert walks == []


# the extraction code before fences were split and the walk jumped: the
# references the faster code must match
OLD_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def old_first_balanced_object(text):
    start = text.find("{")
    if start < 0:
        return None
    depth = 0
    in_string = False
    quote = ""
    escaped = False
    for pos in range(start, len(text)):
        ch = text[pos]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == quote:
                in_string = False
            continue
        if ch in "\"'":
            in_string = True
            quote = ch
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[start : pos + 1]
    return None


# the characters that steer the walk, densely, and the fence split's tokens:
# "json" and its prefixes, whole fences, and whitespace that only Unicode
# calls whitespace
walk_texts = st.text(alphabet="{}\"'\\a", max_size=30)
fence_texts = st.lists(st.sampled_from([
    "`", "```", "json", "jso", "js", "{", "}", '"', "\\", ",", ":", "\n", " ",
    "a", "\x1c", "\x85", "\u2003",
]), max_size=30).map("".join)


class TestFencesAndWalk:
    """`_fence_blocks` and the jumping walk against the code they replaced."""

    @settings(max_examples=300)
    @given(fence_texts)
    @example("```jsoa``` ```json\u2003\x85{```")
    def test_fence_blocks_match_the_regex(self, text):
        assert stages._fence_blocks(text) == OLD_FENCE_RE.findall(text)

    @settings(max_examples=300)
    @given(walk_texts | fence_texts)
    @example("""{"\\\\"}""")
    @example("""{'\\'}'}""")
    @example("""{a\\"}"}""")
    def test_walk_matches_the_character_walk(self, text):
        assert stages._first_balanced_object(text) == \
            old_first_balanced_object(text)

    @given(completions())
    def test_both_match_on_completions(self, text):
        assert stages._fence_blocks(text) == OLD_FENCE_RE.findall(text)
        assert stages._first_balanced_object(text) == \
            old_first_balanced_object(text)

    def test_both_match_on_the_corpus(self):
        texts = corpus_completions()
        assert len(texts) > 300
        for text in texts:
            blocks = stages._fence_blocks(text)
            assert blocks == OLD_FENCE_RE.findall(text), text
            for piece in [text, *blocks]:
                assert stages._first_balanced_object(piece) == \
                    old_first_balanced_object(piece), piece
