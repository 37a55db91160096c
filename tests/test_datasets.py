"""Dataset format tests: loading, validation, round-trips, predictions."""

import dataclasses
import importlib.util
import json
import pickle
from collections import OrderedDict
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, REPO_ROOT
from decisionflow import cli, datasets, pipeline
from decisionflow.core import feasible_actions, parse_constraint
from decisionflow.datasets import (
    DMA_VALUES,
    MAX_FAST_DEPTH,
    DellmaRecord,
    MtaRecord,
    PredictionRow,
    dumps_indented,
    load_dataset,
    load_predictions,
    problems_from_records,
    write_json,
    write_predictions,
    write_records,
)
from decisionflow.errors import DatasetError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "datasets"


@pytest.fixture(scope="module")
def mta_records():
    return load_dataset(FIXTURES / "mta_small.jsonl", "mta")


@pytest.fixture(scope="module")
def dellma_records():
    return load_dataset(FIXTURES / "dellma_small.jsonl", "dellma")


class TestBundledFixtures:
    def test_mta_covers_every_directive_at_both_alignments(self, mta_records):
        assert len(mta_records) == 12
        pairs = {(r.dma, r.alignment) for r in mta_records}
        assert pairs == {(d, a) for d in DMA_VALUES for a in ("high", "low")}

    def test_dellma_covers_action_counts_two_through_seven(self, dellma_records):
        counts = sorted(len(r.actions) for r in dellma_records)
        assert counts == [2, 3, 4, 5, 6, 7]
        assert {r.domain for r in dellma_records} == {"agriculture", "stocks"}

    def test_case_study_record_is_present(self, mta_records):
        by_id = {r.record_id: r for r in mta_records}
        bomber = by_id["mta-utilitarianism-high"]
        assert bomber.choices == ("Treat the young woman", "Treat the bomber")
        assert bomber.gold == 1

    def test_round_trip_is_byte_identical(self, tmp_path, mta_records, dellma_records):
        for name, records, kind in (
            ("mta_small.jsonl", mta_records, "mta"),
            ("dellma_small.jsonl", dellma_records, "dellma"),
        ):
            original = (FIXTURES / name).read_bytes()
            out = tmp_path / name
            write_records(records, out)
            assert out.read_bytes() == original
            again = tmp_path / f"again_{name}"
            write_records(load_dataset(out, kind), again)
            assert again.read_bytes() == original

    def test_make_datasets_regenerates_the_fixtures(self, tmp_path,
                                                    monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "make_datasets", FIXTURES.parent.parent / "scripts" / "make_datasets.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "ROOT", tmp_path)
        script.main()
        names = ("mta_small.jsonl", "dellma_small.jsonl", "mta_edge.jsonl")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        for name in names:
            assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()


def _valid_mta_line(**overrides):
    obj = {
        "id": "mta-x",
        "scenario": "Two patients, one kit.",
        "choices": ["Treat A", "Treat B"],
        "dma": "fairness",
        "alignment": "high",
        "bias_text": "Treat equals equally.",
        "gold": 0,
    }
    obj.update(overrides)
    return obj


def _write_lines(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")


# ids name trace files, and none of these is a plain file name
UNSAFE_IDS = ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"]


class TestMtaValidation:
    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"gold": 5}, "gold"),
            ({"gold": -1}, "gold"),
            ({"gold": "first"}, "gold"),
            ({"dma": "bravery"}, "dma"),
            ({"alignment": "mid"}, "alignment"),
            ({"choices": ["only one"]}, "choices"),
            ({"choices": ["a", ""]}, "choices"),
            ({"bias_text": "   "}, "bias_text"),
            ({"scenario": ""}, "scenario"),
            ({"id": 7}, "id"),
            *[({"id": record_id}, "id") for record_id in UNSAFE_IDS],
            ({"choices": ["Treat A", "Treat A"]}, "choices"),
        ],
    )
    def test_mutations_name_the_field(self, tmp_path, overrides, field):
        path = tmp_path / "bad.jsonl"
        mutated = _valid_mta_line(**{"id": "mta-y", **overrides})
        _write_lines(path, [_valid_mta_line(), mutated])
        with pytest.raises(DatasetError) as err:
            load_dataset(path, "mta")
        assert err.value.field == field
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        obj = _valid_mta_line()
        del obj["bias_text"]
        _write_lines(path, [obj])
        with pytest.raises(DatasetError) as err:
            load_dataset(path, "mta")
        assert err.value.field == "bias_text"

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        _write_lines(path, [_valid_mta_line(), _valid_mta_line()])
        with pytest.raises(DatasetError) as err:
            load_dataset(path, "mta")
        assert "duplicate id" in str(err.value)
        assert err.value.line == 2

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(json.dumps(_valid_mta_line()) + "\n{oops\n", encoding="utf-8")
        with pytest.raises(DatasetError) as err:
            load_dataset(path, "mta")
        assert err.value.line == 2

    @pytest.mark.parametrize("load", [lambda path: load_dataset(path, "mta"),
                                      load_predictions],
                             ids=["dataset", "predictions"])
    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, load):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(b'\n{"id": "caf\xe9"}\n')
        with pytest.raises(DatasetError, match=r"^not UTF-8: .*0xe9.*\(line 2\)$") \
                as err:
            load(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_lines_end_where_text_mode_ends_them(self, tmp_path, newline):
        lines = [json.dumps(_valid_mta_line()).encode("utf-8"), b"",
                 json.dumps(_valid_mta_line(id="mta-y")).encode("utf-8"), b"{oops"]
        unix, other = tmp_path / "unix.jsonl", tmp_path / "other.jsonl"
        unix.write_bytes(b"\n".join(lines[:3]) + b"\n")
        other.write_bytes(newline.join(lines[:3]) + newline)
        assert load_dataset(other, "mta") == load_dataset(unix, "mta")
        other.write_bytes(newline.join(lines))
        with pytest.raises(DatasetError) as err:
            load_dataset(other, "mta")
        assert err.value.line == 4


class TestDellmaValidation:
    def test_action_count_ceiling(self, tmp_path):
        path = tmp_path / "wide.jsonl"
        _write_lines(
            path,
            [{
                "id": "d1", "domain": "stocks", "context": "prices",
                "actions": [f"Buy {i}" for i in range(8)], "gold": 0,
            }],
        )
        with pytest.raises(DatasetError) as err:
            load_dataset(path, "dellma")
        assert err.value.field == "actions"

    def test_repeated_action_label(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        _write_lines(path, [{
            "id": "d1", "domain": "stocks", "context": "prices",
            "actions": ["Buy A", "Buy B", "Buy A"], "gold": 0,
        }])
        with pytest.raises(DatasetError) as err:
            load_dataset(path, "dellma")
        assert (err.value.line, err.value.field) == (1, "actions")
        assert err.value.path == str(path)
        assert "'Buy A'" in str(err.value)

    @pytest.mark.parametrize("record_id", UNSAFE_IDS)
    def test_id_must_be_a_plain_file_name(self, tmp_path, record_id):
        path = tmp_path / "bad.jsonl"
        _write_lines(path, [{
            "id": record_id, "domain": "stocks", "context": "prices",
            "actions": ["a", "b"], "gold": 0,
        }])
        with pytest.raises(DatasetError) as err:
            load_dataset(path, "dellma")
        assert (err.value.line, err.value.field) == (1, "id")

    def test_unknown_domain(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        _write_lines(
            path,
            [{
                "id": "d1", "domain": "weather", "context": "x",
                "actions": ["a", "b"], "gold": 0,
            }],
        )
        with pytest.raises(DatasetError) as err:
            load_dataset(path, "dellma")
        assert err.value.field == "domain"


def _valid_dellma_line(**overrides):
    return {"id": "d-x", "domain": "stocks", "context": "Prices rose.",
            "actions": ["Buy A", "Buy B"], "gold": 0, **overrides}


def _valid_prediction_line(**overrides):
    return {"id": "p-x", "mode": "decisionflow", "repeat": 0, "answer": 1,
            **overrides}


_VALID_LINE = {"mta": _valid_mta_line, "dellma": _valid_dellma_line,
               "predictions": _valid_prediction_line}


def _without(kind, name):
    obj = _VALID_LINE[kind]()
    del obj[name]
    return obj


def _line(item) -> bytes:
    return item if isinstance(item, bytes) else json.dumps(item).encode("utf-8")


# (kind, lines, the text of the error with {path} for the file, line, field);
# a line is raw bytes or an object to dump; a record with two faults pins
# which one is named
LOADER_ERRORS = [
    ("mta", ["\ufeff".encode() + _line(_valid_mta_line())],
     "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig) in {path} "
     "(line 1)", 1, None),
    ("dellma", [b"\x0c" + _line(_valid_dellma_line())],
     "invalid JSON: Expecting value in {path} (line 1)", 1, None),
    ("dellma", [b"\x0c", b" \t" + _line(_valid_dellma_line()) + b"\t ", b"[1]"],
     "record is not a JSON object in {path} (line 3)", 3, None),
    ("predictions", [_line(_valid_prediction_line()) + b"\x0c"],
     "invalid JSON: Extra data in {path} (line 1)", 1, None),
    ("mta", [_line(_valid_mta_line()) + b" {}"],
     "invalid JSON: Extra data in {path} (line 1)", 1, None),
    ("dellma", [b'{"id": "d-x\t'],  # a tab ends the line, inside a string
     "invalid JSON: Invalid control character at in {path} (line 1)", 1, None),
    ("dellma", [b'{"id": "d-x'],  # the \n that ends the line is not in it
     "invalid JSON: Unterminated string starting at in {path} (line 1)", 1, None),
    ("dellma", [b'{"id": "d-x",'],
     "invalid JSON: Expecting property name enclosed in double quotes in "
     "{path} (line 1)", 1, None),
    ("predictions", [b'"p-x"'],
     "record is not a JSON object in {path} (line 1)", 1, None),
    ("mta", [b'\n{"id": "caf\xe9"}'],
     "not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 11: "
     "invalid continuation byte in {path} (line 2)", 2, None),
    ("predictions", [b'{"id": "caf\xc3'],  # cut short by the end of the line
     "not UTF-8: 'utf-8' codec can't decode byte 0xc3 in position 11: "
     "unexpected end of data in {path} (line 1)", 1, None),
    *[(kind, [_without(kind, name)],
       "missing field in {path} (line 1, field '%s')" % name, 1, name)
      for kind in ("mta", "dellma", "predictions")
      for name in _VALID_LINE[kind]() if name != "answer"],
    ("predictions", [_without("predictions", "answer")],
     "answer must be an integer index or the abstain marker in {path} "
     "(line 1, field 'answer')", 1, "answer"),
    ("mta", [_valid_mta_line(gold=True)],
     "field has type bool in {path} (line 1, field 'gold')", 1, "gold"),
    ("dellma", [_valid_dellma_line(gold=False)],
     "field has type bool in {path} (line 1, field 'gold')", 1, "gold"),
    ("dellma", [_valid_dellma_line(id=7)],
     "field has type int in {path} (line 1, field 'id')", 1, "id"),
    ("predictions", [_valid_prediction_line(repeat=True)],
     "field has type bool in {path} (line 1, field 'repeat')", 1, "repeat"),
    ("mta", [_valid_mta_line(choices="Treat A")],
     "field has type str in {path} (line 1, field 'choices')", 1, "choices"),
    ("dellma", [_valid_dellma_line(domain="weather")],
     "domain must be one of ('agriculture', 'stocks') in {path} "
     "(line 1, field 'domain')", 1, "domain"),
    ("mta", [_valid_mta_line(dma="bravery")],
     "unknown dma 'bravery' in {path} (line 1, field 'dma')", 1, "dma"),
    ("mta", [_valid_mta_line(alignment="mid")],
     "alignment must be one of ('high', 'low') in {path} "
     "(line 1, field 'alignment')", 1, "alignment"),
    ("dellma", [_valid_dellma_line(actions=[f"Buy {i}" for i in range(8)])],
     "8 actions exceeds the supported maximum of 7 in {path} "
     "(line 1, field 'actions')", 1, "actions"),
    *[(kind, [_VALID_LINE[kind](**{field: labels})],
       "must be a list of at least 2 non-empty strings in {path} "
       "(line 1, field '%s')" % field, 1, field)
      for kind, field in (("mta", "choices"), ("dellma", "actions"))
      for labels in (["Only"], [], ["A", " \t"], ["A", 1], ["A", None])],
    ("dellma", [_valid_dellma_line(actions=["A", "B", "B", "A"])],
     "repeats the label 'B' in {path} (line 1, field 'actions')", 1, "actions"),
    ("mta", [_valid_mta_line(choices=["A", "B", "A", "B"])],
     "repeats the label 'A' in {path} (line 1, field 'choices')", 1, "choices"),
    ("mta", [_valid_mta_line(gold=2)],
     "gold 2 out of range for 2 choices in {path} (line 1, field 'gold')",
     1, "gold"),
    ("dellma", [_valid_dellma_line(gold=-1)],
     "gold -1 out of range for 2 actions in {path} (line 1, field 'gold')",
     1, "gold"),
    ("dellma", [_valid_dellma_line(context=" ")],
     "context must be non-empty in {path} (line 1, field 'context')",
     1, "context"),
    ("mta", [_valid_mta_line(bias_text="")],
     "bias_text must be non-empty in {path} (line 1, field 'bias_text')",
     1, "bias_text"),
    ("mta", [_valid_mta_line(scenario="\n")],
     "scenario must be non-empty in {path} (line 1, field 'scenario')",
     1, "scenario"),
    ("predictions", [_valid_prediction_line(repeat=-1)],
     "repeat must be >= 0 in {path} (line 1, field 'repeat')", 1, "repeat"),
    ("predictions", [_valid_prediction_line(answer=-1)],
     "answer must be >= 0 in {path} (line 1, field 'answer')", 1, "answer"),
    ("predictions", [_valid_prediction_line(answer=1.0)],
     "answer must be an integer index or the abstain marker in {path} "
     "(line 1, field 'answer')", 1, "answer"),
    *[(kind, [_VALID_LINE[kind](id=record_id)],
       f"id {record_id!r} is not a plain file name in {{path}} "
       "(line 1, field 'id')", 1, "id")
      for kind in ("mta", "dellma") for record_id in UNSAFE_IDS],
    ("dellma", [_valid_dellma_line(), b"", _valid_dellma_line(id="d-y"),
                _valid_dellma_line(), _valid_dellma_line()],
     "duplicate id 'd-x' (first on line 1) in {path} (line 4, field 'id')",
     4, "id"),
    # two faults in one record
    ("mta", [_valid_mta_line(scenario="", gold=9)],
     "gold 9 out of range for 2 choices in {path} (line 1, field 'gold')",
     1, "gold"),
    ("mta", [_valid_mta_line(scenario=7, dma="bravery")],
     "field has type int in {path} (line 1, field 'scenario')", 1, "scenario"),
    ("dellma", [_valid_dellma_line(domain="weather", gold="first")],
     "domain must be one of ('agriculture', 'stocks') in {path} "
     "(line 1, field 'domain')", 1, "domain"),
    ("dellma", [_without("dellma", "gold") | {"actions": ["A"]}],
     "must be a list of at least 2 non-empty strings in {path} "
     "(line 1, field 'actions')", 1, "actions"),
    ("dellma", [_valid_dellma_line(id="a/b", gold=5)],
     "gold 5 out of range for 2 actions in {path} (line 1, field 'gold')",
     1, "gold"),
    ("predictions", [_valid_prediction_line(mode=None, answer="maybe")],
     "field has type NoneType in {path} (line 1, field 'mode')", 1, "mode"),
]


@pytest.mark.parametrize(
    "kind,lines,text,line,field", LOADER_ERRORS,
    ids=[f"{kind}-{field}-{text.partition(' in {path}')[0][:32]}"
         for kind, _, text, _, field in LOADER_ERRORS])
def test_every_loader_error_text(tmp_path, kind, lines, text, line, field):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n".join(map(_line, lines)) + b"\n")
    with pytest.raises(DatasetError) as err:
        if kind == "predictions":
            load_predictions(path)
        else:
            load_dataset(path, kind)
    assert str(err.value) == text.format(path=path)
    assert (err.value.line, err.value.field, err.value.path) == \
        (line, field, str(path))


@pytest.mark.parametrize("kind", ["mta", "dellma", "predictions"])
def test_a_loaded_record_is_the_one_its_class_builds(tmp_path, kind):
    path = tmp_path / "one.jsonl"
    obj = _VALID_LINE[kind]()
    path.write_bytes(_line(obj) + b"\n")
    [record] = load_predictions(path) if kind == "predictions" else load_dataset(path, kind)
    built = type(record)(**{"record_id" if key == "id" else key:
                            tuple(value) if type(value) is list else value
                            for key, value in obj.items()})
    assert (record, hash(record), repr(record), vars(record)) == \
        (built, hash(built), repr(built), vars(built))
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.record_id = "other"


# a line's text: JSON's characters, JSON and other whitespace, and a BOM,
# but no \n or \r, which end a line
_LINE_TEXT = st.text(alphabet=st.sampled_from(
    list('{}[]":,0123456789.-eEtrufalsn\\ ') +
    ["\t", "\x0b", "\x0c", "\x85", "\u2028", "\ufeff", "\u00e9"]), max_size=8)
_JSON_TEXT = st.sampled_from(['{}', '[1]', '"s"', '1', '{"id": "p"}', '{"a": [1, {}]}',
                             '"s', '{"id": "p', '[1, "'])


@settings(derandomize=True, max_examples=2000, deadline=None)
@given(text=st.one_of(_LINE_TEXT, st.builds("{}{}{}".format,
                                             _LINE_TEXT, _JSON_TEXT, _LINE_TEXT)))
def test_a_line_decodes_as_json_loads_decodes_it(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "line.jsonl"
    path.write_bytes(text.encode("utf-8") + b"\n")
    try:
        expected = json.loads(text)
    except json.JSONDecodeError as err:
        expected = f"invalid JSON: {err.msg}"
    else:
        expected = None if type(expected) is dict else "record is not a JSON object"
    if not text.strip():
        assert load_predictions(path) == []
        return
    with pytest.raises(DatasetError) as err:
        load_predictions(path)
    if expected is None:
        assert err.value.field is not None  # the record's own fault
    else:
        assert (err.value.args[0], err.value.field) == (expected, None)


class TestPredictions:
    def test_rows_are_written_ordered_by_id_then_repeat(self, tmp_path):
        rows = [
            PredictionRow("b", "zero_shot", 1, 0),
            PredictionRow("a", "zero_shot", 0, None),
            PredictionRow("b", "zero_shot", 0, 2),
            PredictionRow("a", "zero_shot", 1, 1),
        ]
        path = tmp_path / "pred.jsonl"
        write_predictions(rows, path)
        lines = path.read_text().splitlines()
        keys = [(json.loads(l)["id"], json.loads(l)["repeat"]) for l in lines]
        assert keys == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]

    def test_abstain_marker_round_trips(self, tmp_path):
        rows = [PredictionRow("a", "joint", 0, None), PredictionRow("b", "joint", 0, 1)]
        path = tmp_path / "pred.jsonl"
        write_predictions(rows, path)
        assert json.loads(path.read_text().splitlines()[0])["answer"] == "abstain"
        again = load_predictions(path)
        assert again == sorted(rows, key=lambda r: (r.record_id, r.repeat))

    def test_write_then_load_then_write_is_byte_identical(self, tmp_path):
        rows = [
            PredictionRow("p1", "decisionflow", 0, 1),
            PredictionRow("p1", "decisionflow", 1, None),
            PredictionRow("p2", "decisionflow", 0, 0),
        ]
        first = tmp_path / "one.jsonl"
        second = tmp_path / "two.jsonl"
        write_predictions(rows, first)
        write_predictions(load_predictions(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_answer_rejected(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"id": "a", "mode": "cot", "repeat": 0, "answer": "maybe"}\n')
        with pytest.raises(DatasetError) as err:
            load_predictions(path)
        assert err.value.field == "answer"


class TestWriteText:
    @pytest.mark.parametrize("case", ["missing_dir", "dir_in_the_way"])
    def test_failed_write_names_the_file_asked_for(self, tmp_path, case):
        if case == "missing_dir":  # open of the temporary file fails
            path = tmp_path / "missing" / "x.json"
        else:  # the rename over path fails
            path = tmp_path / "x.json"
            path.mkdir()
        with pytest.raises(OSError) as err:
            write_json({}, path)
        assert str(path) in str(err.value)
        assert ".tmp" not in str(err.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            (["x.json"] if case == "dir_in_the_way" else [])


def stdlib(value, sort_keys=True, dumps=json.dumps):
    return dumps(value, indent=2, sort_keys=sort_keys, ensure_ascii=False)


# quotes, backslashes, control characters, DEL, non-ASCII and astral
# characters, a literal backslash-u, and any other character
TEXT = st.lists(st.sampled_from(['a', ' ', '"', '\\', '/', '\n', '\t', '\b',
                                 '\f', '\r', '\x00', '\x1f', '\x7f', '\xe9',
                                 '\u2028', '\U0001d11e', '\\u0041'])
                | st.characters(), max_size=6).map("".join)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(-2**200, 2**200)
           | st.floats() | st.sampled_from([-0.0, 1e16, 1e-7, float("nan"),
                                            float("inf"), float("-inf")]))


def json_values(text):
    return st.recursive(
        SCALARS | text,
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=3).map(tuple)
                          | st.dictionaries(text, children, max_size=4)),
        max_leaves=24)


def depth(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return 1 + max(map(depth, value), default=0)
    return 0


@pytest.fixture
def stdlib_calls(monkeypatch):
    """The values that dumps_indented left to json.dumps."""
    calls = []
    dumps = json.dumps

    def counting(value, **kwargs):
        calls.append(value)
        return dumps(value, **kwargs)

    monkeypatch.setattr(datasets.json, "dumps", counting)
    return calls


class TestDumpsIndented:
    """dumps_indented is json.dumps(indent=2, ensure_ascii=False), byte for
    byte."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(value=json_values(TEXT), sort_keys=st.booleans())
    def test_equals_json_dumps(self, value, sort_keys):
        assert dumps_indented(value, sort_keys=sort_keys) == \
            stdlib(value, sort_keys)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(value=json_values(TEXT), sort_keys=st.booleans())
    def test_exact_json_types_take_the_fast_path(self, value, sort_keys):
        assume(depth(value) <= MAX_FAST_DEPTH)
        dumps = json.dumps
        datasets.json.dumps = None  # a call would fail
        try:
            text = dumps_indented(value, sort_keys=sort_keys)
        finally:
            datasets.json.dumps = dumps
        assert text == stdlib(value, sort_keys)

    @pytest.mark.parametrize("value", [
        "\xe9", ["\x7f"], {"a": "\x01"}, {"\xe9": 1}, ["\\u0041"],
        {"a": ["\u2014", 1]}, ("a", [True, None]),
    ], ids=["non_ascii", "del", "control", "non_ascii_key", "literal_u",
            "nested_non_ascii", "tuple"])
    def test_any_text_takes_the_fast_path(self, value, stdlib_calls):
        assert dumps_indented(value) == stdlib(value)
        assert stdlib_calls == []

    @pytest.mark.parametrize("value", [
        {1: "a"}, {"a": {2: [1]}}, OrderedDict(a=1), [IntEnum("E", "A").A],
    ], ids=["int_key", "nested_int_key", "dict_subclass", "int_subclass"])
    def test_what_json_dumps_writes(self, value, stdlib_calls):
        assert dumps_indented(value) == stdlib(value)
        assert stdlib_calls == [value]

    @pytest.mark.parametrize("sort_keys", [False, True])
    def test_a_long_flat_container_is_written_whole(self, sort_keys,
                                                    stdlib_calls):
        """The C encoder may hand back its text in more than one piece."""
        items = [i % 7 or "x\u2014" for i in range(150_000)]
        for value in (items, {f"k{i}": item for i, item in enumerate(items)},
                      {"a": [items]}):
            assert dumps_indented(value, sort_keys=sort_keys) == \
                stdlib(value, sort_keys)
        assert stdlib_calls == []

    def test_depth_beyond_the_encoders_goes_to_json_dumps(self, stdlib_calls):
        shallow = [1]
        for _ in range(MAX_FAST_DEPTH - 1):
            shallow = [shallow, "x"]
        assert dumps_indented(shallow) == stdlib(shallow)
        assert stdlib_calls == []
        deep = [shallow]
        assert dumps_indented(deep) == stdlib(deep)
        assert stdlib_calls == [deep]

    @pytest.mark.parametrize("value, error", [
        ([object()], TypeError), ({"a": {"b": {1.5j}}}, TypeError),
        ({(1, 2): 3}, TypeError), ({1: 1, "a": 2}, TypeError),
    ])
    def test_raises_what_json_dumps_raises(self, value, error):
        with pytest.raises(error) as expected:
            stdlib(value)
        with pytest.raises(error) as got:
            dumps_indented(value)
        assert str(got.value) == str(expected.value)

    def test_a_cycle_is_json_dumps_error(self):
        cycle = []
        cycle.append(cycle)
        with pytest.raises(ValueError, match="Circular reference detected"):
            dumps_indented({"a": cycle})

    def test_a_lone_surrogate_fails_the_write_as_before(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(UnicodeEncodeError) as expected:
            (stdlib(["\ud800"]) + "\n").encode("utf-8")
        with pytest.raises(UnicodeEncodeError) as got:
            write_json(["\ud800"], path)
        assert str(got.value) == str(expected.value)
        assert list(tmp_path.iterdir()) == []

    def test_every_bundled_replay_writes_json_dumps_text(self, tmp_path,
                                                         monkeypatch):
        """Each JSON text the nine bundled replays make: traces, manifests,
        reports and the S3 prompt dumps."""
        monkeypatch.chdir(REPO_ROOT)
        checked = {datasets: 0, pipeline: 0}

        def checking(module):
            def dumps(value, *, sort_keys=True):
                text = dumps_indented(value, sort_keys=sort_keys)
                assert text == stdlib(value, sort_keys)
                checked[module] += 1
                return text
            monkeypatch.setattr(module, "dumps_indented", dumps)

        checking(datasets)
        checking(pipeline)
        configs = sorted(CONFIG_DIR.glob("replay_*.json"))
        assert len(configs) == 9
        for config in configs:
            assert cli.main(["run", "--config", str(config), "--out",
                             str(tmp_path / config.stem)]) in (0, 2)
        traces = list(tmp_path.glob("*/traces/*.json"))
        assert len(traces) > 50
        assert checked[datasets] > len(traces)
        assert checked[pipeline] > 0  # the S3 prompt dumps


class TestProblemConversion:
    def test_mta_record_becomes_problem_with_vacuous_constraints(self):
        record = MtaRecord(
            record_id="mta-1", scenario="s", choices=("Treat A", "Treat B"),
            dma="fairness", alignment="high", bias_text="directive", gold=1,
        )
        [problem] = problems_from_records([record], "mta")
        assert problem.bias_directive == "directive"
        assert [(c.source_text, c.excludes) for c in problem.constraints] == [
            ("x1 + x2 <= 1", set()), ("x1, x2 in {0, 1}", set())]
        assert feasible_actions(problem.constraints, 2) == {0, 1}

    def test_dellma_record_has_no_bias_directive(self):
        record = DellmaRecord(
            record_id="d-1", domain="stocks", context="prices",
            actions=("Buy X", "Buy Y", "Buy Z"), gold=2,
        )
        [problem] = problems_from_records([record], "dellma")
        assert problem.bias_directive is None
        assert problem.n_actions == 3
        assert problem.constraints[0].source_text == "x1 + x2 + x3 <= 1"

    @pytest.mark.parametrize("kind", ["mta", "dellma"])
    def test_one_constraint_pair_per_action_count(self, kind, mta_records,
                                                  dellma_records, monkeypatch):
        # dellma_small has one record per action count, so take it twice
        records = mta_records if kind == "mta" else dellma_records * 2
        parses = []

        def counting(text):
            parses.append(text)
            return parse_constraint(text)

        monkeypatch.setattr(datasets, "parse_constraint", counting)
        counts = {problem.n_actions for problem in
                  problems_from_records(records, kind)}
        if kind == "dellma":
            assert len(counts) == 6
        # each call builds its own pairs: a cache kept between calls would
        # parse nothing the second time
        assert len(parses) == 2 * len(counts)
        problems = problems_from_records(records, kind)
        assert len(parses) == 4 * len(counts)
        monkeypatch.undo()
        by_count = {}
        for record, problem in zip(records, problems, strict=True):
            assert by_count.setdefault(problem.n_actions,
                                       problem.constraints) \
                is problem.constraints
            # a fresh call, with a fresh cache, builds the same problem
            assert problems_from_records([record], kind) == [problem]

    def test_unknown_kind_rejected(self, mta_records):
        with pytest.raises(ValueError, match="unknown dataset kind 'dellma2'"):
            problems_from_records(mta_records, "dellma2")
