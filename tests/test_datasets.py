"""Dataset format tests: loading, validation, round-trips, predictions."""

import json
from pathlib import Path

import pytest

from decisionflow.core import feasible_actions
from decisionflow.datasets import (
    DMA_VALUES,
    DellmaRecord,
    MtaRecord,
    PredictionRow,
    dellma_problem,
    load_dataset,
    load_predictions,
    mta_problem,
    serialize_records,
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
            again = load_dataset(out, kind)
            assert serialize_records(again) == original.decode("utf-8")


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


class TestProblemConversion:
    def test_mta_record_becomes_problem_with_vacuous_constraints(self):
        record = MtaRecord(
            record_id="mta-1", scenario="s", choices=("Treat A", "Treat B"),
            dma="fairness", alignment="high", bias_text="directive", gold=1,
        )
        problem = mta_problem(record)
        assert problem.bias_directive == "directive"
        assert problem.gold == 1
        kinds = [c.kind for c in problem.constraints]
        assert kinds == ["cardinality", "binary_domain"]
        assert feasible_actions(problem.constraints, 2) == {0, 1}

    def test_dellma_record_has_no_bias_directive(self):
        record = DellmaRecord(
            record_id="d-1", domain="stocks", context="prices",
            actions=("Buy X", "Buy Y", "Buy Z"), gold=2,
        )
        problem = dellma_problem(record)
        assert problem.bias_directive is None
        assert problem.n_actions == 3
        assert problem.constraints[0].source_text == "x1 + x2 + x3 <= 1"
