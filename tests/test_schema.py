import io
from pathlib import Path

import pytest

from simrank import (
    CriteriaSchema,
    CriterionSpec,
    Direction,
    UnknownCriterion,
    reference_schema,
    schema_from_json,
    schema_to_json,
)

SCHEMA_FILE = Path(__file__).resolve().parents[1] / "src" / "simrank" / "data" / "reference_schema.json"


def test_reference_schema_counts():
    schema = reference_schema()
    assert len(schema.criteria) == 20
    assert len(schema.included_names()) == 17


def test_reference_schema_minimization_criteria():
    schema = reference_schema()
    minimized = [c.name for c in schema.criteria
                 if c.included and c.direction is Direction.MINIMIZE]
    assert sorted(minimized) == ["Disp", "Fouls", "Offside", "UnschTch"]


def test_season_totals_present_but_excluded():
    schema = reference_schema()
    for name in ("Games", "Goals", "Assists"):
        spec = schema.get(name)
        assert spec.included is False
    assert "Games" not in schema.included_names()


def test_per_game_columns_are_included():
    included = reference_schema().included_names()
    assert "Goals pg" in included
    assert "As pg" in included


def test_duplicate_criterion_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        CriteriaSchema((
            CriterionSpec("SpG", Direction.MAXIMIZE),
            CriterionSpec("SpG", Direction.MINIMIZE),
        ))
    with pytest.raises(ValueError) as exc:  # each repeated name once, however often it repeats
        CriteriaSchema(tuple(CriterionSpec(name, Direction.MAXIMIZE) for name in "AABBBC"))
    assert str(exc.value) == "duplicate criterion names: ['A', 'B']"


def test_empty_criterion_name_rejected():
    with pytest.raises(ValueError):
        CriterionSpec("   ", Direction.MAXIMIZE)


def test_get_unknown_criterion():
    with pytest.raises(UnknownCriterion):
        reference_schema().get("ExpectedGoals")


def test_json_round_trip():
    schema = reference_schema()
    assert schema_from_json(io.StringIO(schema_to_json(schema))) == schema
    two = CriteriaSchema((CriterionSpec("KeyP", Direction.MAXIMIZE, True),
                          CriterionSpec("Fouls", Direction.MINIMIZE, False)))
    assert schema_to_json(two) == (
        '[\n'
        '  {\n    "name": "KeyP",\n    "direction": "max",\n    "included": true\n  },\n'
        '  {\n    "name": "Fouls",\n    "direction": "min",\n    "included": false\n  }\n'
        ']\n')


def test_sample_schema_file_matches_compiled():
    assert schema_from_json(SCHEMA_FILE) == reference_schema()


def test_schema_from_json_text_stream():
    text = '[{"name": "A", "direction": "min", "included": true}]'
    schema = schema_from_json(io.StringIO(text))
    assert schema.criteria[0].direction is Direction.MINIMIZE


def test_reference_schema_is_read_once():
    assert reference_schema() is reference_schema()


def test_schema_file_with_bom(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + SCHEMA_FILE.read_bytes())
    assert schema_from_json(path) == reference_schema()


def test_bom_in_a_schema_text_stream_is_dropped():
    assert schema_from_json(io.StringIO("\ufeff" + SCHEMA_FILE.read_text("utf-8"))) == reference_schema()


def test_schema_path_beginning_with_bracket(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("[v2] schema.json").write_bytes(SCHEMA_FILE.read_bytes())
    assert schema_from_json("[v2] schema.json") == reference_schema()


@pytest.mark.parametrize("item, shown", [('{"name": "SpG"}', "None"),
                                         ('{"name": "SpG", "direction": "up"}', "'up'")])
def test_direction_must_be_max_or_min(item, shown):
    with pytest.raises(ValueError) as caught:
        schema_from_json(io.StringIO(f"[{item}]"))
    assert str(caught.value) == f"criterion 'SpG': direction must be \"max\" or \"min\", got {shown}"


@pytest.mark.parametrize("flag", ['"false"', '"true"', "0", "1", "null"])
def test_included_must_be_a_json_boolean(flag):
    text = f'[{{"name": "A", "direction": "max", "included": {flag}}}]'
    with pytest.raises(ValueError, match="included must be true or false"):
        schema_from_json(io.StringIO(text))


def test_included_false_excludes_the_criterion():
    text = '[{"name": "A", "direction": "max"}, {"name": "B", "direction": "max", "included": false}]'
    assert schema_from_json(io.StringIO(text)).included_names() == ("A",)


def test_schema_without_included_criteria_rejected():
    with pytest.raises(ValueError, match="schema includes no criteria"):
        CriteriaSchema((CriterionSpec("A", Direction.MAXIMIZE, included=False),))


@pytest.mark.parametrize("text", ['{"name": "A", "direction": "max"}', '[{"direction": "max"}]',
                                  '[{"name": 1, "direction": "max"}]', '["A"]'])
def test_schema_must_be_an_array_of_named_objects(text):
    with pytest.raises(ValueError, match="JSON array of objects"):
        schema_from_json(io.StringIO(text))
