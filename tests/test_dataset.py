import csv
import io
import math
from importlib import resources

import pytest

from helpers import build_dataset, replace_value
from simrank import (
    Dataset,
    DuplicatePlayer,
    EmptyDataset,
    MissingColumn,
    ParseError,
    PlayerRecord,
    UnknownCriterion,
    UnknownPlayer,
    dataset_to_csv,
    load_dataset,
    reference_schema,
    validate,
)


def _reference_text() -> str:
    return resources.files("simrank.data").joinpath("whoscored_2018.csv").read_text("utf-8")


def _load_text(text: str) -> Dataset:
    return load_dataset(io.StringIO(text), reference_schema())


def test_reference_dataset_shape(reference_dataset):
    assert len(reference_dataset.players) == 29
    assert reference_dataset.players[0].name == "Messi"
    assert reference_dataset.columns() == reference_schema().names()


def test_reference_values_spot_check(reference_dataset):
    messi = reference_dataset.player("Messi")
    assert messi.values["Goals pg"] == 0.95
    assert messi.values["AvPasses"] == 55.9
    assert reference_dataset.player("Neymar").values["As pg"] == 0.69


def test_round_trip_is_bit_exact(reference_dataset):
    reloaded = _load_text(dataset_to_csv(reference_dataset))
    assert reloaded == reference_dataset
    # and it is a fixed point
    assert dataset_to_csv(reloaded) == dataset_to_csv(reference_dataset)


def test_column_order_does_not_matter(reference_dataset):
    rows = list(csv.reader(io.StringIO(_reference_text())))
    order = [0] + list(range(len(rows[0]) - 1, 0, -1))  # Player first, rest reversed
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([row[i] for i in order])
    assert _load_text(out.getvalue()) == reference_dataset


def test_missing_included_column():
    rows = list(csv.reader(io.StringIO(_reference_text())))
    drop = rows[0].index("Tackles")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([cell for i, cell in enumerate(row) if i != drop])
    with pytest.raises(MissingColumn) as exc:
        _load_text(out.getvalue())
    assert exc.value.name == "Tackles"


def test_missing_excluded_column_is_fine():
    rows = list(csv.reader(io.StringIO(_reference_text())))
    drop = rows[0].index("Games")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow([cell for i, cell in enumerate(row) if i != drop])
    dataset = _load_text(out.getvalue())
    assert "Games" not in dataset.columns()
    assert len(dataset.columns()) == 19


def test_header_only_is_empty():
    header = _reference_text().splitlines()[0]
    with pytest.raises(EmptyDataset):
        _load_text(header + "\n")


def test_blank_input_is_empty():
    with pytest.raises(EmptyDataset):
        _load_text("")


def test_first_column_must_be_player():
    text = _reference_text().replace("Player,", "Name,", 1)
    with pytest.raises(MissingColumn) as exc:
        _load_text(text)
    assert exc.value.name == "Player"


def test_parse_error_reports_row_and_column():
    text = _reference_text().replace("55.9", "n/a", 1)  # Messi, AvPasses, line 2
    with pytest.raises(ParseError) as exc:
        _load_text(text)
    assert exc.value.row == 2
    assert exc.value.column == "AvPasses"


def test_nan_text_is_rejected():
    text = _reference_text().replace("55.9", "nan", 1)
    with pytest.raises(ParseError):
        _load_text(text)


def test_duplicate_player_rejected():
    lines = _reference_text().splitlines(keepends=True)
    with pytest.raises(DuplicatePlayer) as exc:
        _load_text("".join(lines) + lines[1])
    assert exc.value.name == "Messi"


def test_header_whitespace_is_trimmed():
    text = _reference_text().replace("Player,Games", "  Player ,  Games ", 1)
    assert _load_text(text).columns() == reference_schema().names()


def test_unknown_csv_columns_are_ignored():
    rows = list(csv.reader(io.StringIO(_reference_text())))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0] + ["Rating"])
    for row in rows[1:]:
        writer.writerow(row + ["not-a-number"])
    dataset = _load_text(out.getvalue())
    assert "Rating" not in dataset.columns()


def test_bytes_stream_accepted(reference_dataset):
    stream = io.BytesIO(_reference_text().encode("utf-8"))
    assert load_dataset(stream, reference_schema()) == reference_dataset


def test_bytes_stream_is_left_open():
    stream = io.BytesIO(_reference_text().encode("utf-8"))
    load_dataset(stream, reference_schema())
    assert not stream.closed


def test_unknown_player_lookup(reference_dataset):
    with pytest.raises(UnknownPlayer):
        reference_dataset.player("Nobody")


def test_unknown_column_lookup(reference_dataset):
    with pytest.raises(UnknownCriterion):
        reference_dataset.column("Rating")


def test_validate_reference_is_clean(reference_dataset):
    assert validate(reference_dataset) == []


def test_validate_flags_nan(reference_dataset):
    broken = replace_value(reference_dataset, "Kane", "SpG", math.nan)
    violations = validate(broken)
    assert len(violations) == 1
    assert violations[0].rule == "NonFiniteValue"
    assert "Kane" in violations[0].subject


def test_validate_flags_duplicate_names(reference_dataset):
    doubled = Dataset(
        reference_dataset.schema,
        reference_dataset.players + (reference_dataset.players[0],),
    )
    violations = [v for v in validate(doubled) if v.rule == "DuplicatePlayer"]
    assert len(violations) == 1
    assert violations[0].subject == "Messi"


def test_validate_flags_single_player(reference_dataset):
    solo = Dataset(reference_dataset.schema, reference_dataset.players[:1])
    assert any(v.rule == "TooFewPlayers" for v in validate(solo))


def test_validate_flags_missing_value():
    dataset = build_dataset(["a", "b"], {"X": [1.0, 2.0], "Y": [3.0, 4.0]})
    stripped = Dataset(
        dataset.schema,
        (dataset.players[0], PlayerRecord("b", {"X": 2.0})),
    )
    violations = validate(stripped)
    assert [v.rule for v in violations] == ["MissingValue"]
    assert violations[0].subject == "b/Y"
