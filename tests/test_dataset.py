import csv
import io
import math
import random
import struct
from importlib import resources

import pytest

from helpers import build_dataset, replace_value
from simrank import (
    CriteriaSchema,
    CriterionSpec,
    Dataset,
    Direction,
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


def test_validate_lists_cell_and_column_violations_in_order():
    """Column by column in schema order, players in file order within a column; a clean
    column adds nothing, and a column with bad cells still has its finite cells checked."""
    big = 1e308
    schema = CriteriaSchema(tuple(CriterionSpec(c, Direction.MAXIMIZE) for c in "VWXYZ"))
    dataset = Dataset(schema, (
        PlayerRecord("a", {"V": 1.0, "W": big, "X": -math.inf, "Y": math.nan, "Z": big}),
        PlayerRecord("b", {"V": 2.0, "X": 2.0, "Z": -big}),
        PlayerRecord("c", {"V": 3.0, "W": -big, "X": 3.0, "Y": math.inf, "Z": 0.0}),
    ))
    assert [tuple(v) for v in validate(dataset)] == [
        ("MissingValue", "b/W", "included criterion has no value"),
        ("NonFiniteSpread", "W", "max - min is not finite"),
        ("NonFiniteValue", "a/X", "value is -inf"),
        ("NonFiniteValue", "a/Y", "value is nan"),
        ("MissingValue", "b/Y", "included criterion has no value"),
        ("NonFiniteValue", "c/Y", "value is inf"),
        ("NonFiniteSpread", "Z", "max - min is not finite"),
    ]



_XY = CriteriaSchema((CriterionSpec("X", Direction.MAXIMIZE), CriterionSpec("Y", Direction.MAXIMIZE)))


@pytest.mark.parametrize("text, error, row, column, message", [
    ("Player,X,Y\na,1,2\nb,abc,3\n", ParseError, 3, "X", "row 3, column 'X': not a number"),
    ("Player,X,Y\na,1,2\nb,1,inf\n", ParseError, 3, "Y", "row 3, column 'Y': not a finite number"),
    ("Player,X,Y\na,1,2\nb,1\n", ParseError, 3, "Y", "row 3, column 'Y': missing value"),
    ("Player,X,Y\na,1,2\n,1,2\n", ParseError, 3, "Player", "row 3, column 'Player': empty player name"),
    ("Player,X,Y\na,1,2\nb,3,4\na,5,6\nc,x,7\n", DuplicatePlayer, None, None,
     "duplicate player: 'a'"),
    ("Player,X,Y\na,1,2\nb,-inf,3\nc,1,2\nd,x,3\n", ParseError, 3, "X",
     "row 3, column 'X': not a finite number"),
    ("Player,X,Y\na,1,2\n\n , \nb,1,x\n", ParseError, 5, "Y", "row 5, column 'Y': not a number"),
    ("Player,Y,X\na,1,2\nb,bad,worse\n", ParseError, 3, "X", "row 3, column 'X': not a number"),
    ("Player,X,Y\na,1,2\nb, 1.5 ,\t2\t\n", None, None, None, None),
], ids=["non-numeric", "inf", "short-row", "empty-name", "duplicate-before-later-bad-cell",
        "non-finite-row-3-before-non-numeric-row-5", "blank-lines-count", "schema-order-within-a-row",
        "surrounding-spaces-accepted"])
def test_load_error_contract(text, error, row, column, message):
    """The first bad cell in row-major order (schema order within a row) decides the error."""
    if error is None:
        dataset = load_dataset(io.StringIO(text), _XY)
        assert [list(dataset.column("X")), list(dataset.column("Y"))] == [[1.0, 1.5], [2.0, 2.0]]
        return
    with pytest.raises(error) as exc:
        load_dataset(io.StringIO(text), _XY)
    assert type(exc.value) is error
    assert (getattr(exc.value, "row", None), getattr(exc.value, "column", None)) == (row, column)
    assert str(exc.value) == message


def test_loaded_records_match_the_record_constructor(reference_dataset):
    """What tests and the benchmark's tracer read: a players view of dicts, equal to built records."""
    rows = list(csv.DictReader(io.StringIO(_reference_text())))
    names = reference_schema().names()
    records = tuple(PlayerRecord(r["Player"], {c: float(r[c]) for c in names}) for r in rows)
    built = Dataset(reference_schema(), records)
    assert reference_dataset.players == records
    assert type(reference_dataset.players[0].values) is dict
    assert reference_dataset.player("Neymar") == records[[r.name for r in records].index("Neymar")]
    assert built == reference_dataset
    assert built.players == records


def test_round_trip_is_bit_exact_at_scale():
    rng = random.Random(20181)
    # extremes, a subnormal, signed zero and two doubles that need 17 significant digits
    special = [1e-300, 1e300, -0.0, 5e-324, 0.1 + 0.2, 1.0000000000000002, -1.7976931348623157e308]
    columns = {c: [rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-20, 20) for _ in range(1000)]
               for c in "ABCDE"}
    for values in columns.values():
        for at, v in zip(rng.sample(range(1000), len(special)), special):
            values[at] = v
    dataset = build_dataset([f"p{i}" for i in range(1000)], columns)
    reloaded = load_dataset(io.StringIO(dataset_to_csv(dataset)), dataset.schema)
    for c, values in columns.items():
        assert [struct.pack("d", v) for v in reloaded.column(c)] == \
            [struct.pack("d", v) for v in values], c
