import csv
import io
import math
import random
import struct
import tracemalloc
from array import array
from importlib import resources

import pytest

from helpers import build_dataset, replace_value
from simrank import (
    CriteriaSchema,
    CriterionSpec,
    Dataset,
    Direction,
    DuplicatePlayer,
    EUCLIDEAN,
    InsufficientSamples,
    LengthMismatch,
    MANHATTAN,
    MetricChoice,
    MissingColumn,
    MissingValue,
    NonFiniteSpread,
    ParseError,
    PlayerRecord,
    UnknownCriterion,
    correlation_matrix,
    dataset_to_csv,
    load_dataset,
    minkowski_distance,
    normalize,
    pearson,
    rank_by_similarity,
    reference_schema,
    render_scatter_svg,
    scatter_data,
    validate,
)


def _reference_text() -> str:
    return resources.files("simrank.data").joinpath("whoscored_2018.csv").read_text("utf-8")


def _load_text(text: str) -> Dataset:
    return load_dataset(io.StringIO(text), reference_schema())


def test_reference_dataset_shape(reference_dataset):
    assert len(reference_dataset.names) == 29
    assert reference_dataset.names[0] == "Messi"
    assert tuple(reference_dataset.table) == reference_schema().names()


def test_reference_values_spot_check(reference_dataset):
    messi, neymar = reference_dataset.names.index("Messi"), reference_dataset.names.index("Neymar")
    assert reference_dataset.column("Goals pg")[messi] == 0.95
    assert reference_dataset.column("AvPasses")[messi] == 55.9
    assert reference_dataset.column("As pg")[neymar] == 0.69


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
    assert "Games" not in dataset.table
    assert len(dataset.table) == 19


def test_header_only_is_empty():
    header = _reference_text().splitlines()[0]
    with pytest.raises(InsufficientSamples, match="^CSV has no data rows$"):
        _load_text(header + "\n")


def test_blank_input_is_empty():
    with pytest.raises(InsufficientSamples, match="^CSV has no header row$"):
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
    assert tuple(_load_text(text).table) == reference_schema().names()


def test_unknown_csv_columns_are_ignored():
    rows = list(csv.reader(io.StringIO(_reference_text())))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0] + ["Rating"])
    for row in rows[1:]:
        writer.writerow(row + ["not-a-number"])
    dataset = _load_text(out.getvalue())
    assert "Rating" not in dataset.table


def test_bytes_stream_accepted(reference_dataset):
    stream = io.BytesIO(_reference_text().encode("utf-8"))
    assert load_dataset(stream, reference_schema()) == reference_dataset


def test_bom_in_a_text_stream_is_dropped(reference_dataset):
    # a caller that opens the file as "utf-8" rather than "utf-8-sig" keeps the BOM in the text
    assert _load_text("\ufeff" + _reference_text()) == reference_dataset


def test_bytes_stream_is_left_open():
    stream = io.BytesIO(_reference_text().encode("utf-8"))
    load_dataset(stream, reference_schema())
    assert not stream.closed


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
    doubled = reference_dataset._replace(
        names=reference_dataset.names + reference_dataset.names[:1],
        table={c: column + column[:1] for c, column in reference_dataset.table.items()},
    )
    violations = [v for v in validate(doubled) if v.rule == "DuplicatePlayer"]
    assert len(violations) == 1
    assert violations[0].subject == "Messi"


def test_validate_lists_repeated_names_in_order_of_first_appearance():
    dataset = build_dataset(["a", "b", "c", "b", "a", "a"], {"X": [1, 2, 3, 4, 5, 6]})
    assert [v.subject for v in validate(dataset) if v.rule == "DuplicatePlayer"] == ["a", "b"]


def test_validate_flags_single_player(reference_dataset):
    solo = reference_dataset._replace(
        names=reference_dataset.names[:1],
        table={c: column[:1] for c, column in reference_dataset.table.items()},
    )
    assert any(v.rule == "TooFewPlayers" for v in validate(solo))


def test_validate_flags_missing_value():
    dataset = build_dataset(["a", "b"], {"X": [1.0, 2.0], "Y": [3.0, 4.0]})
    stripped = replace_value(dataset, "b", "Y", None)
    violations = validate(stripped)
    assert [v.rule for v in violations] == ["MissingValue"]
    assert violations[0].subject == "b/Y"


def test_validate_lists_cell_and_column_violations_in_order():
    """Column by column in schema order, players in file order within a column; a clean
    column adds nothing, and a column with bad cells still has its finite cells checked."""
    big = 1e308
    schema = CriteriaSchema(tuple(CriterionSpec(c, Direction.MAXIMIZE) for c in "VWXYZ"))
    dataset = Dataset(schema, ("a", "b", "c"), {  # None is a cell the data lacks
        "V": (1.0, 2.0, 3.0),
        "W": (big, None, -big),
        "X": (-math.inf, 2.0, 3.0),
        "Y": (math.nan, None, math.inf),
        "Z": (big, -big, 0.0),
    })
    assert [tuple(v) for v in validate(dataset)] == [
        ("MissingValue", "b/W", "included criterion has no value"),
        ("NonFiniteSpread", "W", "max - min is not finite"),
        ("NonFiniteValue", "a/X", "value is -inf"),
        ("NonFiniteValue", "a/Y", "value is nan"),
        ("MissingValue", "b/Y", "included criterion has no value"),
        ("NonFiniteValue", "c/Y", "value is inf"),
        ("NonFiniteSpread", "Z", "max - min is not finite"),
    ]


@pytest.mark.parametrize("column", [(1.0, 2.0), (1.0, None, 3.0, 4.0)], ids=["short", "long"])
def test_a_column_of_the_wrong_length_is_refused_by_every_computation(column):
    """A hand-built column holding fewer or more values than there are players: Dataset.column
    refuses it for every computation, and validate reports it without reading its cells."""
    dataset = build_dataset("abc", {"A": [1.0, 2.0, 4.0], "B": [3.0, 1.0, 2.0]})
    dataset = dataset._replace(table={**dataset.table, "A": column})
    message = f"column 'A': {len(column)} values for 3 players"
    for compute in (lambda ds: ds.column("A"), lambda ds: ds.players, dataset_to_csv, normalize,
                    correlation_matrix, lambda ds: rank_by_similarity(normalize(ds), "a"),
                    lambda ds: scatter_data(ds, "B", "A", True)):
        with pytest.raises(LengthMismatch) as exc:
            compute(dataset)
        assert str(exc.value) == message
    assert [tuple(v) for v in validate(dataset)] == [("LengthMismatch", "A", f"{len(column)} values for 3 players")]


def test_a_non_numeric_cell_is_a_missing_value_everywhere():
    dataset = build_dataset("abc", {"X": [1.0, 2.0, 4.0], "Y": [3.0, 1.0, 2.0]})
    dataset = dataset._replace(table={**dataset.table, "X": (1.0, "x", 4.0)})
    assert [tuple(v) for v in validate(dataset)] == [("MissingValue", "b/X", "value 'x' is not a number")]
    for compute in (normalize, correlation_matrix):
        with pytest.raises(MissingValue, match="'X'"):
            compute(dataset)


def test_the_first_bad_column_in_schema_order_is_refused_everywhere():
    """Column by column, length then cells: a None cell in A wins over B's wrong length."""
    dataset = build_dataset("abc", {"A": [1.0, 2.0, 4.0], "B": [3.0, 1.0, 2.0]})
    dataset = dataset._replace(table={"A": (1.0, None, 4.0), "B": (3.0, 1.0)})
    assert [v.subject for v in validate(dataset)] == ["b/A", "B"]
    for compute in (normalize, correlation_matrix):
        with pytest.raises(MissingValue, match="'A'"):
            compute(dataset)


def test_a_missing_included_column_is_an_unknown_criterion_everywhere():
    """validate flags a hand-built table that lacks an included column as the column() error
    every computation raises for it, once, not once per player."""
    dataset = build_dataset("abc", {"X": [1.0, 2.0, 4.0], "Y": [3.0, 1.0, 2.0]})
    dataset = dataset._replace(table={"X": dataset.table["X"]})
    assert [tuple(v) for v in validate(dataset)] == [("UnknownCriterion", "Y", "criterion not in dataset")]
    for compute in (normalize, correlation_matrix, lambda ds: scatter_data(ds, "X", "Y")):
        with pytest.raises(UnknownCriterion) as exc:
            compute(dataset)
        assert str(exc.value) == "criterion not in dataset: 'Y'"


@pytest.mark.parametrize("big", [2 ** 1024, 10 ** 400], ids=["2**1024", "10**400"])
@pytest.mark.parametrize("at", [0, 1], ids=["first", "second"])
def test_an_int_cell_beyond_the_double_range_is_refused_everywhere(big, at):
    """A hand-built int cell that no double holds: validate reports it, every computation refuses
    it as a SimrankError rather than letting float()'s OverflowError escape, and a distance to it is inf."""
    column = [0.0, 1.0, 4.0]
    column[at] = big
    dataset = build_dataset("abc", {"X": [0.0, 1.0, 4.0], "Y": [3.0, 1.0, 2.0]})
    dataset = dataset._replace(table={**dataset.table, "X": tuple(column)})
    player = "abc"[at]
    assert [tuple(v) for v in validate(dataset)] == [
        ("NonFiniteValue", f"{player}/X", "value is beyond the double range")]
    for compute in (normalize, correlation_matrix, lambda ds: pearson(ds.column("X"), ds.column("Y")),
                    lambda ds: scatter_data(ds, "X", "Y", with_trend=True),
                    lambda ds: scatter_data(ds, "Y", "X", with_trend=True),
                    lambda ds: render_scatter_svg(scatter_data(ds, "X", "Y"))):
        with pytest.raises(NonFiniteSpread, match="'[Xx]'"):
            compute(dataset)
    for metric in (MANHATTAN, EUCLIDEAN, MetricChoice(3.0)):
        assert minkowski_distance([0, 0], column[:2], metric) == math.inf


@pytest.mark.parametrize("compute", [
    normalize,
    correlation_matrix,
    lambda ds: scatter_data(ds, "SpG", "KeyP", True),
    lambda ds: scatter_data(ds, "KeyP", "SpG", True),
    lambda ds: render_scatter_svg(scatter_data(ds, "SpG", "KeyP")),
    lambda ds: render_scatter_svg(scatter_data(ds, "KeyP", "SpG")),
], ids=["normalize", "correlation_matrix", "trend-x", "trend-y", "svg-x", "svg-y"])
def test_a_missing_cell_is_refused_by_every_computation(reference_dataset, compute):
    broken = replace_value(reference_dataset, "Kane", "SpG", None)
    with pytest.raises(MissingValue) as exc:
        compute(broken)
    assert exc.value.name == "SpG"
    assert str(exc.value) == "column 'SpG': missing or non-numeric value"


def test_a_missing_cell_after_an_overflowing_sum_is_refused():
    """The first fsum of _centre overflows before it reads the None cell; the rescale pass meets it."""
    ok = [0.0, 1.0, 3.0]
    dataset = build_dataset("abc", {"X": ok, "Y": ok})._replace(table={"X": [1e308, 1e308, None], "Y": ok})
    for compute in (correlation_matrix, lambda ds: scatter_data(ds, "X", "Y", True)):
        with pytest.raises(MissingValue, match="'X'"):
            compute(dataset)


@pytest.mark.parametrize("column", [(1.0, math.nan, 3.0), (7.0, math.nan, 7.0), (3.0, 1.0, math.nan)],
                         ids=["between", "constant", "last"])
def test_a_nan_cell_anywhere_is_refused(column):
    """min and max step over a nan that is not first, so without a check of its own the column
    would scale with nan cells, or pass as constant, and the plot get nan coordinates."""
    dataset = build_dataset("abc", {"X": column, "Y": [0.0, 1.0, 2.0]})
    for compute in (normalize, lambda ds: render_scatter_svg(scatter_data(ds, "X", "Y")),
                    lambda ds: render_scatter_svg(scatter_data(ds, "Y", "X"))):
        with pytest.raises(NonFiniteSpread) as exc:
            compute(dataset)
        assert str(exc.value) == "column 'X': max - min is not finite"


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


def _generated(faults: dict[int, str], n: int = 600) -> str:
    """Player,X,Y text of ``n`` rows p0, p1, ..., with row i replaced by ``faults[i]``; row i is line i + 2."""
    return "Player,X,Y\n" + "".join(faults.get(i, f"p{i},{i},{i / 4}") + "\n" for i in range(n))


# each fault pair lands on rows i and i + 1 on both sides of 64, 128 and 256 rows, so whatever
# the load's batch size, some pairs share a batch and some straddle two
_EDGES = [edge + d for edge in (64, 128, 256) for d in (-2, -1, 0)]


@pytest.mark.parametrize("i", _EDGES)
@pytest.mark.parametrize("first, then, message", [
    ("p{i},1,x", "p0,1,2", "row {line}, column 'Y': not a number"),
    ("p{i},inf,2", ",1,2", "row {line}, column 'X': not a finite number"),
    ("p0,1,2", "p{j},x,2", "duplicate player: 'p0'"),
    ("p{i},1", "p{j},x,x", "row {line}, column 'Y': missing value"),
], ids=["bad-cell-before-duplicate", "bad-cell-before-empty-name", "duplicate-before-bad-cell",
        "short-row-before-bad-cell"])
def test_load_errors_across_batch_boundaries(i, first, then, message):
    """The fault in row i wins over the one in row i + 1, in one batch or across two."""
    text = _generated({i: first.format(i=i), i + 1: then.format(j=i + 1)})
    with pytest.raises((ParseError, DuplicatePlayer)) as exc:
        load_dataset(io.StringIO(text), _XY)
    assert str(exc.value) == message.format(line=i + 2)


@pytest.mark.parametrize("fault, column, message", [
    ("p590,1,inf", "Y", "not a finite number"),
    ("p590,-inf,2", "X", "not a finite number"),
    ("p590,1", "Y", "missing value"),
    ("p590", "X", "missing value"),
])
def test_a_bad_row_in_the_last_partial_batch_is_reported(fault, column, message):
    """600 rows leave a partial batch for any batch size of 64, 128 or 256; row 590 is in it."""
    with pytest.raises(ParseError) as exc:
        load_dataset(io.StringIO(_generated({590: fault})), _XY)
    assert str(exc.value) == f"row 592, column '{column}': {message}"


@pytest.mark.parametrize("i", _EDGES)
def test_finite_cells_whose_batch_sum_overflows_load_exactly(i):
    dataset = load_dataset(io.StringIO(_generated({i: f"p{i},1e308,-1e308", i + 1: f"p{i + 1},1e308,-1e308"})), _XY)
    assert len(dataset.names) == 600
    assert dataset.column("X")[i:i + 3].tolist() == [1e308, 1e308, i + 2]
    assert dataset.column("Y")[i - 1:i + 2].tolist() == [(i - 1) / 4, -1e308, -1e308]


def test_one_criterion_round_trip_is_bit_exact():
    """A one-criterion schema picks 1-tuples and slices the parsed batch at stride 1."""
    rng = random.Random(20190)
    values = [rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-20, 20) for _ in range(700)]
    values[300:304] = [5e-324, -0.0, 0.1 + 0.2, 1.7976931348623157e308]
    dataset = build_dataset([f"p{i}" for i in range(700)], {"X": values})
    reloaded = load_dataset(io.StringIO(dataset_to_csv(dataset)), dataset.schema)
    assert reloaded.names == dataset.names
    assert [struct.pack("d", v) for v in reloaded.column("X")] == [struct.pack("d", v) for v in values]


def test_round_trip_is_bit_exact_when_the_last_batch_holds_one_row():
    """129 rows end in a one-row batch; the extremes sit on the rows either side of 64 and 128,
    so each lands at both ends of a batch and in every column of the strided slices."""
    rng = random.Random(20261)
    special = [-0.0, 5e-324, 1.7976931348623157e308]
    columns = {c: [rng.uniform(-1e6, 1e6) for _ in range(129)] for c in "XYZ"}
    for at in (63, 64, 127, 128):
        for k, values in enumerate(columns.values()):
            values[at] = special[(at + k) % 3]
    dataset = build_dataset([f"p{i}" for i in range(129)], columns)
    reloaded = load_dataset(io.StringIO(dataset_to_csv(dataset)), dataset.schema)
    assert reloaded.names == dataset.names
    for c, values in columns.items():
        assert [struct.pack("d", v) for v in reloaded.column(c)] == [struct.pack("d", v) for v in values], c


def test_a_repeated_header_is_refused_at_row_one():
    with pytest.raises(ParseError) as exc:
        load_dataset(io.StringIO("Player,X,Y,X\na,1,2,3\nb,4,5,6\n"), _XY)
    assert (exc.value.row, exc.value.column) == (1, "X")
    assert str(exc.value) == "row 1, column 'X': duplicate column header"


def test_finite_cells_whose_row_sum_overflows_are_accepted():
    dataset = load_dataset(io.StringIO("Player,X,Y\na,1e308,1e308\nb,0,-1e308\n"), _XY)
    assert dataset.table == {"X": array("d", [1e308, 0.0]), "Y": array("d", [1e308, -1e308])}


def test_players_view_matches_the_csv_records(reference_dataset):
    """What the benchmark's tracer reads: a players view of dicts, one per CSV row,
    over a table equal to one built from the CSV's columns."""
    rows = list(csv.DictReader(io.StringIO(_reference_text())))
    names = reference_schema().names()
    records = tuple(PlayerRecord(r["Player"], {c: float(r[c]) for c in names}) for r in rows)
    built = Dataset(reference_schema(), tuple(r["Player"] for r in rows),
                    {c: array("d", (float(r[c]) for r in rows)) for c in names})
    assert reference_dataset.players == records
    assert type(reference_dataset.players[0].values) is dict
    assert built == reference_dataset


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


def test_loaded_columns_are_packed_doubles(reference_dataset):
    assert all(type(column) is array and column.typecode == "d"
               for column in reference_dataset.table.values())
    assert reference_dataset.column("SpG") is reference_dataset.table["SpG"]


def test_load_holds_the_table_about_once():
    # the table keeps one 8-byte double per cell, where a tuple of floats kept about 32, so the
    # names and the arrays' spare room put the whole load near 16 bytes a cell; holding every
    # row as a tuple until the columns are built would add at least 8 transient bytes per cell
    n, k = 5000, 17
    rng = random.Random(11)
    dataset = build_dataset([f"p{i}" for i in range(n)],
                            {f"C{j}": [round(rng.uniform(0, 100), 2) for _ in range(n)] for j in range(k)})
    stream = io.StringIO(dataset_to_csv(dataset))
    tracemalloc.start()
    try:
        loaded = load_dataset(stream, dataset.schema)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == dataset
    assert retained / (n * k) < 20
    assert (peak - retained) / (n * k) < 4
