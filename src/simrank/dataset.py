"""Loading and validating the player-by-criterion dataset.

The on-disk format is a UTF-8 CSV with a header row whose first column is
``Player``; every other column is numeric (decimal point, no thousands
separators). Column headers are matched against the schema case-sensitively
after trimming surrounding whitespace. CSV columns the schema does not know
are ignored; schema criteria missing from the header are an error only if
they are included criteria.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from array import array
from collections import Counter
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence

from .errors import (
    DuplicatePlayer,
    InsufficientSamples,
    LengthMismatch,
    MissingColumn,
    MissingValue,
    NonFiniteColumn,
    NonFiniteSpread,
    ParseError,
    UnknownCriterion,
)
from .schema import CriteriaSchema, Source, _text_stream, reference_schema

_REFERENCE_CSV = "whoscored_2018.csv"
# Rows parsed per float() pass: enough to amortise the per-batch calls, few enough that the
# batch's row strings stay small beside the table (tests/test_dataset.py bounds the transient).
_BATCH = 64


class PlayerRecord(NamedTuple):
    """One player's raw statistics, keyed by criterion name."""

    name: str
    values: dict[str, float]


class Violation(NamedTuple):
    """A broken dataset invariant, as a value rather than an exception."""

    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.subject}: {self.message}"


class Dataset(NamedTuple):
    """Immutable matrix of raw values under a governing schema, stored by column.

    ``names`` holds the players in file order and ``table`` one column of raw
    values per schema criterion the data carries, in schema order. A loaded table
    holds each column as an ``array("d")``, 8 bytes a cell. A hand-built one may
    hold any sequence, and only there can a cell be None: a missing value, which
    ``validate`` reports. Read a player's value as ``column(c)[names.index(p)]``;
    ``perfbench/spans.py::_loaded`` counts each load through ``players`` until
    the benchmark's layer map counts ``names`` and ``table`` instead.
    """

    schema: CriteriaSchema
    names: tuple[str, ...]
    table: dict[str, Sequence[float]]

    @property
    def players(self) -> tuple[PlayerRecord, ...]:
        """Every player as a PlayerRecord read through ``column()``, rebuilt on each access, a None
        cell left out; kept for ``perfbench/spans.py::_loaded`` until the layer map stops reading it."""
        columns = {c: self.column(c) for c in self.table}
        return tuple(PlayerRecord(name, {c: column[i] for c, column in columns.items()
                                         if column[i] is not None})
                     for i, name in enumerate(self.names))

    def column(self, name: str) -> Sequence[float]:
        """Raw values of one criterion, in player order: the stored column, not a copy.
        LengthMismatch if a hand-built column holds more or fewer values than there are players."""
        try:
            column = self.table[name]
        except KeyError:
            raise UnknownCriterion(name, "criterion not in dataset") from None
        if len(column) != len(self.names):
            raise LengthMismatch(f"column {name!r}: {len(column)} values for {len(self.names)} players")
        return column


def load_dataset(source: Source, schema: CriteriaSchema) -> Dataset:
    """Read a CSV (path or open stream) into a Dataset under ``schema``.

    Players keep file order. Raises MissingColumn if an included criterion has no matching
    header, ParseError for non-numeric cells, DuplicatePlayer for repeated names and
    InsufficientSamples if there is no header or no data row. The first error in row order
    wins, and within a row schema order.
    """
    with _text_stream(source) as stream:
        return _read_rows(stream, schema)


def _read_rows(stream: IO[str], schema: CriteriaSchema) -> Dataset:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise InsufficientSamples("CSV has no header row") from None
    if header:  # a text stream the caller opened as plain "utf-8" keeps the BOM
        header[0] = header[0].removeprefix("\ufeff")
    header = [h.strip() for h in header]
    if not header or header[0] != "Player":
        raise MissingColumn("Player")

    col_index: dict[str, int] = {}
    for i, name in enumerate(header[1:], start=1):
        if name in col_index:
            raise ParseError(1, name, "duplicate column header")
        col_index[name] = i

    matched = [n for n in schema.names() if n in col_index]
    for name in schema.included_names():
        if name not in col_index:
            raise MissingColumn(name)

    index = [col_index[c] for c in matched]
    width = len(index)
    # itemgetter of one index returns the bare cell, not a 1-tuple
    pick = itemgetter(*index) if width > 1 else lambda row: (row[index[0]],)
    names: dict[str, None] = {}  # players in file order, as a dict to catch duplicates
    columns = [array("d") for _ in matched]  # one per matched criterion
    rows: list[list[str]] = []  # the batch not yet parsed, and the line of each row
    lines: list[int] = []

    def flush() -> None:
        """Parse the batch's cells in one float() pass into a row-major list and pack each column's
        strided slice of it in one struct call, not array's per-item path; a refused batch is rescanned
        row by row, so the first bad cell in row-major order, schema order within a row, raises."""
        try:  # float() ignores surrounding whitespace
            flat = list(map(float, chain.from_iterable(map(pick, rows))))
            # an inf or nan cell never gives a finite sum, so only a non-finite sum needs a cell check
            clean = math.isfinite(sum(flat))
        except (ValueError, IndexError):  # a bad cell or a short row
            clean = False
        if not clean:
            for row, line in zip(rows, lines):
                error = _first_bad_cell(row, line, matched, index)
                if error is not None:
                    raise error
        pack = struct.Struct(f"{len(rows)}d").pack  # native doubles, as array("d") stores them
        for k, column in enumerate(columns):
            column.frombytes(pack(*flat[k::width]))
        rows.clear()
        lines.clear()

    for line, row in enumerate(reader, start=2):
        name = row[0].strip() if row else ""
        if not name:
            if not any(map(str.strip, row)):
                continue
            flush()  # a bad cell in an earlier row wins over the name
            raise ParseError(line, "Player", "empty player name")
        if name in names:
            flush()
            raise DuplicatePlayer(name)
        names[name] = None
        rows.append(row)
        lines.append(line)
        if len(rows) == _BATCH:
            flush()
    flush()

    if not names:
        raise InsufficientSamples("CSV has no data rows")
    return Dataset(schema, tuple(names), dict(zip(matched, columns)))


def _first_bad_cell(row: list[str], line: int, matched: list[str], index: list[int]) -> ParseError | None:
    """The error for the first bad cell of ``row`` in schema order, or None for a clean row,
    which a refused batch holds before its first bad row, or anywhere when finite cells overflow its sum."""
    for criterion, i in zip(matched, index):
        if i >= len(row):
            return ParseError(line, criterion, "missing value")
        try:
            if not math.isfinite(float(row[i])):
                return ParseError(line, criterion, "not a finite number")
        except ValueError:
            return ParseError(line, criterion)
    return None


def _csv(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Header and rows as CSV; the csv module writes each float as its repr, the shortest
    exact form, so reloading reproduces bit-identical doubles."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def dataset_to_csv(dataset: Dataset) -> str:
    """Serialize back to CSV, every value exactly; LengthMismatch for a column of the wrong length."""
    return _csv(("Player", *dataset.table), zip(dataset.names, *map(dataset.column, dataset.table)))


def load_reference_dataset(schema: CriteriaSchema | None = None) -> Dataset:
    """The bundled 29-player 2017/18 league snapshot (WhoScored, through Jan 31)."""
    if schema is None:
        schema = reference_schema()
    return load_dataset(Path(__file__).with_name("data") / _REFERENCE_CSV, schema)


def _extrema(column: Sequence[float], name: str) -> tuple[float, float]:
    """(min, max) of one raw column; NonFiniteSpread(name) if max - min is not finite or a
    cell is nan, MissingValue(name) if a cell is None or not numeric. The one max - min rule
    of normalize, validate and the SVG axes."""
    try:
        lo, hi = min(column), max(column)
        spread = hi - lo
        if math.isnan(sum(column)):  # a nan cell, which min and max step over unless it comes first
            spread = math.nan
    except TypeError:  # a None cell, which only a hand-built Dataset holds
        raise MissingValue(name) from None
    if not math.isfinite(spread):
        raise NonFiniteSpread(name)
    return lo, hi


def validate(dataset: Dataset) -> list[Violation]:
    """Check every dataset invariant; an empty list means the dataset is sound."""
    names = dataset.names
    violations = [Violation("DuplicatePlayer", name, "player name appears more than once")
                  for name, count in Counter(names).items() if count > 1]
    if len(names) < 2:
        violations.append(Violation("TooFewPlayers", f"{len(names)} player(s)",
                                    "min-max scaling needs at least 2 players"))

    for c in dataset.schema.included_names():
        column = dataset.table.get(c, (None,) * len(names))
        if len(column) != len(names):
            violations.append(Violation("LengthMismatch", c,
                                        f"{len(column)} values for {len(names)} players"))
            continue
        finite = []
        for name, v in zip(names, column):
            try:
                if math.isfinite(v):
                    finite.append(v)
                else:
                    violations.append(Violation("NonFiniteValue", f"{name}/{c}", f"value is {v!r}"))
            except TypeError:  # None, the missing value, or a cell that is not a number
                violations.append(Violation("MissingValue", f"{name}/{c}", "included criterion has no value"
                                            if v is None else f"value {v!r} is not a number"))
        if finite:
            try:
                _extrema(finite, c)
            except NonFiniteColumn as exc:
                violations.append(Violation(type(exc).__name__, c, exc.detail))
    return violations
