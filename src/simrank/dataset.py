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
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

from .errors import (
    DuplicatePlayer,
    EmptyDataset,
    MissingColumn,
    ParseError,
    UnknownCriterion,
    UnknownPlayer,
)
from .schema import CriteriaSchema, Source, _text_stream, reference_schema

_REFERENCE_CSV = "whoscored_2018.csv"


@dataclass(frozen=True)
class PlayerRecord:
    """One player's raw statistics, keyed by criterion name."""

    name: str
    values: dict[str, float]


@dataclass(frozen=True)
class Violation:
    """A broken dataset invariant, as a value rather than an exception."""

    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.subject}: {self.message}"


@dataclass(frozen=True)
class Dataset:
    """Immutable matrix of raw values under a governing schema."""

    schema: CriteriaSchema
    players: tuple[PlayerRecord, ...]

    def player_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.players)

    def player(self, name: str) -> PlayerRecord:
        for p in self.players:
            if p.name == name:
                return p
        raise UnknownPlayer(name)

    def columns(self) -> tuple[str, ...]:
        """Schema criteria actually carried by the records, in schema order."""
        if not self.players:
            return ()
        present = self.players[0].values.keys()
        return tuple(n for n in self.schema.names() if n in present)

    def column(self, name: str) -> list[float]:
        """Raw values of one criterion, in player order."""
        if name not in self.columns():
            raise UnknownCriterion(name, "criterion not in dataset")
        return [p.values[name] for p in self.players]


def _parse_cell(text: str, row: int, column: str) -> float:
    try:
        value = float(text.strip())
    except (TypeError, ValueError, AttributeError):
        raise ParseError(row, column) from None
    if not math.isfinite(value):
        raise ParseError(row, column, "not a finite number")
    return value


def load_dataset(source: Source, schema: CriteriaSchema) -> Dataset:
    """Read a CSV (path or open stream) into a Dataset under ``schema``.

    Players keep file order. Raises MissingColumn if an included criterion
    has no matching header, ParseError for non-numeric cells,
    DuplicatePlayer for repeated names, EmptyDataset if there are no data
    rows.
    """
    with _text_stream(source) as stream:
        return _read_rows(stream, schema)


def _read_rows(stream: IO[str], schema: CriteriaSchema) -> Dataset:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDataset("CSV has no header row") from None
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

    players: list[PlayerRecord] = []
    seen: set[str] = set()
    for line, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        name = row[0].strip()
        if not name:
            raise ParseError(line, "Player", "empty player name")
        if name in seen:
            raise DuplicatePlayer(name)
        seen.add(name)
        values = {}
        for criterion in matched:
            idx = col_index[criterion]
            if idx >= len(row):
                raise ParseError(line, criterion, "missing value")
            values[criterion] = _parse_cell(row[idx], line, criterion)
        players.append(PlayerRecord(name, values))

    if not players:
        raise EmptyDataset("CSV has no data rows")
    return Dataset(schema, tuple(players))


def dataset_to_csv(dataset: Dataset) -> str:
    """Serialize back to CSV; values use the shortest exact float form,
    so reloading reproduces bit-identical doubles."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    columns = dataset.columns()
    writer.writerow(["Player", *columns])
    for p in dataset.players:
        writer.writerow([p.name, *(repr(p.values[c]) for c in columns)])
    return out.getvalue()


def load_reference_dataset(schema: CriteriaSchema | None = None) -> Dataset:
    """The bundled 29-player 2017/18 league snapshot (WhoScored, through Jan 31)."""
    if schema is None:
        schema = reference_schema()
    return load_dataset(Path(__file__).with_name("data") / _REFERENCE_CSV, schema)


def _duplicates(names: Iterable[str]) -> list[str]:
    seen: set[str] = set()
    dupes: list[str] = []
    for n in names:
        if n in seen and n not in dupes:
            dupes.append(n)
        seen.add(n)
    return dupes


def validate(dataset: Dataset) -> list[Violation]:
    """Check every dataset invariant; an empty list means the dataset is sound."""
    violations: list[Violation] = []
    for name in _duplicates(p.name for p in dataset.players):
        violations.append(Violation("DuplicatePlayer", name, "player name appears more than once"))
    if len(dataset.players) < 2:
        violations.append(
            Violation("TooFewPlayers", f"{len(dataset.players)} player(s)",
                      "min-max scaling needs at least 2 players")
        )
    included = dataset.schema.included_names()
    for p in dataset.players:
        for criterion in included:
            if criterion not in p.values:
                violations.append(Violation("MissingValue", f"{p.name}/{criterion}",
                                            "included criterion has no value"))
            elif not math.isfinite(p.values[criterion]):
                violations.append(Violation("NonFiniteValue", f"{p.name}/{criterion}",
                                            f"value is {p.values[criterion]!r}"))
    return violations
