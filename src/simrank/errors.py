"""Exception types raised by the simrank library.

Everything data-related derives from ``SimrankError`` so the CLI can map
any of them to a single "data error" exit code.
"""

from __future__ import annotations


class SimrankError(Exception):
    """Base class for all data and query errors."""


class MissingColumn(SimrankError):
    """A required criterion has no matching column in the CSV header."""

    def __init__(self, name: str):
        super().__init__(f"missing column: {name!r}")
        self.name = name


class ParseError(SimrankError):
    """A cell could not be parsed as a finite number.

    ``row`` is the 1-based line number in the CSV (the header is line 1),
    ``column`` the offending column header.
    """

    def __init__(self, row: int, column: str, detail: str = "not a number"):
        super().__init__(f"row {row}, column {column!r}: {detail}")
        self.row = row
        self.column = column


class DuplicatePlayer(SimrankError):
    """The same player name appears more than once."""

    def __init__(self, name: str):
        super().__init__(f"duplicate player: {name!r}")
        self.name = name


class EmptyDataset(SimrankError):
    """The CSV contains a header but no data rows."""


class UnknownCriterion(SimrankError):
    """A criterion name is not part of the schema (or not included)."""

    def __init__(self, name: str, detail: str = "unknown criterion"):
        super().__init__(f"{detail}: {name!r}")
        self.name = name


class UnknownPlayer(SimrankError):
    """A player name does not occur in the dataset or matrix."""

    def __init__(self, name: str):
        super().__init__(f"unknown player: {name!r}")
        self.name = name


class DimensionMismatch(SimrankError):
    """Two vectors passed to a distance function differ in length."""


class KOutOfRange(SimrankError):
    """A nearest-k or top-k request exceeds what the data can answer."""


class LengthMismatch(SimrankError):
    """Two value columns passed to a correlation differ in length."""


class ConstantColumn(SimrankError):
    """A column is constant, so its correlation is undefined."""

    def __init__(self, name: str = ""):
        label = f" {name!r}" if name else ""
        super().__init__(f"constant column{label}: correlation undefined")
        self.name = name


class InsufficientSamples(SimrankError):
    """Too few observations: min-max scaling needs 2 players, the significance test n >= 3."""


class EmptySeries(SimrankError):
    """A scatter series without points cannot be rendered."""


class DegenerateColumnWarning(UserWarning):
    """A criterion column is constant; all its scaled values are set to 0."""
