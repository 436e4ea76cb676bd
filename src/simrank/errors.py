"""Exception types raised by the simrank library.

Everything data-related derives from ``SimrankError`` so the CLI can map
any of them to a single "data error" exit code.
"""

from __future__ import annotations

import copyreg


class SimrankError(Exception):
    """Base class for all data and query errors."""

    def __reduce__(self):
        """Rebuilt from ``args`` and the instance fields without calling ``__init__``, whose
        parameters are not ``args``, so every subclass copies and pickles as it is."""
        return copyreg.__newobj__, (type(self), *self.args), vars(self)


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


class KOutOfRange(SimrankError):
    """A nearest-k or top-k request exceeds what the data can answer."""


class LengthMismatch(SimrankError):
    """Two distance vectors, two correlated columns, or a Dataset column and its players differ in length."""


class ConstantColumn(SimrankError):
    """A column is constant: a correlation with it, or a least-squares fit against it, is undefined."""

    def __init__(self, name: str = ""):
        label = f" {name!r}" if name else ""
        super().__init__(f"constant column{label}: zero variance")
        self.name = name


class MissingValue(SimrankError):
    """A column holds a cell that is not a number, such as None, the missing value that only
    a hand-built Dataset can hold; ``load_dataset`` never makes one."""

    def __init__(self, name: str):
        super().__init__(f"column {name!r}: missing or non-numeric value")
        self.name = name


class NonFiniteColumn(SimrankError):
    """A statistic of a whole column overflows a double; ``detail`` says which."""

    detail = "not finite"

    def __init__(self, name: str):
        super().__init__(f"column {name!r}: {self.detail}")
        self.name = name


class NonFiniteSpread(NonFiniteColumn):
    """A column's max - min is not finite: it overflows a double, or a cell is inf or nan."""

    detail = "max - min is not finite"


class NonFiniteTrend(NonFiniteColumn):
    """A least-squares slope or intercept overflows a double: no trend line against this x column."""

    detail = "least-squares trend is not finite"


class InsufficientSamples(SimrankError):
    """Too few observations: min-max scaling needs 2 players, the significance test n >= 3."""


class EmptySeries(SimrankError):
    """A scatter series without points cannot be rendered."""
