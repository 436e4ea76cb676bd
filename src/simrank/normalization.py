"""Direction-aware min-max scaling of raw criterion values to [0, 1].

For a maximization criterion x maps to (x - min) / (max - min); for a
minimization criterion to (max - x) / (max - min), with min/max taken over
all players. Either way the best value in the column becomes 1 and the
worst becomes 0. A constant column would divide by zero: every player
gets 0 for it and a DegenerateColumnWarning is emitted, since such a
column cannot discriminate between players anyway.

All arithmetic is double precision with no intermediate rounding; callers
round only for display.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from .dataset import Dataset
from .errors import DegenerateColumnWarning, InsufficientSamples, UnknownCriterion, UnknownPlayer
from .schema import Direction


@dataclass(frozen=True)
class ColumnExtrema:
    """Exact minimum and maximum of one raw column."""

    criterion: str
    f_min: float
    f_max: float


@dataclass(frozen=True)
class NormalizedMatrix:
    """Players x included-criteria grid of values scaled to [0, 1]."""

    players: tuple[str, ...]
    criteria: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    extrema: tuple[ColumnExtrema, ...] = field(repr=False)
    degenerate: tuple[str, ...] = ()

    def row(self, player: str) -> tuple[float, ...]:
        """All scaled values of one player, in criterion order."""
        try:
            return self.values[self.players.index(player)]
        except ValueError:
            raise UnknownPlayer(player) from None

    def value(self, player: str, criterion: str) -> float:
        try:
            return self.row(player)[self.criteria.index(criterion)]
        except ValueError:
            raise UnknownCriterion(criterion) from None

    def extrema_for(self, criterion: str) -> ColumnExtrema:
        for e in self.extrema:
            if e.criterion == criterion:
                return e
        raise UnknownCriterion(criterion)


def column_extrema(dataset: Dataset, criterion: str) -> ColumnExtrema:
    """Min and max of an included criterion's raw column over all players."""
    if criterion not in dataset.schema.included_names():
        raise UnknownCriterion(criterion, "criterion not included in schema")
    column = dataset.column(criterion)
    return ColumnExtrema(criterion, min(column), max(column))


def normalize(dataset: Dataset) -> NormalizedMatrix:
    """Scale every included criterion of a valid dataset to [0, 1].

    Player and criterion order are preserved. Constant columns trigger a
    DegenerateColumnWarning and scale to 0 for every player. Fewer than 2
    players raise InsufficientSamples.
    """
    if len(dataset.players) < 2:
        raise InsufficientSamples("min-max scaling needs at least 2 players, "
                                  f"got {len(dataset.players)}")
    criteria = dataset.schema.included_names()
    columns = [dataset.column(c) for c in criteria]
    extrema = tuple(ColumnExtrema(c, min(col), max(col)) for c, col in zip(criteria, columns))
    degenerate = tuple(e.criterion for e in extrema if e.f_min == e.f_max)
    for name in degenerate:
        warnings.warn(f"column {name!r} is constant; scaled to 0 for all players",
                      DegenerateColumnWarning, stacklevel=2)

    scaled = []
    for e, column in zip(extrema, columns):
        lo, hi = e.f_min, e.f_max
        spread = hi - lo
        if spread == 0.0:
            scaled.append([0.0] * len(column))
        elif dataset.schema.get(e.criterion).direction is Direction.MAXIMIZE:
            scaled.append([(x - lo) / spread for x in column])
        else:
            scaled.append([(hi - x) / spread for x in column])
    return NormalizedMatrix(dataset.player_names(), criteria, tuple(zip(*scaled)), extrema, degenerate)
