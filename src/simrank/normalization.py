"""Direction-aware min-max scaling of raw criterion values to [0, 1].

For a maximization criterion x maps to (x - min) / (max - min); for a
minimization criterion to (max - x) / (max - min), with min/max taken over
all players. Either way the best value in the column becomes 1 and the
worst becomes 0. A constant column would divide by zero: every player
gets 0 for it and the column is listed in ``degenerate``, since such a
column cannot discriminate between players anyway.

All arithmetic is double precision with no intermediate rounding; callers
round only for display.
"""

from __future__ import annotations

from typing import NamedTuple

from .dataset import Dataset, column_ranges
from .errors import InsufficientSamples, UnknownPlayer
from .schema import Direction


class NormalizedMatrix(NamedTuple):
    """Players x included-criteria grid of values scaled to [0, 1]."""

    players: tuple[str, ...]
    criteria: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]
    degenerate: tuple[str, ...] = ()

    def row(self, player: str) -> tuple[float, ...]:
        """All scaled values of one player, in criterion order."""
        try:
            return self.values[self.players.index(player)]
        except ValueError:
            raise UnknownPlayer(player) from None


def normalize(dataset: Dataset) -> NormalizedMatrix:
    """Scale every included criterion of a valid dataset to [0, 1].

    Player and criterion order are preserved. A constant column scales to 0
    for every player and is listed in ``degenerate``. Fewer than 2 players
    raise InsufficientSamples, and a column whose max - min is not finite
    raises NonFiniteSpread.
    """
    n = len(dataset.names)
    if n < 2:
        raise InsufficientSamples(f"min-max scaling needs at least 2 players, got {n}")
    ranges, constant = column_ranges(dataset)
    scaled = []
    for name, (lo, hi) in ranges.items():
        column, spread = dataset.column(name), hi - lo
        if name in constant:
            scaled.append([0.0] * n)
        elif dataset.schema.get(name).direction is Direction.MAXIMIZE:
            scaled.append([(x - lo) / spread for x in column])
        else:
            scaled.append([(hi - x) / spread for x in column])
    return NormalizedMatrix(dataset.names, tuple(ranges), tuple(zip(*scaled)), constant)
