"""Similarity rankings: all players ordered by ascending distance to a target.

Ties are broken by ascending player name so the ranking is deterministic
across runs and platforms. Distances are carried at full precision;
rounding happens only in the report layer.
"""

from __future__ import annotations

from typing import NamedTuple

from . import metrics
from .errors import KOutOfRange
from .metrics import MANHATTAN, MetricChoice
from .normalization import NormalizedMatrix


class RankingEntry(NamedTuple):
    rank: int
    player: str
    distance: float


class SimilarityRanking(NamedTuple):
    """Every non-target player, sorted by distance ascending; rank is 1-based."""

    target: str
    metric: MetricChoice
    entries: tuple[RankingEntry, ...]


def rank_by_similarity(
    matrix: NormalizedMatrix, target: str, metric: MetricChoice = MANHATTAN
) -> SimilarityRanking:
    """Rank all other players by ascending distance to ``target``."""
    distances = metrics.distance_to_target(matrix, target, metric)
    ordered = sorted(distances.items(), key=lambda item: (item[1], item[0]))
    entries = tuple(
        RankingEntry(rank, player, distance)
        for rank, (player, distance) in enumerate(ordered, start=1)
    )
    return SimilarityRanking(target, metric, entries)


def nearest_k(
    matrix: NormalizedMatrix, target: str, k: int, metric: MetricChoice = MANHATTAN
) -> list[RankingEntry]:
    """The k players most similar to ``target``; 1 <= k <= player count - 1."""
    limit = len(matrix.players) - 1
    if not 1 <= k <= limit:
        raise KOutOfRange(f"k must be between 1 and {limit}, got {k}")
    return list(rank_by_similarity(matrix, target, metric).entries[:k])


def __getattr__(name: str):
    """``distance_to_target`` is looked up in ``metrics`` on each use, never copied here, so a
    wrapper put on it (perfbench/spans.py) is seen, and then gone, whatever the import order."""
    if name == "distance_to_target":
        return metrics.distance_to_target
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
