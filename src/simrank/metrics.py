"""Minkowski-family distances between players in scaled criterion space.

d_p(x, y) = (sum_k |x_k - y_k|^p)^(1/p) for finite p >= 1; p = 1 is the
Manhattan (taxicab) metric, p = 2 Euclidean. Accumulation uses math.fsum,
so the result does not depend on summation order.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple, Sequence, Union

from .errors import DimensionMismatch, UnknownPlayer
from .normalization import NormalizedMatrix


class MetricChoice(NamedTuple("_MetricChoice", [("p", float)])):
    """Distance exponent; p must be a finite real >= 1 for the triangle inequality."""

    __slots__ = ()

    def __new__(cls, p: float = 1.0):
        if not math.isfinite(p) or p < 1.0:
            raise ValueError(f"metric exponent must be finite and >= 1, got {p}")
        return super().__new__(cls, p)


MANHATTAN = MetricChoice(1.0)
EUCLIDEAN = MetricChoice(2.0)


class PlayerVector(NamedTuple):
    """One player's point in included-criterion space."""

    player: str
    coords: tuple[float, ...]


Vector = Union[PlayerVector, Sequence[float]]


def _coords(v: Vector) -> Sequence[float]:
    return v.coords if isinstance(v, PlayerVector) else v


def minkowski_distance(a: Vector, b: Vector, metric: MetricChoice = MANHATTAN) -> float:
    """(sum |a_k - b_k|^p)^(1/p); nonnegative and symmetric."""
    xs, ys = _coords(a), _coords(b)
    if len(xs) != len(ys):
        raise DimensionMismatch(f"vector lengths differ: {len(xs)} vs {len(ys)}")
    p = metric.p
    if p == 1.0:  # the same bits as below, since x ** 1.0 == x, from a C-level pipeline
        return math.fsum(map(abs, map(operator.sub, xs, ys)))
    total = math.fsum(abs(x - y) ** p for x, y in zip(xs, ys))
    return total ** (1.0 / p)


def manhattan_distance(a: Vector, b: Vector) -> float:
    """sum |a_k - b_k|: the p = 1 case, exact because x ** 1.0 == x."""
    return minkowski_distance(a, b, MANHATTAN)


def player_vector(matrix: NormalizedMatrix, player: str) -> PlayerVector:
    """Extract one player's scaled coordinates from the matrix."""
    return PlayerVector(player, matrix.row(player))


def distance_to_target(
    matrix: NormalizedMatrix, target: str, metric: MetricChoice = MANHATTAN
) -> dict[str, float]:
    """Distance from the target to every other player (target excluded)."""
    if target not in matrix.players:
        raise UnknownPlayer(target)
    origin = matrix.row(target)
    return {
        player: minkowski_distance(origin, matrix.values[i], metric)
        for i, player in enumerate(matrix.players)
        if player != target
    }
