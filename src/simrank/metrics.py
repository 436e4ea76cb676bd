"""Minkowski-family distances between players in scaled criterion space.

d_p(x, y) = (sum_k |x_k - y_k|^p)^(1/p) for finite p >= 1; p = 1 is the
Manhattan (taxicab) metric, p = 2 Euclidean. Accumulation uses math.fsum,
so the result does not depend on summation order.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import NamedTuple, Sequence

from .errors import LengthMismatch
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


def minkowski_distance(a: Sequence[float], b: Sequence[float],
                       metric: MetricChoice = MANHATTAN) -> float:
    """(sum |a_k - b_k|^p)^(1/p); nonnegative, symmetric, and positive for a != b: a sum that
    underflows or overflows is taken again over the differences divided by the largest, and a
    difference or distance beyond the double range is inf."""
    if len(a) != len(b):
        raise LengthMismatch(f"vector lengths differ: {len(a)} vs {len(b)}")
    p = metric.p
    if p == 1.0:  # the same bits as below, since x ** 1.0 == x, from a C-level pipeline
        try:
            return math.fsum(map(abs, map(operator.sub, a, b)))
        except OverflowError:  # finite differences whose sum overflows
            return math.inf
    try:
        total = math.fsum(abs(x - y) ** p for x, y in zip(a, b))
    except OverflowError:  # a power or the sum of finite differences overflows
        total = math.inf
    if not 2.0 ** -1022 <= total < math.inf:  # a == b, the powers underflowed, or they overflowed
        top = max(map(abs, map(operator.sub, a, b)), default=0.0)
        if 0.0 < top <= sys.float_info.max:  # divided by the largest difference, the largest term is 1
            return top * math.fsum((abs(x - y) / top) ** p for x, y in zip(a, b)) ** (1.0 / p)
    return total ** (1.0 / p)


def manhattan_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """sum |a_k - b_k|: the p = 1 case, exact because x ** 1.0 == x."""
    return minkowski_distance(a, b, MANHATTAN)


def distance_to_target(
    matrix: NormalizedMatrix, target: str, metric: MetricChoice = MANHATTAN
) -> dict[str, float]:
    """Distance from the target to every other player (target excluded)."""
    origin = matrix.row(target)
    return {
        player: minkowski_distance(origin, matrix.values[i], metric)
        for i, player in enumerate(matrix.players)
        if player != target
    }
