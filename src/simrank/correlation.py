"""Pearson correlation across criteria, with two-tailed significance labels.

Correlations are computed on RAW values of the included criteria, not on
scaled ones: scaling is a positive affine map for maximization criteria
(correlation unchanged) but flips the sign for minimization criteria,
which would hide genuinely positive relationships such as
dispossessions vs dribbles.

Significance uses the exact t-test for a correlation coefficient,
t = rho * sqrt((n - 2) / (1 - rho^2)) with n - 2 degrees of freedom.
Stars follow the usual ladder: *** for p <= 0.01, ** for p <= 0.05,
* for p <= 0.10.
"""

from __future__ import annotations

import math
import operator
from array import array
from typing import NamedTuple, Sequence

from .dataset import Dataset
from .errors import (ConstantColumn, InsufficientSamples, KOutOfRange, LengthMismatch, NonFiniteSpread,
                     NonFiniteTrend, UnknownCriterion)
from .special import student_t_two_tailed


class CorrelationCell(NamedTuple):
    """One criterion pair: Pearson rho, two-tailed p-value, significance label.

    An undefined cell (a constant column is involved) carries NaN for rho
    and p_value and an empty stars label.
    """

    criterion_a: str
    criterion_b: str
    rho: float
    p_value: float
    stars: str

    @property
    def defined(self) -> bool:
        return not math.isnan(self.rho)


class CorrelationMatrix(NamedTuple):
    """Symmetric grid of correlation cells with a unit diagonal."""

    criteria: tuple[str, ...]
    cells: tuple[tuple[CorrelationCell, ...], ...]

    def cell(self, a: str, b: str) -> CorrelationCell:
        try:
            i = self.criteria.index(a)
        except ValueError:
            raise UnknownCriterion(a) from None
        try:
            j = self.criteria.index(b)
        except ValueError:
            raise UnknownCriterion(b) from None
        return self.cells[i][j]


def _moments(xs: Sequence[float]) -> tuple[float, list[float], float]:
    mean = math.fsum(xs) / len(xs)
    deviations = [x - mean for x in xs]
    return mean, deviations, math.fsum(map(operator.mul, deviations, deviations))


def _centre(xs: Sequence[float], name: str) -> tuple[float, array, float, int]:
    """Mean, deviations from it, their sum of squares, and k, where 2**k scales the last two.
    k is 0 unless an fsum overflows or the sum leaves [2**-500, 2**500]; the column is then
    centred again as x * 2**k, with max |x| * 2**k in [0.5, 1). That is exact, Pearson and the
    least-squares slope are scale-free, and every later sum, root and product stays in range.
    The mean is unscaled. NonFiniteSpread(name) for a column holding inf or nan. The deviations
    come back packed, 8 bytes each against a list's 32, as correlation_matrix holds every column
    at once; it unpacks one row's at a time, since iterating a list, unlike an array, boxes no float.
    """
    try:
        mean, deviations, ss = _moments(xs)
    except (OverflowError, ValueError):  # a partial overflowed, or inf met -inf
        ss = math.inf
    k = 0
    if not 2.0 ** -500 <= ss <= 2.0 ** 500:  # nan included, and 0, which an underflow gives
        top = max(map(abs, xs))  # max() steps over a nan cell unless it comes first
        if 0.0 < top < math.inf:  # else all zeros, left as they are, or inf or nan, refused below
            k = -math.frexp(top)[1]
            mean, deviations, ss = _moments([math.ldexp(x, k) for x in xs])
        if not math.isfinite(ss):
            raise NonFiniteSpread(name)
    return math.ldexp(mean, -k), array("d", deviations), ss, k


def _rho(x: tuple[float, Sequence[float], float, int], y: tuple[float, Sequence[float], float, int]) -> float:
    """Pearson rho of two columns already centred by ``_centre``."""
    (_, dx, ss_x, _), (_, dy, ss_y, _) = x, y
    if ss_x == 0.0 or ss_y == 0.0:
        raise ConstantColumn()
    rho = math.fsum(map(operator.mul, dx, dy)) / math.sqrt(ss_x * ss_y)
    # rounding can push an exactly collinear pair a hair past +-1
    return max(-1.0, min(1.0, rho))


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length columns."""
    if len(xs) != len(ys):
        raise LengthMismatch(f"column lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        raise InsufficientSamples(f"need at least 3 paired values, got {len(xs)}")
    return _rho(_centre(xs, "x"), _centre(ys, "y"))


def least_squares_line(xs: Sequence[float], ys: Sequence[float],
                       names: tuple[str, str] = ("x", "y")) -> tuple[float, float]:
    """Ordinary least squares fit y = slope * x + intercept; errors name the columns ``names``,
    and NonFiniteTrend names the x column when the slope or intercept overflows."""
    if len(xs) != len(ys):
        raise LengthMismatch(f"column lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise InsufficientSamples(f"need at least 2 paired values, got {len(xs)}")
    (mean_x, dx, ss_x, kx), (mean_y, dy, _, ky) = _centre(xs, names[0]), _centre(ys, names[1])
    if ss_x == 0.0:
        raise ConstantColumn(names[0])
    try:  # ldexp undoes the scales of dx, dy and ss_x, and raises where inf would come out
        slope = math.ldexp(math.fsum(map(operator.mul, dx, dy)) / ss_x, kx - ky)
        intercept = mean_y - slope * mean_x
        if math.isfinite(intercept):
            return slope, intercept
    except OverflowError:
        pass
    raise NonFiniteTrend(names[0])


def two_tailed_p_value(rho: float, n: int) -> float:
    """Two-tailed p-value of a sample correlation under the null rho = 0.

    Equivalent to 2 * (1 - F_t(|t|; n - 2)) for t = rho * sqrt((n-2)/(1-rho^2));
    monotone decreasing in |rho| for fixed n.
    """
    if n < 3:
        raise InsufficientSamples(f"need n >= 3, got {n}")
    if abs(rho) > 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if abs(rho) == 1.0:
        return 0.0
    df = n - 2
    t = rho * math.sqrt(df / (1.0 - rho * rho))
    return student_t_two_tailed(t, df)


def significance_stars(p_value: float) -> str:
    """Label a p-value: '***' <= 0.01 < '**' <= 0.05 < '*' <= 0.10 < ''."""
    if math.isnan(p_value):
        return ""
    if p_value <= 0.01:
        return "***"
    if p_value <= 0.05:
        return "**"
    if p_value <= 0.10:
        return "*"
    return ""


def correlation_matrix(dataset: Dataset) -> CorrelationMatrix:
    """Full symmetric correlation matrix over the raw included criteria."""
    n = len(dataset.names)
    if n < 3:
        raise InsufficientSamples(f"need at least 3 paired values, got {n}")
    criteria = dataset.schema.included_names()
    centred = [_centre(dataset.column(c), c) for c in criteria]

    grid: list[list[CorrelationCell]] = []
    for i, a in enumerate(criteria):
        mean, deviations, ss, k = centred[i]
        x = (mean, deviations.tolist(), ss, k)  # the one unpacked column, see _centre
        row: list[CorrelationCell] = []
        for j, b in enumerate(criteria):
            if i == j:
                row.append(CorrelationCell(a, b, 1.0, 0.0, "***"))
            elif j < i:
                mirror = grid[j][i]
                row.append(CorrelationCell(a, b, mirror.rho, mirror.p_value, mirror.stars))
            else:
                try:
                    rho = _rho(x, centred[j])
                except ConstantColumn:
                    row.append(CorrelationCell(a, b, math.nan, math.nan, ""))
                    continue
                p = two_tailed_p_value(rho, n)
                row.append(CorrelationCell(a, b, rho, p, significance_stars(p)))
        grid.append(row)
        del x  # before the next row unpacks its own column
    return CorrelationMatrix(criteria, tuple(tuple(r) for r in grid))


def top_correlated_pairs(matrix: CorrelationMatrix, k: int) -> list[CorrelationCell]:
    """The k off-diagonal pairs with largest |rho|, ties broken by pair name."""
    pairs = [
        matrix.cells[i][j]
        for i in range(len(matrix.criteria))
        for j in range(i + 1, len(matrix.criteria))
        if matrix.cells[i][j].defined
    ]
    if not 0 <= k <= len(pairs):
        raise KOutOfRange(f"k must be between 0 and {len(pairs)}, got {k}")
    pairs.sort(key=lambda c: (-abs(c.rho), c.criterion_a, c.criterion_b))
    return pairs[:k]
