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

The deviations of every centred column are held packed, and ``_cross_sums``
unpacks one row's at a time for the pair sums of ``correlation_matrix``. On
a large table both phases split across two processes (``_split``): a forked
child centres the later half of the columns, and then, if enough pairs of
columns vary, a second one computes the later half of the pair sums. Each
copies its doubles into memory shared with the parent, so the matrix is the
same bit for bit.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from array import array
from itertools import chain
from typing import NamedTuple, Sequence

from .dataset import Dataset
from .errors import (ConstantColumn, InsufficientSamples, KOutOfRange, LengthMismatch, MissingValue,
                     NonFiniteSpread, NonFiniteTrend, UnknownCriterion)
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
        for name in (a, b):
            if name not in self.criteria:
                raise UnknownCriterion(name)
        return self.cells[self.criteria.index(a)][self.criteria.index(b)]


def _moments(xs: Sequence[float]) -> tuple[float, list[float], float]:
    mean = math.fsum(xs) / len(xs)
    deviations = [x - mean for x in xs]
    return mean, deviations, math.fsum(map(operator.mul, deviations, deviations))


def _centre(xs: Sequence[float], name: str) -> tuple[float, array, float, int]:
    """Mean, deviations from it, their sum of squares, and k, where 2**k scales the last two.
    A finite constant column comes back at once, its cell the mean (which fsum / n may round
    off), every deviation 0 and k 0. Otherwise k is 0 unless an fsum overflows or the sum leaves
    [2**-500, 2**500]; the column is then centred again as x * 2**k, with max |x| * 2**k in
    [0.5, 1). That is exact, Pearson and the least-squares slope are scale-free, and every
    later sum, root and product stays in range.
    The mean is unscaled. NonFiniteSpread(name) for a column holding inf or nan, and
    MissingValue(name) for one holding a cell that is not a number. The deviations come back
    packed, 8 bytes each against a list's 32, as correlation_matrix holds every column at once;
    _cross_sums unpacks one row's at a time, since iterating a list, unlike an array, boxes no
    float.
    """
    k = 0
    try:  # a None cell, which only a hand-built Dataset holds, raises TypeError in any pass
        first = xs[0]
        if math.isfinite(first) and all(x == first for x in xs):
            return first, array("d", [0.0]) * len(xs), 0.0, 0
        try:
            mean, deviations, ss = _moments(xs)
        except (OverflowError, ValueError):  # a partial overflowed, or inf met -inf
            ss = math.inf
        if not 2.0 ** -500 <= ss <= 2.0 ** 500:  # nan included, and 0, which an underflow gives
            top = max(map(abs, xs))  # max() steps over a nan cell unless it comes first
            if top < math.inf:  # else inf or nan, refused below
                k = -math.frexp(top)[1]
                mean, deviations, ss = _moments([math.ldexp(x, k) for x in xs])
    except TypeError:
        raise MissingValue(name) from None
    if not math.isfinite(ss):
        raise NonFiniteSpread(name)
    return math.ldexp(mean, -k), array("d", deviations), ss, k


def _rho(cross: float, ss_x: float, ss_y: float) -> float:
    """Pearson rho from the sum of deviation products and the two sums of squares of two
    non-constant columns centred by ``_centre``."""
    # rounding can push an exactly collinear pair a hair past +-1
    return max(-1.0, min(1.0, cross / math.sqrt(ss_x * ss_y)))


def _centre_pair(xs: Sequence[float], ys: Sequence[float], least: int,
                 names: tuple[str, str]) -> tuple[tuple[float, array, float, int], ...]:
    """``_centre`` of both columns, once they have the same length and at least ``least`` values."""
    if len(xs) != len(ys):
        raise LengthMismatch(f"column lengths differ: {len(xs)} vs {len(ys)}")
    if len(xs) < least:
        raise InsufficientSamples(f"need at least {least} paired values, got {len(xs)}")
    return _centre(xs, names[0]), _centre(ys, names[1])


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient of two equal-length columns."""
    (_, dx, ss_x, _), (_, dy, ss_y, _) = _centre_pair(xs, ys, 3, ("x", "y"))
    if ss_x == 0.0 or ss_y == 0.0:
        raise ConstantColumn()
    return _rho(math.fsum(map(operator.mul, dx, dy)), ss_x, ss_y)


def least_squares_line(xs: Sequence[float], ys: Sequence[float],
                       names: tuple[str, str] = ("x", "y")) -> tuple[float, float]:
    """Ordinary least squares fit y = slope * x + intercept; errors name the columns ``names``,
    and NonFiniteTrend names the x column when the slope or intercept overflows."""
    (mean_x, dx, ss_x, kx), (mean_y, dy, _, ky) = _centre_pair(xs, ys, 2, names)
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


# The fewest deviation products for which correlation_matrix forks: rows times pairs of included
# criteria to centre half the columns, and rows times the pairs it sums (those of two varying
# columns) for half the pair sums, so columns that are nearly all constant fork no pair phase. At
# about 90 ns a product and 165 ns a centred cell, 1 << 20 products at 17 criteria take about 95 ms
# of pair sums and 20 ms of centring serially, against 2-3 ms for each fork, copy and wait, so a
# host that runs only one of the CPUs at a time costs the forked call about 5%.
_FORK_MIN_PRODUCTS = 1 << 20


def _cross_sums(deviations: list[array], pairs: list[tuple[int, int]]) -> array:
    """fsum of the products of deviations[i] and deviations[j] for each pair (i, j). The pairs
    come in row order, so row i's deviations are unpacked once, and one row at a time."""
    sums = array("d")
    row, x = -1, None
    for i, j in pairs:
        if i != row:
            x = None  # before the next row unpacks its own column
            row, x = i, deviations[i].tolist()
        sums.append(math.fsum(map(operator.mul, x, deviations[j])))
    return sums


def _split(work, jobs: Sequence, lengths, fork: bool) -> list[array]:
    """``work(jobs)``, a list of array('d'), with the later half of the jobs worked in one forked
    child if ``fork``; ``lengths(later)`` gives the length of each array ``work(later)`` returns.
    The child writes its arrays in turn into an anonymous shared mapping and exits 0 only after
    the last, and each comes back here as its own array, so the result is the same bit for bit.
    If the mapping or the fork fails the jobs run here, and if the child exits otherwise (it
    raised, died or was killed) this process works its half too, so an error in that half is
    raised as the serial call raises it."""
    half = len(jobs) // 2
    later = jobs[half:]
    if fork:
        import mmap  # only a forking call needs it
        sizes = [8 * length for length in lengths(later)]
        try:
            shared = mmap.mmap(-1, max(sum(sizes), 1))  # a mapping cannot be empty
            pid = os.fork()
        except OSError:
            fork = False
    if not fork:
        return work(jobs)
    if pid == 0:  # the child: write its arrays and leave, with no stdio flush and no atexit
        try:
            for doubles in work(later):
                shared.write(doubles)
            os._exit(0)
        finally:  # reached only if the work or a write raised
            os._exit(1)
    with shared:
        try:
            done = work(jobs[:half])
        finally:
            _, status = os.waitpid(pid, 0)
        if status != 0:
            return done + work(later)
        for size in sizes:
            done.append(array("d"))
            done[-1].frombytes(shared.read(size))
    return done


def correlation_matrix(dataset: Dataset) -> CorrelationMatrix:
    """Full symmetric correlation matrix over the raw included criteria."""
    n = len(dataset.names)
    if n < 3:
        raise InsufficientSamples(f"need at least 3 paired values, got {n}")
    criteria = dataset.schema.included_names()
    # a forked child pays on two or more CPUs and a large table, and is unsafe in a threaded process
    affinity = getattr(os, "sched_getaffinity", None)
    fork = (n * len(criteria) * (len(criteria) - 1) // 2 >= _FORK_MIN_PRODUCTS
            and threading.active_count() == 1 and affinity is not None and len(affinity(0)) >= 2)

    def centre(names: Sequence[str]) -> list[array]:
        """Each column's sum of squares, as an array of one, then its deviations."""
        out = []
        for c in names:
            _, deviations, ss, _ = _centre(dataset.column(c), c)
            out += array("d", [ss]), deviations
        return out

    centred = _split(centre, criteria, lambda names: [1, n] * len(names), fork)
    sums_of_squares, deviations = [ss[0] for ss in centred[::2]], centred[1::2]
    varying = [i for i, ss in enumerate(sums_of_squares) if ss != 0.0]
    pairs = [(i, j) for k, i in enumerate(varying) for j in varying[k + 1:]]
    sums = _split(lambda part: [_cross_sums(deviations, part)], pairs, lambda part: [len(part)],
                  fork and n * len(pairs) >= _FORK_MIN_PRODUCTS)

    # (rho, p-value, stars) of each cell; a pair with a constant column stays undefined
    stats = [[(math.nan, math.nan, "")] * len(criteria) for _ in criteria]
    for i, row in enumerate(stats):
        row[i] = (1.0, 0.0, "***")
    for (i, j), cross in zip(pairs, chain.from_iterable(sums)):
        rho = _rho(cross, sums_of_squares[i], sums_of_squares[j])
        p = two_tailed_p_value(rho, n)
        stats[i][j] = stats[j][i] = (rho, p, significance_stars(p))
    return CorrelationMatrix(criteria, tuple(
        tuple(CorrelationCell(a, b, rho, p, stars) for b, (rho, p, stars) in zip(criteria, row))
        for a, row in zip(criteria, stats)))


def top_correlated_pairs(matrix: CorrelationMatrix, k: int) -> list[CorrelationCell]:
    """The k off-diagonal pairs with largest |rho|, ties broken by pair name."""
    pairs = [cell for i, row in enumerate(matrix.cells) for cell in row[i + 1:] if cell.defined]
    if not 0 <= k <= len(pairs):
        raise KOutOfRange(f"k must be between 0 and {len(pairs)}, got {k}")
    pairs.sort(key=lambda c: (-abs(c.rho), c.criterion_a, c.criterion_b))
    return pairs[:k]
