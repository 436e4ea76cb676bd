"""Pearson, the least-squares fit, the t tail and the Minkowski distance against scipy, and the
incomplete beta and the t tail against mpmath at 40 digits, where scipy is the less accurate
side: independent implementations, each test skipped where its oracle is not installed, which
simrank itself never needs."""

import math
import random

import pytest

from helpers import transform_column
from simrank import (
    MetricChoice,
    correlation_matrix,
    least_squares_line,
    minkowski_distance,
    student_t_two_tailed,
)
from simrank.special import log_beta, regularized_incomplete_beta

REL = 1e-13  # relative tolerance of the scipy comparisons, unless a test gives its own


@pytest.fixture(scope="module")
def stats():
    return pytest.importorskip("scipy.stats")


@pytest.fixture(scope="module")
def mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def test_every_rho_matches_pearsonr(stats, reference_dataset, reference_correlations):
    criteria = reference_correlations.criteria
    for i, a in enumerate(criteria):
        for b in criteria[i + 1:]:
            want = stats.pearsonr(reference_dataset.column(a), reference_dataset.column(b)).statistic
            assert reference_correlations.cell(a, b).rho == pytest.approx(want, rel=REL, abs=0.0), (a, b)


@pytest.mark.parametrize("f", [1e-300, 1e-160, 1e154, 1e300])
def test_rho_and_fit_of_a_scaled_column_match_scipy(stats, reference_dataset, f):
    scaled = transform_column(reference_dataset, "KeyP", f, 0.0)
    xs, ys = scaled.column("KeyP"), scaled.column("AvPasses")
    rho = correlation_matrix(scaled).cell("KeyP", "AvPasses").rho
    assert rho == pytest.approx(stats.pearsonr(xs, ys).statistic, rel=REL, abs=0.0)
    # linregress's own sums over- or underflow at these scales, so it fits the unscaled
    # columns, and the slope of y on f * x is the slope of y on x divided by f
    fit = stats.linregress(reference_dataset.column("KeyP"), ys)
    slope, intercept = least_squares_line(xs, ys)
    assert slope == pytest.approx(fit.slope / f, rel=REL, abs=0.0)
    assert intercept == pytest.approx(fit.intercept, rel=REL, abs=0.0)


@pytest.mark.parametrize("df, rel", [(27, 1e-12), (998, 1e-12), (9998, 1e-10)])
def test_two_tailed_p_matches_t_sf_up_to_one(stats, df, rel):
    # 2000 log-spaced |t| from 1e-10 to 10: near 0, where p is near 1 and x = df/(df + t^2)
    # rounds towards 1, 1 - x must not be formed by subtraction
    ts = [10.0 ** (-10.0 + 11.0 * i / 1999) for i in range(2000)]
    for t, want in zip(ts, 2.0 * stats.t.sf(ts, df)):
        assert student_t_two_tailed(t, df) == pytest.approx(want, rel=rel, abs=0.0), t


def test_incomplete_beta_matches_mpmath_into_deep_tails(mpmath):
    """scipy's betainc is wrong by up to 100% in such tails (a = 372, b = 39, x = 0.13:
    I is 7.8e-279). With log_beta from lgamma alone the error grew with a + b, as the absolute
    error of lgamma(a + b) does, to 8.1e-12 on this grid; from Stirling differences it is 1.2e-13."""
    rng = random.Random(17)
    cases = [(372.0, 39.0, x) for x in (0.13, 0.135, 0.14)]
    for _ in range(400):
        a = math.exp(rng.uniform(math.log(0.3), math.log(5000.0)))
        b = math.exp(rng.uniform(math.log(0.3), math.log(63.0)))
        cases.append((a, b, rng.random()))
    tails = 0
    for a, b, x in cases:
        want = float(mpmath.betainc(a, b, 0, x, regularized=True))
        tails += 0.0 < want < 1e-100
        # below the smallest normal double the result keeps fewer bits, so compare absolutely
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            want, rel=5e-13, abs=2.0 ** -1022), (a, b, x)
    assert tails >= 30  # the grid reaches deep tails


def test_log_beta_matches_mpmath_on_both_sides_of_the_stirling_switch(mpmath):
    """Up to a = 20 log_beta adds three lgamma values; above, ln Gamma(a) - ln Gamma(a + b) comes
    from Stirling's series, whose truncation is largest just past the switch."""
    rng = random.Random(23)
    cases = [(a, 0.5) for a in (13.5, 19.999, 20.0, 20.001, 4999.0)]
    cases += [(math.exp(rng.uniform(math.log(0.3), math.log(5000.0))),
               math.exp(rng.uniform(math.log(0.3), math.log(63.0)))) for _ in range(400)]
    for a, b in cases:
        want = float(mpmath.log(mpmath.beta(a, b)))
        assert log_beta(a, b) == pytest.approx(want, rel=0.0, abs=5e-13), (a, b)
        assert log_beta(b, a) == log_beta(a, b)


@pytest.mark.parametrize("df", [1, 2, 5, 27])
def test_two_tailed_p_matches_mpmath(mpmath, df):
    """201 log-spaced |t| from 1e-10, where p is near 1 and scipy's 2 * t.sf(7.3e-9, 1) reads
    1.0 for 1 - 4.6e-9, to 1e10, where p reaches 1e-238 at df 27."""
    for i in range(201):
        t = 10.0 ** (-10.0 + 20.0 * i / 200)
        x = mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2)
        want = float(mpmath.betainc(mpmath.mpf(df) / 2, 0.5, 0, x, regularized=True))
        assert student_t_two_tailed(t, df) == pytest.approx(want, rel=1e-13, abs=0.0), t


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 7.5])
def test_minkowski_matches_scipy(reference_matrix, p):
    distance = pytest.importorskip("scipy.spatial.distance")
    rows = reference_matrix.values
    for i, u in enumerate(rows):
        for v in rows[i + 1:]:
            want = distance.minkowski(u, v, p)
            assert minkowski_distance(u, v, MetricChoice(p)) == pytest.approx(want, rel=1e-15, abs=0.0)
