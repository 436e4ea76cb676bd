"""Pearson, the least-squares fit and the t tail against scipy, an independent implementation;
skipped where scipy is not installed, which simrank itself never needs."""

import pytest

from helpers import transform_column
from simrank import correlation_matrix, least_squares_line, student_t_two_tailed

stats = pytest.importorskip("scipy.stats")

REL = 1e-13  # relative tolerance of every comparison


def test_every_rho_matches_pearsonr(reference_dataset, reference_correlations):
    criteria = reference_correlations.criteria
    for i, a in enumerate(criteria):
        for b in criteria[i + 1:]:
            want = stats.pearsonr(reference_dataset.column(a), reference_dataset.column(b)).statistic
            assert reference_correlations.cell(a, b).rho == pytest.approx(want, rel=REL, abs=0.0), (a, b)


@pytest.mark.parametrize("f", [1e-300, 1e-160, 1e154, 1e300])
def test_rho_and_fit_of_a_scaled_column_match_scipy(reference_dataset, f):
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
def test_two_tailed_p_matches_t_sf_up_to_one(df, rel):
    # 2000 log-spaced |t| from 1e-10 to 10: near 0, where p is near 1 and x = df/(df + t^2)
    # rounds towards 1, 1 - x must not be formed by subtraction
    ts = [10.0 ** (-10.0 + 11.0 * i / 1999) for i in range(2000)]
    for t, want in zip(ts, 2.0 * stats.t.sf(ts, df)):
        assert student_t_two_tailed(t, df) == pytest.approx(want, rel=rel, abs=0.0), t
