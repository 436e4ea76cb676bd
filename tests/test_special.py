import math
import random

import pytest

from helpers import t_cdf_oracle_grid
from simrank import regularized_incomplete_beta, student_t_cdf, student_t_two_tailed


def test_incomplete_beta_edges():
    assert regularized_incomplete_beta(3.0, 0.5, 0.0) == 0.0
    assert regularized_incomplete_beta(3.0, 0.5, 1.0) == 1.0


def test_incomplete_beta_domain_errors():
    with pytest.raises(ValueError, match="a and b must be positive"):
        regularized_incomplete_beta(-1.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="a and b must be positive"):
        regularized_incomplete_beta(1.0, -0.5, 0.5)
    with pytest.raises(ValueError):
        regularized_incomplete_beta(1.0, 0.5, 1.5)


def test_incomplete_beta_symmetry():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.uniform(0.3, 30.0)
        b = rng.uniform(0.3, 30.0)
        x = rng.random()
        lhs = regularized_incomplete_beta(a, b, x)
        rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_incomplete_beta_uniform_case():
    # I_x(1, 1) is the uniform CDF
    for x in (0.1, 0.25, 0.5, 0.9):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)


def test_cdf_at_zero_is_half():
    for df in (1, 5, 27, 50):
        assert student_t_cdf(0.0, df) == 0.5


def test_cdf_symmetry():
    for df in (5, 27, 50):
        for t in (0.3, 1.0, 2.5, 6.0):
            assert student_t_cdf(-t, df) == pytest.approx(1.0 - student_t_cdf(t, df), abs=1e-14)


def test_cdf_monotone_in_t():
    for df in (5, 27, 50):
        previous = -1.0
        for i in range(-60, 61):
            value = student_t_cdf(i / 10.0, df)
            assert value > previous
            previous = value


def test_cdf_matches_integration_oracle():
    for df in (5, 27, 50):
        for t, expected in t_cdf_oracle_grid(df):
            assert student_t_cdf(t, df) == pytest.approx(expected, abs=1e-6)
            assert student_t_cdf(-t, df) == pytest.approx(1.0 - expected, abs=1e-6)


def test_two_tailed_matches_cdf():
    for df in (5, 27, 50):
        for t in (0.0, 0.5, 1.7, 4.2):
            expected = 2.0 * (1.0 - student_t_cdf(t, df))
            assert student_t_two_tailed(t, df) == pytest.approx(expected, abs=1e-14)
            assert student_t_two_tailed(-t, df) == student_t_two_tailed(t, df)


def test_two_tailed_extremes():
    assert student_t_two_tailed(0.0, 27) == 1.0
    assert student_t_two_tailed(1e8, 27) < 1e-12
    assert not math.isnan(student_t_two_tailed(1e8, 27))


def test_two_tailed_refuses_nan():
    with pytest.raises(ValueError, match="t must be a number, got nan"):
        student_t_two_tailed(math.nan, 5)


def test_positive_df_required():
    with pytest.raises(ValueError):
        student_t_cdf(1.0, 0.0)
