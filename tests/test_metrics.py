import math
import random

import pytest

from golden import DISTANCE_TOLERANCE
from simrank import (
    EUCLIDEAN,
    MANHATTAN,
    LengthMismatch,
    MetricChoice,
    UnknownPlayer,
    distance_to_target,
    manhattan_distance,
    minkowski_distance,
)


def test_metric_exponent_must_be_at_least_one():
    with pytest.raises(ValueError):
        MetricChoice(0.5)
    with pytest.raises(ValueError):
        MetricChoice(math.inf)
    assert MetricChoice(1.5).p == 1.5


def test_identical_points_have_zero_distance():
    v = (0.2, 0.9, 0.4)
    assert minkowski_distance(v, v, MANHATTAN) == 0.0
    assert minkowski_distance(v, v, EUCLIDEAN) == 0.0


def test_unit_square_corners():
    a, b = (0.0, 0.0), (1.0, 1.0)
    assert minkowski_distance(a, b, MANHATTAN) == 2.0
    assert minkowski_distance(a, b, EUCLIDEAN) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_hand_computed_manhattan():
    a = (0.3, 0.7, 0.1)
    b = (0.5, 0.2, 0.4)
    assert minkowski_distance(a, b, MANHATTAN) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("p", [2.0, 3.0, 8.0])
def test_differences_whose_powers_underflow_keep_their_distance(p):
    a, b = (0.0, 0.0, 0.5), (1e-200, -1e-200, 0.5)  # 1e-200 ** p underflows to 0
    want = 2.0 ** (1.0 / p) * 1e-200
    assert minkowski_distance(a, b, MetricChoice(p)) == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("a, b", [([0.0], [1e200]), ([0.0, 0.0], [1e300, 1e300]), ([0.0, 3e200], [4e200, 0.0]),
                                  ([0.0, 0.0], [1e308, 1e308]), ([-1e154, 0.0], [1e154, 1e-300])])
def test_differences_whose_powers_overflow_keep_their_distance(a, b):
    """A power or the sum beyond the double range is taken again over the differences divided
    by the largest, so a finite distance comes out as math.hypot gives it."""
    assert minkowski_distance(a, b, EUCLIDEAN) == math.hypot(*map(float.__sub__, a, b))


@pytest.mark.parametrize("a, b, p", [([0.0, 0.0], [1e308, 1e308], 1.0), ([-1e308], [1e308], 1.0),
                                     ([-1e308], [1e308], 2.0), ([-1e308], [1e308], 3.0),
                                     ([0.0] * 4, [1e308] * 4, 2.0), ([0.0] * 9, [1e308] * 9, 3.0)])
def test_a_distance_beyond_the_double_range_is_inf(a, b, p):
    """The sum at p = 1, the difference itself, or the largest difference times n ** (1/p) overflows."""
    assert minkowski_distance(a, b, MetricChoice(p)) == math.inf


def test_dimension_mismatch():
    with pytest.raises(LengthMismatch, match="^vector lengths differ: 2 vs 1$"):
        manhattan_distance((1.0, 2.0), (1.0,))
    with pytest.raises(LengthMismatch, match="^vector lengths differ: 2 vs 1$"):
        minkowski_distance((1.0, 2.0), (1.0,), EUCLIDEAN)


def test_manhattan_equals_minkowski_p1():
    rng = random.Random(41)
    for _ in range(500):
        n = rng.randint(1, 17)
        a = [rng.random() for _ in range(n)]
        b = [rng.random() for _ in range(n)]
        assert abs(manhattan_distance(a, b) - minkowski_distance(a, b, MANHATTAN)) <= 1e-12


def test_axioms_sample():
    rng = random.Random(42)
    for metric in (MANHATTAN, EUCLIDEAN):
        for _ in range(300):
            x = [rng.random() for _ in range(17)]
            y = [rng.random() for _ in range(17)]
            z = [rng.random() for _ in range(17)]
            dxy = minkowski_distance(x, y, metric)
            assert dxy >= 0.0
            assert dxy == minkowski_distance(y, x, metric)
            assert dxy > 0.0  # random reals never collide
            assert minkowski_distance(x, z, metric) <= dxy + minkowski_distance(y, z, metric) + 1e-12


def test_permutation_invariance():
    rng = random.Random(43)
    x = [rng.random() for _ in range(17)]
    y = [rng.random() for _ in range(17)]
    order = list(range(17))
    rng.shuffle(order)
    xs = [x[i] for i in order]
    ys = [y[i] for i in order]
    for metric in (MANHATTAN, EUCLIDEAN):
        assert minkowski_distance(xs, ys, metric) == pytest.approx(
            minkowski_distance(x, y, metric), abs=1e-12
        )


def test_bundled_pairwise_distances(reference_matrix):
    messi = reference_matrix.row("Messi")
    coutinho = reference_matrix.row("Coutinho")
    lukaku = reference_matrix.row("Lukaku")
    assert manhattan_distance(messi, coutinho) == pytest.approx(3.769, abs=DISTANCE_TOLERANCE)
    assert manhattan_distance(messi, lukaku) == pytest.approx(7.489, abs=DISTANCE_TOLERANCE)


def test_manhattan_bound_on_unit_cube(reference_matrix):
    # each scaled coordinate contributes at most 1
    messi = reference_matrix.row("Messi")
    for other in reference_matrix.players:
        assert manhattan_distance(messi, reference_matrix.row(other)) <= 17.0


def test_distance_to_target_excludes_target(reference_matrix):
    distances = distance_to_target(reference_matrix, "Messi", MANHATTAN)
    assert len(distances) == 28
    assert "Messi" not in distances
    assert min(distances, key=distances.get) == "Coutinho"


def test_distance_to_target_ronaldo(reference_matrix):
    distances = distance_to_target(reference_matrix, "C. Ronaldo", MANHATTAN)
    assert distances["Aubameyang"] == pytest.approx(2.29, abs=DISTANCE_TOLERANCE)


def test_distance_to_target_unknown(reference_matrix):
    with pytest.raises(UnknownPlayer):
        distance_to_target(reference_matrix, "Nobody", MANHATTAN)


def test_manhattan_pipeline_matches_generic_formula():
    """p = 1 sums |x - y| directly; the result has the bits of the generic (sum |x - y|^p)^(1/p)."""
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randint(1, 30)
        xs = [rng.random() for _ in range(n)]
        ys = [rng.choice((0.0, 1.0, rng.random())) for _ in range(n)]
        generic = math.fsum(abs(x - y) ** 1.0 for x, y in zip(xs, ys)) ** (1.0 / 1.0)
        assert minkowski_distance(xs, ys, MANHATTAN) == generic
        assert manhattan_distance(tuple(xs), tuple(ys)) == generic
