import random

import pytest

from helpers import build_dataset, transform_column
from simrank import (
    UnknownPlayer,
    normalize,
)


def scaled(matrix, player, criterion):
    """One scaled value, read through the matrix's one accessor."""
    return matrix.row(player)[matrix.criteria.index(criterion)]


def test_messi_goals_pg_scaled_value(reference_matrix):
    value = scaled(reference_matrix, "Messi", "Goals pg")
    assert value == pytest.approx(0.86585, abs=1e-5)
    assert value == pytest.approx((0.95 - 0.24) / (1.06 - 0.24), abs=1e-12)


def test_best_value_maps_to_one_worst_to_zero(reference_dataset, reference_matrix):
    # maximization criterion: largest raw value scales to 1, smallest to 0
    assert scaled(reference_matrix, "C. Ronaldo", "SpG") == 1.0
    assert scaled(reference_matrix, "Neymar", "Goals pg") == 1.0
    assert scaled(reference_matrix, "D. Silva", "Goals pg") == 0.0
    # minimization criterion: largest raw value scales to 0, smallest to 1
    fouls = reference_dataset.column("Fouls")
    players = reference_dataset.names
    worst = players[fouls.index(max(fouls))]
    best = players[fouls.index(min(fouls))]
    assert scaled(reference_matrix, worst, "Fouls") == 0.0
    assert scaled(reference_matrix, best, "Fouls") == 1.0


def test_all_values_in_unit_interval(reference_matrix):
    for row in reference_matrix.values:
        for v in row:
            assert 0.0 <= v <= 1.0


def test_every_column_attains_both_ends(reference_matrix):
    for j, criterion in enumerate(reference_matrix.criteria):
        column = [row[j] for row in reference_matrix.values]
        assert min(column) == 0.0, criterion
        assert max(column) == 1.0, criterion


def test_monotonicity(reference_dataset, reference_matrix):
    players = reference_dataset.names

    def ordering(criterion):
        raw = reference_dataset.column(criterion)
        col = reference_matrix.criteria.index(criterion)
        scaled = [row[col] for row in reference_matrix.values]
        return raw, scaled

    raw, scaled = ordering("KeyP")  # maximize: raw order preserved
    for i in range(len(players)):
        for j in range(len(players)):
            if raw[i] < raw[j]:
                assert scaled[i] < scaled[j]

    raw, scaled = ordering("Disp")  # minimize: raw order reversed
    for i in range(len(players)):
        for j in range(len(players)):
            if raw[i] < raw[j]:
                assert scaled[i] > scaled[j]


def test_affine_invariance_sample(reference_dataset, reference_matrix):
    rng = random.Random(20180131)
    criteria = reference_dataset.schema.included_names()
    for _ in range(50):
        criterion = rng.choice(criteria)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-10.0, 10.0)
        shifted = normalize(transform_column(reference_dataset, criterion, a, b))
        for row, expected_row in zip(shifted.values, reference_matrix.values):
            for got, expected in zip(row, expected_row):
                assert abs(got - expected) <= 1e-12


def test_degenerate_column_scales_to_zero():
    dataset = build_dataset(["a", "b", "c"], {"X": [7, 7, 7], "Y": [1, 2, 3]})
    matrix = normalize(dataset)
    assert matrix.degenerate == ("X",)
    col = matrix.criteria.index("X")
    assert all(row[col] == 0.0 for row in matrix.values)


def test_order_preserved(reference_dataset, reference_matrix):
    assert reference_matrix.players == reference_dataset.names
    assert reference_matrix.criteria == reference_dataset.schema.included_names()


def test_matrix_accessor_errors(reference_matrix):
    with pytest.raises(UnknownPlayer):
        reference_matrix.row("Nobody")
    assert "Games" not in reference_matrix.criteria  # an excluded criterion has no scaled column
