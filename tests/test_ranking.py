import pytest

from golden import DISTANCE_TOLERANCE, MESSI_RANKING, RONALDO_FARTHEST, RONALDO_NEAREST_3
from helpers import build_dataset, transform_column
from simrank import (
    Dataset,
    KOutOfRange,
    MANHATTAN,
    PlayerRecord,
    UnknownPlayer,
    nearest_k,
    normalize,
    rank_by_similarity,
)


def test_messi_ranking_matches_golden(reference_matrix):
    ranking = rank_by_similarity(reference_matrix, "Messi", MANHATTAN)
    assert [e.player for e in ranking.entries] == [name for name, _ in MESSI_RANKING]
    for entry, (_, expected) in zip(ranking.entries, MESSI_RANKING):
        assert entry.distance == pytest.approx(expected, abs=DISTANCE_TOLERANCE)


def test_ranks_are_consecutive_and_sorted(reference_matrix):
    ranking = rank_by_similarity(reference_matrix, "Messi")
    assert [e.rank for e in ranking.entries] == list(range(1, 29))
    distances = [e.distance for e in ranking.entries]
    assert distances == sorted(distances)


def test_ties_break_alphabetically():
    dataset = build_dataset(
        ["target", "zeta", "alpha"],
        {"X": [0.0, 1.0, 1.0], "Y": [0.0, 1.0, 1.0]},
    )
    ranking = rank_by_similarity(normalize(dataset), "target")
    assert [(e.rank, e.player) for e in ranking.entries] == [(1, "alpha"), (2, "zeta")]


def test_nearest_ronaldo(reference_matrix):
    entries = nearest_k(reference_matrix, "C. Ronaldo", 3, MANHATTAN)
    assert [e.player for e in entries] == [name for name, _ in RONALDO_NEAREST_3]
    for entry, (_, expected) in zip(entries, RONALDO_NEAREST_3):
        assert entry.distance == pytest.approx(expected, abs=DISTANCE_TOLERANCE)


def test_nearest_one_to_messi(reference_matrix):
    assert nearest_k(reference_matrix, "Messi", 1)[0].player == "Coutinho"


def test_farthest_from_ronaldo(reference_matrix):
    entries = nearest_k(reference_matrix, "C. Ronaldo", 28)
    assert entries[-1].player == RONALDO_FARTHEST


def test_k_bounds(reference_matrix):
    with pytest.raises(KOutOfRange):
        nearest_k(reference_matrix, "Messi", 0)
    with pytest.raises(KOutOfRange):
        nearest_k(reference_matrix, "Messi", 29)


def test_unknown_target(reference_matrix):
    with pytest.raises(UnknownPlayer):
        rank_by_similarity(reference_matrix, "Nobody")


def test_nearest_k_is_prefix_of_full_ranking(reference_matrix):
    full = rank_by_similarity(reference_matrix, "Messi").entries
    for k in (1, 5, 17, 28):
        assert tuple(nearest_k(reference_matrix, "Messi", k)) == full[:k]


def test_duplicate_of_target_ranks_first(reference_dataset):
    messi = reference_dataset.player("Messi")
    clone = PlayerRecord("Messi clone", dict(messi.values))
    extended = Dataset(reference_dataset.schema, reference_dataset.players + (clone,))
    before = rank_by_similarity(normalize(reference_dataset), "Messi")
    after = rank_by_similarity(normalize(extended), "Messi")
    assert after.entries[0].player == "Messi clone"
    assert after.entries[0].distance == 0.0
    # a duplicate never moves a column min/max, so everyone else is unchanged
    assert [(e.player, e.distance) for e in after.entries[1:]] == [
        (e.player, e.distance) for e in before.entries
    ]


def test_removing_any_other_player_keeps_winner(reference_dataset):
    # dropping a player can move column extrema, but never the winner
    for drop in reference_dataset.names:
        if drop in ("Messi", "Coutinho"):
            continue
        kept = tuple(p for p in reference_dataset.players if p.name != drop)
        ranking = rank_by_similarity(normalize(Dataset(reference_dataset.schema, kept)), "Messi")
        assert ranking.entries[0].player == "Coutinho", drop


def test_ranking_invariant_under_affine_column_change(reference_dataset, reference_matrix):
    baseline = rank_by_similarity(reference_matrix, "Messi")
    shifted = transform_column(reference_dataset, "KeyP", 3.7, -2.5)
    ranking = rank_by_similarity(normalize(shifted), "Messi")
    assert [e.player for e in ranking.entries] == [e.player for e in baseline.entries]
    for got, expected in zip(ranking.entries, baseline.entries):
        assert abs(got.distance - expected.distance) <= 1e-12
