"""The names `simrank` exports, pinned: each resolves lazily to the object its module defines."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import simrank

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = {  # defining module -> the names simrank re-exports from it
    "correlation": ["CorrelationCell", "CorrelationMatrix", "correlation_matrix", "least_squares_line",
                    "pearson", "significance_stars", "top_correlated_pairs", "two_tailed_p_value"],
    "dataset": ["Dataset", "PlayerRecord", "Violation", "dataset_to_csv", "load_dataset",
                "load_reference_dataset", "validate"],
    "errors": ["ConstantColumn", "DuplicatePlayer", "InsufficientSamples", "KOutOfRange", "LengthMismatch",
               "MissingColumn", "MissingValue", "NonFiniteColumn", "NonFiniteSpread", "NonFiniteTrend", "ParseError",
               "SimrankError", "UnknownCriterion", "UnknownPlayer"],
    "metrics": ["EUCLIDEAN", "MANHATTAN", "MetricChoice", "distance_to_target", "manhattan_distance",
                "minkowski_distance"],
    "normalization": ["NormalizedMatrix", "normalize"],
    "ranking": ["RankingEntry", "SimilarityRanking", "nearest_k", "rank_by_similarity"],
    "reports": ["ScatterSeries", "emit_ranking", "emit_scatter", "normalized_to_csv", "render_scatter_svg",
                "scatter_data"],
    "schema": ["CriteriaSchema", "CriterionSpec", "Direction", "reference_schema", "schema_from_json",
               "schema_to_json"],
    "special": ["regularized_incomplete_beta", "student_t_cdf", "student_t_two_tailed"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_exported_names_are_pinned():
    assert len(NAMES) == 56
    assert sorted(simrank.__all__) == NAMES


def test_every_error_class_is_exported():
    import simrank.errors

    defined = {name for name, obj in vars(simrank.errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == "simrank.errors"}
    assert defined <= set(simrank.__all__)


def test_each_name_is_its_defining_module_object():
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"simrank.{module}")
        for name in names:
            scope = {}
            exec(f"from simrank import {name}", scope)
            assert scope[name] is getattr(defining, name), name


# each public record type, built from the reference dataset
RECORDS = {
    "Dataset": lambda dataset: dataset,
    "NormalizedMatrix": lambda dataset: simrank.normalize(dataset),
    "SimilarityRanking": lambda dataset: simrank.rank_by_similarity(simrank.normalize(dataset), "Messi"),
    "CorrelationMatrix": lambda dataset: simrank.correlation_matrix(dataset),
    "CriteriaSchema": lambda dataset: dataset.schema,
    "MetricChoice": lambda dataset: simrank.EUCLIDEAN,
    "ScatterSeries": lambda dataset: simrank.scatter_data(dataset, "KeyP", "AvPasses", with_trend=True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_copies_pickles_and_rebuilds_from_its_fields(reference_dataset, name):
    record = RECORDS[name](reference_dataset)
    assert type(record) is getattr(simrank, name)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
                 type(record)(*record)):
        assert type(twin) is type(record)
        assert twin == record


ERRORS = [  # at least one instance of every SimrankError class, with and without fields
    simrank.SimrankError("any message"), simrank.MissingColumn("X"), simrank.ParseError(3, "SpG"),
    simrank.ParseError(1, "X", "duplicate column header"), simrank.DuplicatePlayer("a"),
    simrank.InsufficientSamples("CSV has no data rows"), simrank.UnknownCriterion("Games", "not included"),
    simrank.UnknownPlayer("Nobody"), simrank.LengthMismatch("vector lengths differ: 1 vs 2"),
    simrank.KOutOfRange("k must be between 1 and 28, got 99"), simrank.LengthMismatch("3 vs 4"),
    simrank.ConstantColumn(), simrank.ConstantColumn("KeyP"), simrank.MissingValue("X"),
    simrank.NonFiniteColumn("X"), simrank.NonFiniteSpread("X"), simrank.NonFiniteTrend("X"),
    simrank.InsufficientSamples("needs 2"),
]
ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               **{f"pickle-{protocol}": lambda error, protocol=protocol: pickle.loads(pickle.dumps(error, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)}}


def test_every_error_class_has_a_sample():
    import simrank.errors

    defined = {obj for obj in vars(simrank.errors).values()
               if isinstance(obj, type) and issubclass(obj, simrank.SimrankError)}
    assert defined == {type(error) for error in ERRORS}


@pytest.mark.parametrize("trip", ROUND_TRIPS)
def test_every_error_copies_and_pickles(trip):
    for error in ERRORS:
        twin = ROUND_TRIPS[trip](error)
        assert (type(twin), str(twin), twin.args, vars(twin)) == (type(error), str(error), error.args, vars(error))


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)


def test_dir_and_star_import_list_every_name():
    # dir() in a fresh process, before any name has been resolved and cached
    listed = set(_run("-c", "import simrank; print(*dir(simrank))").stdout.split())
    assert {*NAMES, *PUBLIC, "__version__"} <= listed
    scope = {}
    exec("from simrank import *", scope)
    assert {name: scope[name] for name in NAMES} == {name: getattr(simrank, name) for name in NAMES}


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        simrank.no_such_name
    with pytest.raises(ImportError):
        exec("from simrank import no_such_name", {})


def test_names_the_benchmark_tracer_reads_stay_live(monkeypatch):
    """perfbench/spans.py wraps `metrics.distance_to_target` and `normalization.normalize` in
    place and reads them back through `simrank.cli` and `simrank.ranking`."""
    loaded = _run("-c", "import sys, simrank.cli; print('simrank.normalization' in sys.modules)").stdout
    assert loaded.strip() == "False"
    import simrank.cli
    import simrank.metrics
    import simrank.normalization
    import simrank.ranking

    assert simrank.cli.normalize is simrank.normalization.normalize
    calls = []

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    original = simrank.metrics.distance_to_target
    monkeypatch.setattr(simrank.metrics, "distance_to_target", counted)
    assert simrank.ranking.distance_to_target is counted
    simrank.ranking.rank_by_similarity(simrank.normalization.normalize(simrank.load_reference_dataset()), "Messi")
    assert calls == ["Messi"]
    monkeypatch.undo()
    assert simrank.ranking.distance_to_target is original
    with pytest.raises(AttributeError, match="no_such_name"):
        simrank.cli.no_such_name
