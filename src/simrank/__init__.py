"""simrank: rank football players by statistical similarity to a target.

Raw per-game statistics are scaled to [0, 1] with direction-aware min-max
scaling, players become points in included-criterion space, and similarity
is distance under a Minkowski metric (Manhattan by default). The package
also computes the Pearson correlation structure of the criteria and ships
a 29-player 2017/18 league snapshot as its reference dataset. The names
listed below are the public API; each loads its module on first use
(PEP 562), so a caller pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # module -> the public names it defines
    "correlation": "CorrelationCell CorrelationMatrix correlation_matrix least_squares_line pearson "
                   "significance_stars top_correlated_pairs two_tailed_p_value",
    "dataset": "Dataset PlayerRecord Violation dataset_to_csv load_dataset load_reference_dataset validate",
    "errors": "ConstantColumn DuplicatePlayer InsufficientSamples KOutOfRange LengthMismatch MissingColumn "
              "MissingValue NonFiniteColumn NonFiniteSpread NonFiniteTrend ParseError SimrankError "
              "UnknownCriterion UnknownPlayer",
    "metrics": "EUCLIDEAN MANHATTAN MetricChoice distance_to_target manhattan_distance minkowski_distance",
    "normalization": "NormalizedMatrix normalize",
    "ranking": "RankingEntry SimilarityRanking nearest_k rank_by_similarity",
    "reports": "ScatterSeries emit_ranking emit_scatter normalized_to_csv "
               "render_scatter_svg scatter_data",
    "schema": "CriteriaSchema CriterionSpec Direction reference_schema schema_from_json schema_to_json",
    "special": "regularized_incomplete_beta student_t_cdf student_t_two_tailed",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet; importing it binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
