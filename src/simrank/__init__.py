"""simrank: rank football players by statistical similarity to a target.

Raw per-game statistics are scaled to [0, 1] with direction-aware min-max
scaling, players become points in included-criterion space, and similarity
is distance under a Minkowski metric (Manhattan by default). The package
also computes the Pearson correlation structure of the criteria and ships
a 29-player 2017/18 league snapshot as its reference dataset. The names
imported below are the public API.
"""

from .correlation import (
    CorrelationCell,
    CorrelationMatrix,
    correlation_matrix,
    least_squares_line,
    pearson,
    significance_stars,
    top_correlated_pairs,
    two_tailed_p_value,
)
from .dataset import (
    Dataset,
    PlayerRecord,
    Violation,
    dataset_to_csv,
    load_dataset,
    load_reference_dataset,
    validate,
)
from .errors import (
    ConstantColumn,
    DegenerateColumnWarning,
    DimensionMismatch,
    DuplicatePlayer,
    EmptyDataset,
    EmptySeries,
    InsufficientSamples,
    KOutOfRange,
    LengthMismatch,
    MissingColumn,
    NonFiniteSpread,
    NonFiniteSumOfSquares,
    ParseError,
    SimrankError,
    UnknownCriterion,
    UnknownPlayer,
)
from .metrics import (
    EUCLIDEAN,
    MANHATTAN,
    MetricChoice,
    distance_to_target,
    manhattan_distance,
    minkowski_distance,
)
from .normalization import NormalizedMatrix, normalize
from .ranking import RankingEntry, SimilarityRanking, nearest_k, rank_by_similarity
from .reports import (
    ScatterSeries,
    emit_ranking,
    emit_scatter,
    emit_scatter_svg,
    normalized_to_csv,
    render_scatter_svg,
    scatter_data,
)
from .schema import (
    CriteriaSchema,
    CriterionSpec,
    Direction,
    reference_schema,
    schema_from_json,
    schema_to_json,
)
from .special import regularized_incomplete_beta, student_t_cdf, student_t_two_tailed

__version__ = "0.1.0"
