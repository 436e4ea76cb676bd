"""Properties checked on generated inputs; skipped where Hypothesis is not installed, which
simrank itself never needs. ``derandomize`` and no example database keep each run the same.
Hypothesis also caches the constants it reads from local source, while pytest collects, so
its home is a temporary directory, removed at exit, and a run writes nothing into the tree."""

import io
import math
import os
import struct
import sys
import tempfile
from array import array

import pytest

import simrank.correlation
from helpers import build_dataset, cell_bytes, leaves_no_child_or_descriptor
from simrank import (
    CriteriaSchema,
    CriterionSpec,
    Dataset,
    Direction,
    MetricChoice,
    correlation_matrix,
    dataset_to_csv,
    load_dataset,
    minkowski_distance,
    normalize,
    pearson,
    rank_by_similarity,
)

pytest.importorskip("hypothesis")
from hypothesis import assume, configuration, example, given, settings, strategies as st  # noqa: E402  (after the skip)

_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)
# On a failure the pytest plugin imports this optional module to suggest a patch. It loads
# libcst, whose import warns, and under filterwarnings = error that warning would stop the
# whole session; blocked, the import fails as without libcst and the failure is reported.
sys.modules.setdefault("hypothesis.extra._patching", None)

# every finite double, -0.0 and subnormals included, in 1 to 20 rows of 1 to 4 cells
ROWS = st.integers(1, 4).flatmap(lambda k: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
    min_size=1, max_size=20))


@settings(database=None, derandomize=True)
@given(ROWS)
def test_csv_round_trip_keeps_every_bit(rows):
    k = len(rows[0])
    schema = CriteriaSchema(tuple(CriterionSpec(f"C{j}", Direction.MAXIMIZE) for j in range(k)))
    names = tuple(f"p{i}" for i in range(len(rows)))
    table = {f"C{j}": array("d", column) for j, column in enumerate(zip(*rows))}
    loaded = load_dataset(io.StringIO(dataset_to_csv(Dataset(schema, names, table))), schema)
    assert loaded.names == names
    for j, column in enumerate(zip(*rows)):
        stored = loaded.column(f"C{j}")
        assert type(stored) is array and stored.typecode == "d"
        assert stored.tobytes() == struct.pack(f"{len(column)}d", *column)


def _bits(rows) -> bytes:
    return b"".join(struct.pack(f"{len(row)}d", *row) for row in rows)


# magnitudes in [2**-20, 2**20]: a nonzero difference of two is at least 2**-72, so for the
# k below every scaled cell, difference and quotient stays a normal double
SCALABLE = st.floats(2.0 ** -20, 2.0 ** 20) | st.floats(-(2.0 ** 20), -(2.0 ** -20)) | st.just(0.0)


@settings(database=None, derandomize=True)
@given(st.lists(SCALABLE, min_size=2, max_size=30, unique=True), st.integers(-940, 990))
def test_min_max_scaling_keeps_every_bit_under_a_power_of_two(column, k):
    dataset = build_dataset([f"p{i}" for i in range(len(column))],
                            {"up": column, "down": column}, minimize=["down"])
    scaled = build_dataset(dataset.names, {c: [math.ldexp(v, k) for v in column] for c in ("up", "down")},
                           minimize=["down"])
    assert _bits(normalize(scaled).values) == _bits(normalize(dataset).values)


# magnitudes in [1, 1024], so times 2**k for any k in [-1022, 1013] every cell is exact
EXACT = st.floats(1.0, 1024.0) | st.floats(-1024.0, -1.0) | st.just(0.0)


@settings(database=None, derandomize=True)
@given(st.integers(3, 30).flatmap(lambda n: st.tuples(st.lists(EXACT, min_size=n, max_size=n),
                                                     st.lists(EXACT, min_size=n, max_size=n))),
       st.integers(-1022, 1013))
def test_rho_is_scale_free_over_the_whole_double_range(columns, k):
    xs, ys = columns
    assume(len(set(xs)) > 1 and len(set(ys)) > 1)
    rho = pearson(xs, ys)
    assert abs(pearson([math.ldexp(x, k) for x in xs], ys) - rho) <= 2 * math.ulp(rho)


TABLES = st.tuples(st.integers(3, 40), st.integers(2, 6)).flatmap(lambda shape: st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=shape[0], max_size=shape[0]),
    min_size=shape[1], max_size=shape[1]))


@settings(database=None, derandomize=True, max_examples=20)
@given(TABLES)
def test_forked_pair_sums_equal_serial_bit_for_bit(columns):
    dataset = build_dataset([f"p{i}" for i in range(len(columns[0]))],
                            {f"C{j}": column for j, column in enumerate(columns)})
    serial = correlation_matrix(dataset)  # far below _FORK_MIN_PRODUCTS: one process
    calls, fork = [], os.fork
    # patched in the body, since a function-scoped fixture would span every example
    with leaves_no_child_or_descriptor(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(simrank.correlation, "_FORK_MIN_PRODUCTS", 0)
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        patch.setattr(os, "fork", lambda: calls.append(1) or fork())
        forked = correlation_matrix(dataset)
    assert calls == [1]
    assert cell_bytes(forked) == cell_bytes(serial)


@settings(database=None, derandomize=True)
@given(st.tuples(st.integers(2, 12), st.integers(1, 4)).flatmap(lambda shape: st.tuples(
           st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25]), min_size=shape[0],
                             max_size=shape[0]), min_size=shape[1], max_size=shape[1]),
           st.lists(st.booleans(), min_size=shape[1], max_size=shape[1]),
           st.permutations(range(shape[0])), st.integers(0, shape[0] - 1))),
       st.sampled_from([1.0, 2.0, 3.0]))
def test_shuffled_player_order_gives_the_same_ranking(table, p):
    """Few distinct values, so equal distances, which the name breaks, are common."""
    columns, minimize, order, target = table
    names = [f"p{i}" for i in range(len(order))]
    criteria = {f"C{j}": column for j, column in enumerate(columns)}
    down = [c for c, flag in zip(criteria, minimize) if flag]
    shuffled = build_dataset([names[i] for i in order],
                             {c: [column[i] for i in order] for c, column in criteria.items()}, down)
    ranked = [rank_by_similarity(normalize(d), names[target], MetricChoice(p))
              for d in (build_dataset(names, criteria, down), shuffled)]
    assert ranked[0] == ranked[1]


@settings(database=None, derandomize=True)
@given(st.integers(1, 17).flatmap(lambda k: st.lists(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k),
                                                     min_size=3, max_size=3)),
       st.floats(1.0, 8.0))
@example([[0.0], [1e-50], [2e-50]], 8.0)  # each |x_k - y_k| ** p underflows to 0
def test_minkowski_axioms_hold(points, p):
    x, y, z = points
    metric = MetricChoice(p)
    d = lambda a, b: minkowski_distance(a, b, metric)  # noqa: E731
    assert d(x, x) == 0.0
    assert d(x, y) == d(y, x) >= 0.0
    assert (d(x, y) > 0.0) == (x != y)
    # each of the three distances is within a few ulp of exact
    assert d(x, z) <= (d(x, y) + d(y, z)) * (1.0 + 1e-14)
