"""Properties checked on generated inputs; skipped where Hypothesis is not installed, which
simrank itself never needs. ``derandomize`` and no example database keep each run the same.
Hypothesis also caches the constants it reads from local source, while pytest collects, so
its home is a temporary directory, removed at exit, and a run writes nothing into the tree."""

import contextlib
import csv
import io
import json
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
from simrank.cli import cli_main

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


# columns in [-1e6, 1e6] whose largest magnitude is at most 2**20 spreads and whose spread is a
# normal double; for a in [2**-20, 2**20] and |b| <= 4 a * spread, a * x + b then neither underflows
# nor overflows, and no two distinct cells map to one
@settings(database=None, derandomize=True)
@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=12), st.floats(2.0 ** -20, 2.0 ** 20),
       st.floats(-4.0, 4.0))
def test_min_max_scaling_holds_under_a_positive_affine_map(column, a, t):
    top, spread = max(map(abs, column)), max(column) - min(column)
    assume(spread == 0.0 or (spread >= 2.0 ** -900 and top <= 2.0 ** 20 * spread))
    b = t * a * spread
    names = [f"p{i}" for i in range(len(column))]
    before, after = (normalize(build_dataset(names, {c: values for c in ("up", "down")}, minimize=["down"]))
                     for values in (column, [a * x + b for x in column]))
    assert after.degenerate == before.degenerate
    # each a * x + b is within 3u (a * top + |b|) of exact, u = 2**-53, so a scaled cell is within
    # about 12u (top + |b| / a) / spread + 6u of the other; 16 covers the second-order terms
    bound = 16 * 2.0 ** -53 * (1.0 + (top + abs(b) / a) / spread) if spread else 0.0
    for row, twin in zip(after.values, before.values):
        assert all(abs(y - x) <= bound for y, x in zip(row, twin)), (row, twin, bound)


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
    assert calls == [1, 1]  # one child centres half the columns, one sums half the pairs
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


# 3 to 12 cells a column, each column one repeated value, whose fsum / n may round off, or any
# values; every magnitude is at most 1e300, so no max - min overflows and normalize answers
CONSTANT_OR_NOT = st.integers(3, 12).flatmap(lambda n: st.lists(
    st.floats(-1e300, 1e300).map(lambda v: [v] * n)
    | st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n), min_size=2, max_size=5))


@settings(database=None, derandomize=True)
@given(CONSTANT_OR_NOT)
@example([[0.1] * 3, [1.0, 2.0, 4.0]])  # fsum / 3 gives 0.10000000000000002
def test_a_pair_is_undefined_exactly_where_normalize_finds_a_constant_column(columns):
    dataset = build_dataset([f"p{i}" for i in range(len(columns[0]))],
                            {f"C{j}": column for j, column in enumerate(columns)})
    degenerate = normalize(dataset).degenerate
    matrix = correlation_matrix(dataset)
    for i, row in enumerate(matrix.cells):
        for cell in row[i + 1:]:
            assert cell.defined != (cell.criterion_a in degenerate or cell.criterion_b in degenerate)


# The error contract of the CLI on generated files: a sound table and schema, or one with a
# single fault, so that many calls answer. Names may be dash-led, quoted or blank-padded.
CRITERIA = ("A", "B", "C")
NAME = st.sampled_from(["a", "b", "c", "-d", "e f", " g ", 'h"', "i,j"])
GOOD_CELL = st.sampled_from(["0", "0.1", "1", "2.5", "-3", "1e308"]) | st.floats(-1e6, 1e6).map(repr)
FAULTS = [None, "cell", "duplicate", "blank", "short", "alone", "missing", "schema", "long", "deep"]
# Stand-ins for a cell longer than the csv module reads and a schema nested deeper than json decodes
# within the recursion limit, expanded only as the files are written: a drawn example that large
# makes Hypothesis report a flaky strategy in place of the failure it found.
LONG_CELL, DEEP_SCHEMA = "<long cell>", "<deep schema>"
MISUSE = st.sampled_from([(), (), (), ("--bogus",), ("--metric", "p3")])  # each a usage error everywhere


@st.composite
def cli_files(draw, fault: str | None) -> tuple[str, str, list[str]]:
    """CSV text, schema text and the player names, with the fault ``fault`` or none."""
    header = draw(st.permutations(CRITERIA))[:draw(st.integers(1, 3))]
    names = draw(st.lists(NAME, unique=True, min_size=2, max_size=5))
    rows = [[name, *draw(st.lists(GOOD_CELL, min_size=len(header), max_size=len(header)))] for name in names]
    schema = [{"name": c, "direction": draw(st.sampled_from(["max", "min"])), "included": i == 0 or draw(st.booleans())}
              for i, c in enumerate(header)]
    if fault == "cell":
        draw(st.sampled_from(rows))[draw(st.integers(1, len(header)))] = draw(
            st.sampled_from(["", "x", "inf", "nan", "-1e309"]))
    elif fault == "duplicate":
        rows.append([draw(st.sampled_from(names)), *rows[0][1:]])
    elif fault == "blank":
        rows.append(["", *rows[0][1:]])
    elif fault == "short":
        rows[-1].pop()
    elif fault == "alone":
        del rows[1:], names[1:]
    elif fault == "missing":  # an included criterion the header lacks
        schema.append({"name": "D", "direction": "max"})
    elif fault == "schema":
        schema.append(draw(st.sampled_from([schema[0], {"name": "E", "direction": "up"}, {"direction": "max"}])))
    elif fault == "long":
        draw(st.sampled_from(rows))[draw(st.integers(0, len(header)))] = LONG_CELL
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([["Player", *header], *rows])
    schema = DEEP_SCHEMA if fault == "deep" else json.dumps(schema)
    return text.getvalue(), schema, [name.strip() for name in names]


def _argv(data, command: str, names: list[str], svg: str) -> list[str]:
    """One call of ``command`` with drawn options; a target is given as --target=NAME, so a
    name that starts with '-' is not read as an option."""
    draw = data.draw
    target = [f"--target={draw(st.sampled_from([*names, 'nobody']))}"]
    formats = ["--format", draw(st.sampled_from(["table", "csv", "json"]))]
    return {
        "rank": lambda: target + ["--metric", draw(st.sampled_from(["p1", "p2"]))] + formats,
        "nearest": lambda: target + ["-k", str(draw(st.integers(1, 6)))] + formats,
        "corr": lambda: draw(st.sampled_from([[], ["--top", str(draw(st.integers(0, 4)))]])) + formats,
        "scatter": lambda: ["-x", draw(st.sampled_from([*CRITERIA, "Z"])), "-y", draw(st.sampled_from(CRITERIA))]
        + draw(st.sampled_from([[], ["--trend"]])) + draw(st.sampled_from([["--svg", svg], ["--format", "json"], []])),
        "dump-normalized": list,
        "validate": list,
    }[command]()


# one case per fault kind, so every kind runs on every run: under derandomize, which kinds a draw
# from sampled_from(FAULTS) covers depends on the test's source
@pytest.mark.parametrize("fault", FAULTS, ids=lambda fault: fault or "sound")
@settings(database=None, derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_every_subcommand_keeps_the_error_contract(fault, data):
    """Exit 1 only for a usage error, else 0 or 2; on 0 only warning lines on stderr, on 2 one
    error line after any warnings (validate's violations go to stdout instead); nothing raises."""
    text, schema, names = data.draw(cli_files(fault))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in ("data.csv", "schema.json", "plot.svg")}
        with open(paths["data.csv"], "w", encoding="utf-8", newline="") as f:
            f.write(text.replace(LONG_CELL, "9" * (csv.field_size_limit() + 1)))
        with open(paths["schema.json"], "w", encoding="utf-8") as f:
            f.write("[" * 100_000 if schema == DEEP_SCHEMA else schema)
        for command in ("rank", "nearest", "corr", "scatter", "dump-normalized", "validate"):
            misuse = data.draw(MISUSE)
            argv = [command, *_argv(data, command, names, paths["plot.svg"]), *misuse,
                    "--data", paths["data.csv"], "--schema", paths["schema.json"]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            out, err = out.getvalue(), err.getvalue().splitlines()
            if misuse:
                assert (code, out) == (1, ""), argv
                assert err[0].startswith("usage: simrank"), argv
                continue
            warnings = [line for line in err if line.startswith("simrank: warning: ")]
            if code == 0:
                assert warnings == err, argv
            elif command == "validate" and not err:
                assert code == 2 and out and out != "ok\n", argv
            else:
                assert code == 2, argv
                assert out == "" and err[:-1] == warnings and err[-1].startswith("simrank: error: "), argv
