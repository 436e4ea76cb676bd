import errno
import math
import mmap
import os
import random
import threading
import tracemalloc

import pytest

import simrank.correlation
from golden import CORRELATION_TOLERANCE, P_VALUE_RHO_HALF_N29, TOP_CORRELATIONS
from helpers import build_dataset, cell_bytes, leaves_no_child_or_descriptor, replace_value, transform_column
from simrank import (
    ConstantColumn,
    InsufficientSamples,
    KOutOfRange,
    LengthMismatch,
    MissingValue,
    NonFiniteSpread,
    NonFiniteTrend,
    UnknownCriterion,
    correlation_matrix,
    least_squares_line,
    pearson,
    significance_stars,
    top_correlated_pairs,
    two_tailed_p_value,
)
from simrank.cli import cli_main


@pytest.fixture(autouse=True)
def _leaves_no_child_or_descriptor():
    """correlation_matrix may fork: no test here may leave a child process or a descriptor."""
    with leaves_no_child_or_descriptor():
        yield


def test_pearson_of_column_with_itself():
    xs = [1.0, 4.0, 2.0, 8.0, 5.5]
    rho = pearson(xs, xs)
    assert rho == pytest.approx(1.0, abs=1e-12)
    assert rho <= 1.0


def test_pearson_perfect_anticorrelation():
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0


def test_rho_rounded_past_one_is_clamped():
    """Unclamped, this exact affine pair divides out to 1.0000000000000002, which the matrix's
    p-value would refuse."""
    x = [-0.4, 3.2, 1.5, 3.0, -1.5, 1.4, 2.4]
    y = [2.0 * v - 0.6 for v in x]
    assert pearson(x, y) == 1.0
    cell = correlation_matrix(build_dataset([f"p{i}" for i in range(7)], {"X": x, "Y": y})).cell("X", "Y")
    assert (cell.rho, cell.p_value, cell.stars) == (1.0, 0.0, "***")


def test_pearson_golden_pair(reference_dataset):
    rho = pearson(reference_dataset.column("AvPasses"), reference_dataset.column("KeyP"))
    assert rho == pytest.approx(0.80, abs=CORRELATION_TOLERANCE)


def test_pearson_errors():
    with pytest.raises(LengthMismatch):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(InsufficientSamples):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ConstantColumn) as exc:
        pearson([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
    assert str(exc.value) == "constant column: zero variance"
    with pytest.raises(NonFiniteSpread, match="column 'x'"):  # fsum(xs) raises ValueError
        pearson([math.inf, -math.inf, 1.0], [1.0, 2.0, 3.0])


# max() steps over a nan cell unless it comes first, and fsum of inf and -inf raises
@pytest.mark.parametrize("cells", [[math.nan, 1.0, 2.0, 4.0], [1.0, math.nan, 2.0, 4.0],
                                   [1.0, 2.0, math.inf, 4.0], [math.inf, -math.inf, 2.0, 4.0]],
                         ids=["nan-first", "nan-inside", "inf", "inf-and-minus-inf"])
def test_non_finite_cell_is_refused(cells):
    good = [1.0, 3.0, 2.0, 5.0]
    for call, name in [(lambda: pearson(cells, good), "x"), (lambda: pearson(good, cells), "y"),
                       (lambda: least_squares_line(cells, good), "x"),
                       (lambda: least_squares_line(good, cells), "y"),
                       (lambda: correlation_matrix(build_dataset("pqrs", {"A": good, "B": cells})), "B")]:
        with pytest.raises(NonFiniteSpread, match=f"column '{name}'"):
            call()


@pytest.mark.parametrize("xs, ys, error, message", [
    ([1.0, 2.0, 3.0], [1.0, 2.0], LengthMismatch, "column lengths differ: 3 vs 2"),
    ([], [], InsufficientSamples, "need at least 2 paired values, got 0"),
    ([1.0], [2.0], InsufficientSamples, "need at least 2 paired values, got 1"),
    ([0.0, 1e-160, 2e-160], [0.0, 1e153, 2e153], NonFiniteTrend,
     "column 'x': least-squares trend is not finite"),
], ids=["unequal-lengths", "empty", "one-point", "non-finite-fit"])
def test_least_squares_line_checks_its_inputs(xs, ys, error, message):
    with pytest.raises(error) as exc:
        least_squares_line(xs, ys)
    assert str(exc.value) == message


def test_pearson_affine_invariance():
    rng = random.Random(11)
    xs = [rng.random() for _ in range(29)]
    ys = [rng.random() for _ in range(29)]
    rho = pearson(xs, ys)
    a, b = 2.75, -14.0
    assert pearson([a * x + b for x in xs], ys) == pytest.approx(rho, abs=1e-10)
    assert pearson([-a * x + b for x in xs], ys) == pytest.approx(-rho, abs=1e-10)


def test_matrix_is_symmetric_with_unit_diagonal(reference_correlations):
    m = reference_correlations
    size = len(m.criteria)
    assert size == 17
    for i in range(size):
        assert m.cells[i][i].rho == 1.0
        assert m.cells[i][i].p_value == 0.0
        for j in range(size):
            assert m.cells[i][j].rho == m.cells[j][i].rho
            assert m.cells[i][j].p_value == m.cells[j][i].p_value


def test_matrix_golden_cells(reference_correlations):
    for pair, expected in TOP_CORRELATIONS.items():
        a, b = sorted(pair)
        cell = reference_correlations.cell(a, b)
        assert cell.rho == pytest.approx(expected, abs=CORRELATION_TOLERANCE), (a, b)
        assert cell.stars == "***", (a, b)


def test_matrix_rho_bounds(reference_correlations):
    for row in reference_correlations.cells:
        for cell in row:
            assert -1.0 <= cell.rho <= 1.0
            assert 0.0 <= cell.p_value <= 1.0


def test_constant_column_cell_is_undefined():
    dataset = build_dataset(
        ["a", "b", "c", "d"],
        {"X": [1, 2, 3, 4], "Y": [5, 5, 5, 5], "Z": [2, 1, 4, 3]},
    )
    m = correlation_matrix(dataset)
    cell = m.cell("X", "Y")
    assert not cell.defined
    assert math.isnan(cell.rho) and math.isnan(cell.p_value)
    assert cell.stars == ""
    assert m.cell("X", "Z").defined


@pytest.mark.parametrize("cell", [0.1, -7.0, 1e300, 5e-324])
def test_a_constant_column_is_centred_once_and_unscaled(cell):
    """Its cell is the mean and every deviation 0: no fsum rounds the mean, and its exact sum
    of squares 0 is not taken for an underflow that would centre it again at another scale."""
    mean, deviations, ss, k = simrank.correlation._centre([cell] * 3, "X")
    assert (mean, deviations.tolist(), ss, k) == (cell, [0.0] * 3, 0.0, 0)


def test_matrix_needs_three_players():
    with pytest.raises(InsufficientSamples, match="need at least 3 paired values, got 2"):
        correlation_matrix(build_dataset(["a", "b"], {"X": [1, 2], "Y": [2, 1]}))


@pytest.mark.parametrize("a, b", [("Rating", "KeyP"), ("KeyP", "Rating")], ids=["first", "second"])
def test_matrix_cell_names_an_unknown_criterion(reference_correlations, a, b):
    with pytest.raises(UnknownCriterion) as exc:
        reference_correlations.cell(a, b)
    assert str(exc.value) == "unknown criterion: 'Rating'"


def test_top_pairs_skip_undefined_cells():
    dataset = build_dataset(
        ["a", "b", "c", "d"],
        {"X": [1, 2, 3, 4], "Y": [5, 5, 5, 5], "Z": [2, 1, 4, 3]},
    )
    pairs = top_correlated_pairs(correlation_matrix(dataset), 1)
    assert {pairs[0].criterion_a, pairs[0].criterion_b} == {"X", "Z"}


def test_top_pair_is_passes_vs_key_passes(reference_correlations):
    best = top_correlated_pairs(reference_correlations, 1)[0]
    assert {best.criterion_a, best.criterion_b} == {"AvPasses", "KeyP"}
    assert abs(best.rho) == pytest.approx(0.80, abs=CORRELATION_TOLERANCE)


def test_top_zero_is_empty(reference_correlations):
    assert top_correlated_pairs(reference_correlations, 0) == []


def test_top_k_bounds(reference_correlations):
    assert len(top_correlated_pairs(reference_correlations, 136)) == 136
    with pytest.raises(KOutOfRange):
        top_correlated_pairs(reference_correlations, 137)
    with pytest.raises(KOutOfRange):
        top_correlated_pairs(reference_correlations, -1)


def test_top_k_sorted_by_absolute_rho(reference_correlations):
    pairs = top_correlated_pairs(reference_correlations, 136)
    magnitudes = [abs(c.rho) for c in pairs]
    assert magnitudes == sorted(magnitudes, reverse=True)


def test_golden_pairs_among_top_six(reference_correlations):
    pairs = top_correlated_pairs(reference_correlations, 6)
    found = {frozenset((c.criterion_a, c.criterion_b)) for c in pairs}
    assert set(TOP_CORRELATIONS) <= found


def test_p_value_for_zero_rho_is_one():
    for n in (3, 10, 29):
        assert two_tailed_p_value(0.0, n) == 1.0


def test_p_value_golden_case():
    # rho = 0.5, n = 29 gives t = 3 with 27 df
    assert two_tailed_p_value(0.5, 29) == pytest.approx(P_VALUE_RHO_HALF_N29, abs=1e-9)


def test_p_value_significant_at_one_percent():
    assert two_tailed_p_value(0.80, 29) < 0.01


def test_p_value_monotone_in_rho():
    previous = 1.1
    for i in range(20):
        p = two_tailed_p_value(i * 0.05, 29)
        assert p < previous or (i == 0 and p == 1.0)
        previous = p


def test_p_value_edge_cases():
    assert two_tailed_p_value(1.0, 29) == 0.0
    assert two_tailed_p_value(-1.0, 29) == 0.0
    with pytest.raises(ValueError):
        two_tailed_p_value(1.5, 29)
    with pytest.raises(InsufficientSamples):
        two_tailed_p_value(0.5, 2)


def test_significance_star_ladder():
    assert significance_stars(0.002) == "***"
    assert significance_stars(0.01) == "***"
    assert significance_stars(0.03) == "**"
    assert significance_stars(0.05) == "**"
    assert significance_stars(0.07) == "*"
    assert significance_stars(0.10) == "*"
    assert significance_stars(0.2) == ""
    assert significance_stars(math.nan) == ""


def test_stars_assigned_from_p_values(reference_correlations):
    for row in reference_correlations.cells:
        for cell in row:
            if cell.defined:
                assert cell.stars == significance_stars(cell.p_value)


def _assert_cells_equal_pearson(dataset):
    m = correlation_matrix(dataset)
    for a in m.criteria:
        for b in m.criteria:
            if a == b:
                continue
            cell = m.cell(a, b)
            try:
                rho = pearson(dataset.column(a), dataset.column(b))
            except ConstantColumn:
                assert math.isnan(cell.rho) and math.isnan(cell.p_value), (a, b)
            else:
                assert cell.rho == rho, (a, b)


def test_matrix_cells_equal_pearson_exactly(reference_dataset):
    _assert_cells_equal_pearson(reference_dataset)


def test_matrix_cells_equal_pearson_with_constant_column():
    _assert_cells_equal_pearson(build_dataset(
        ["a", "b", "c", "d", "e"],
        {"X": [1.5, 2.25, 3, 4.75, 0.1], "Y": [5, 5, 5, 5, 5], "Z": [2, 1, 4, 3, 9]},
    ))


@pytest.mark.parametrize("scale", [1e100, 1e-100])
def test_rho_is_scale_free_at_extreme_scales(reference_dataset, reference_correlations, scale):
    # at 1e100 the product of the two sums of squares overflows, at 1e-100 it underflows
    scaled = transform_column(reference_dataset, "KeyP", scale, 0.0)
    scaled = transform_column(scaled, "AvPasses", scale, 0.0)
    m = correlation_matrix(scaled)
    for row, expected_row in zip(m.cells, reference_correlations.cells):
        for cell, expected in zip(row, expected_row):
            assert cell.rho == pytest.approx(expected.rho, abs=1e-12), (cell.criterion_a, cell.criterion_b)


def _random_table(n: int, seed: int):
    """n players by 17 columns sharing one latent factor, at mixed scales and precisions."""
    rng = random.Random(seed)
    latent = [rng.gauss(0.0, 1.0) for _ in range(n)]
    columns = {}
    for k in range(17):
        weight, scale, digits = rng.uniform(-1.0, 1.0), 10.0 ** rng.randint(-2, 3), rng.randint(1, 3)
        columns[f"c{k}"] = [round(scale * (2.0 + weight * f + rng.gauss(0.0, 1.0)), digits)
                            for f in latent]
    return build_dataset([f"p{i}" for i in range(n)], columns)


def _plain_centre(xs):
    mean = math.fsum(xs) / len(xs)
    deviations = [x - mean for x in xs]
    return mean, deviations, math.fsum(d * d for d in deviations)


def test_matrix_and_fit_match_plain_fsum_formula_bit_for_bit():
    dataset = _random_table(2000, seed=2018)
    m = correlation_matrix(dataset)
    centred = {c: _plain_centre(dataset.column(c)) for c in m.criteria}
    for i, a in enumerate(m.criteria):
        _, dx, ss_x = centred[a]
        for b in m.criteria[i + 1:]:
            _, dy, ss_y = centred[b]
            rho = math.fsum(p * q for p, q in zip(dx, dy)) / math.sqrt(ss_x * ss_y)
            assert m.cell(a, b).rho == max(-1.0, min(1.0, rho)), (a, b)
    for a, b in zip(m.criteria, m.criteria[1:]):
        (mean_x, dx, ss_x), (mean_y, dy, _) = centred[a], centred[b]
        slope = math.fsum(p * q for p, q in zip(dx, dy)) / ss_x
        assert least_squares_line(dataset.column(a), dataset.column(b)) == (slope, mean_y - slope * mean_x)


def _peak_bytes_of_a_matrix(n: int) -> int:
    dataset = _random_table(n, seed=7)
    tracemalloc.start()
    try:
        correlation_matrix(dataset)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_keeps_centred_columns_packed():
    # every centred column as a list of floats would cost 17 * 32 bytes a row
    assert _peak_bytes_of_a_matrix(5000) < 17 * 32 * 5000 / 2


@pytest.fixture
def forks(monkeypatch):
    """A two-CPU machine; the list records each os.fork call made by this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls, fork, parent = [], os.fork, os.getpid()

    def counted():
        if os.getpid() == parent:
            calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def forks_at_any_size(monkeypatch, forks):
    monkeypatch.setattr(simrank.correlation, "_FORK_MIN_PRODUCTS", 0)
    return forks


def test_forked_matrix_reads_each_of_the_childs_columns_packed(forks_at_any_size):
    assert _peak_bytes_of_a_matrix(5000) < 17 * 32 * 5000 / 2
    assert forks_at_any_size == [1, 1]


def _serial_matrix(monkeypatch, dataset):
    """correlation_matrix with os.fork failing, which also runs the fallback to a serial call."""
    def no_pid():
        raise OSError("no process ids left")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", no_pid)
        return correlation_matrix(dataset)


def test_forked_matrix_equals_serial_bit_for_bit(monkeypatch, forks_at_any_size):
    dataset = _random_table(2000, seed=1114)
    forked = correlation_matrix(dataset)
    assert forks_at_any_size == [1, 1]
    assert cell_bytes(forked) == cell_bytes(_serial_matrix(monkeypatch, dataset))


def test_nearly_all_constant_columns_fork_only_to_centre(monkeypatch, forks):
    """16 of the 17 included columns are constant, so there is no pair to sum: the centring
    forks, and the pair phase, with no products at all, does not."""
    monkeypatch.setattr(simrank.correlation, "_FORK_MIN_PRODUCTS", 1)
    varying = _random_table(2000, seed=1121)
    dataset = build_dataset(varying.names, {"c0": varying.column("c0"),
                                            **{f"c{k}": [float(k)] * 2000 for k in range(1, 17)}})
    forked = correlation_matrix(dataset)
    assert forks == [1]
    assert cell_bytes(forked) == cell_bytes(_serial_matrix(monkeypatch, dataset))


def test_child_that_dies_before_writing_gives_the_same_matrix(monkeypatch, forks_at_any_size):
    dataset = _random_table(2000, seed=1115)
    parent, cross_sums = os.getpid(), simrank.correlation._cross_sums

    def dies_in_child(centred, pairs):
        if os.getpid() != parent:
            os._exit(1)
        return cross_sums(centred, pairs)

    monkeypatch.setattr(simrank.correlation, "_cross_sums", dies_in_child)
    died = correlation_matrix(dataset)
    assert forks_at_any_size == [1, 1]
    assert cell_bytes(died) == cell_bytes(_serial_matrix(monkeypatch, dataset))


def test_child_that_raises_gives_the_same_matrix(monkeypatch, forks_at_any_size):
    """The child exits 1 on an exception, never going on to run its caller's code."""
    dataset = _random_table(2000, seed=1117)
    parent, cross_sums = os.getpid(), simrank.correlation._cross_sums

    def raises_in_child(centred, pairs):
        if os.getpid() != parent:
            raise MemoryError
        return cross_sums(centred, pairs)

    monkeypatch.setattr(simrank.correlation, "_cross_sums", raises_in_child)
    raised = correlation_matrix(dataset)
    assert forks_at_any_size == [1, 1]
    assert cell_bytes(raised) == cell_bytes(_serial_matrix(monkeypatch, dataset))


def _dies():
    os._exit(1)


def _raises():
    raise MemoryError


@pytest.mark.parametrize("fault", [_dies, _raises], ids=["dies", "raises"])
def test_child_that_fails_while_centring_gives_the_same_matrix(monkeypatch, forks_at_any_size, fault):
    dataset = _random_table(2000, seed=1119)
    parent, centre = os.getpid(), simrank.correlation._centre

    def fails_in_child(xs, name):
        if os.getpid() != parent:
            fault()
        return centre(xs, name)

    monkeypatch.setattr(simrank.correlation, "_centre", fails_in_child)
    failed = correlation_matrix(dataset)
    assert forks_at_any_size == [1, 1]
    assert cell_bytes(failed) == cell_bytes(_serial_matrix(monkeypatch, dataset))


# the child centres the later half of the 17 columns, c8 to c16
@pytest.mark.parametrize("bad, error, named", [
    ({"c12": math.nan}, NonFiniteSpread, "c12"),
    ({"c15": None}, MissingValue, "c15"),
    ({"c16": math.nan, "c9": None}, MissingValue, "c9"),
    ({"c3": math.inf, "c10": None}, NonFiniteSpread, "c3"),  # the parent's column comes first
], ids=["nan", "none", "two-in-the-child", "one-in-each-half"])
def test_a_bad_column_in_the_child_raises_the_serial_error(monkeypatch, forks_at_any_size, bad, error, named):
    dataset = _random_table(2000, seed=1120)
    for criterion, value in bad.items():
        dataset = replace_value(dataset, "p1234", criterion, value)
    with pytest.raises(error) as serial:
        _serial_matrix(monkeypatch, dataset)
    with pytest.raises(error) as forked:
        correlation_matrix(dataset)
    assert forks_at_any_size == [1]  # the centring fork; no pair sums follow
    assert str(forked.value) == str(serial.value)
    assert forked.value.name == named


def test_no_descriptor_or_memory_for_the_child_runs_serially(monkeypatch, forks_at_any_size):
    """Neither a pipe nor a shared mapping can be made (a full descriptor table, or no memory):
    the centring and the sums run in this process, with no fork, and leave no child or descriptor
    behind."""
    dataset = _random_table(2000, seed=1118)
    serial = cell_bytes(_serial_matrix(monkeypatch, dataset))

    def refused(*args):
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(os, "pipe", refused)
    monkeypatch.setattr(mmap, "mmap", refused)
    assert cell_bytes(correlation_matrix(dataset)) == serial
    assert forks_at_any_size == []


def test_no_fork_while_another_thread_runs(forks_at_any_size):
    dataset = _random_table(2000, seed=1116)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10.0,))
    other.start()
    try:
        correlation_matrix(dataset)
    finally:
        release.set()
        other.join(timeout=10.0)
    assert not other.is_alive()
    assert forks_at_any_size == []


def test_cli_corr_on_the_bundled_data_never_forks(capsys, forks):
    assert cli_main(["corr", "--top", "4"]) == 0
    assert capsys.readouterr().out.startswith("pair  rho  p_value  stars\n")
    assert forks == []
