"""Acceptance suite for the package: seven end-to-end checks.

A1  golden ranking: `rank --target Messi` reproduces the golden 28-row
    table (order exactly, distances within +-0.02) in under a second,
    and the column-subset search confirms the active criterion set.
A2  Ronaldo neighbourhood: nearest three and farthest player.
A3  correlation findings: four golden pairs within +-0.015, each
    significant at the 1% level, and present in `corr --top 4`.
A4  scaling properties: range, attainment, 1000-case affine invariance.
A5  metric axioms: 10,000-case randomized suite.
A6  t-distribution CDF against a trapezoidal integration oracle.
A7  determinism: every subcommand emits byte-identical output twice.

Each test prints one `[acceptance] ... PASS/FAIL` line.
"""

import json
import random
import time

import pytest

from golden import (
    CORRELATION_TOLERANCE,
    DISTANCE_TOLERANCE,
    MESSI_RANKING,
    RONALDO_FARTHEST,
    RONALDO_NEAREST_3,
    TOP_CORRELATIONS,
)
from helpers import t_cdf_oracle_grid, transform_column
from subset_search import search_column_subsets
from simrank import (
    EUCLIDEAN,
    MANHATTAN,
    load_reference_dataset,
    manhattan_distance,
    minkowski_distance,
    normalize,
    student_t_cdf,
    two_tailed_p_value,
)
from simrank.cli import cli_main


@pytest.fixture
def report(capsys):
    def _report(label: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    return _report


def _run_cli(capsys, *argv) -> str:
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, f"exit code {code} for {argv}"
    return out


def _parse_ranking_json(text: str) -> list[tuple[str, float]]:
    return [(e["player"], e["distance"]) for e in json.loads(text)["entries"]]


def test_a1_golden_ranking_reproduction(capsys, report):
    started = time.perf_counter()
    out = _run_cli(capsys, "rank", "--target", "Messi", "--format", "json")
    elapsed = time.perf_counter() - started
    got = _parse_ranking_json(out)

    order_ok = [p for p, _ in got] == [p for p, _ in MESSI_RANKING]
    deviations = [abs(d - e) for (_, d), (_, e) in zip(got, MESSI_RANKING)]
    values_ok = len(got) == 28 and max(deviations) <= DISTANCE_TOLERANCE
    fast_ok = elapsed < 1.0

    # column-subset search harness: the active 17-column set (season totals
    # excluded, the four lower-is-better criteria fixed) must be the unique
    # best reproduction of the golden distances
    dataset = load_reference_dataset()
    fixed = ("Offside", "Disp", "UnschTch", "Fouls")
    results = search_column_subsets(dataset, "Messi", MESSI_RANKING, fixed, choose=13)
    best_dev, best_excluded = results[0]
    search_ok = (
        set(best_excluded) == {"Games", "Goals", "Assists"}
        and best_dev <= DISTANCE_TOLERANCE
        and results[1][0] > DISTANCE_TOLERANCE
    )

    report("A1 golden ranking (order, +-0.02, <1s, subset search)",
           order_ok and values_ok and fast_ok and search_ok)
    assert order_ok, [
        (g, e) for (g, _), (e, _) in zip(got, MESSI_RANKING) if g != e
    ]
    assert values_ok, f"max deviation {max(deviations):.4f}"
    assert fast_ok, f"took {elapsed:.2f}s"
    assert search_ok, results[:3]


def test_a2_ronaldo_neighbourhood(capsys, report):
    out = _run_cli(capsys, "nearest", "--target", "C. Ronaldo", "-k", "3", "--format", "json")
    got = _parse_ranking_json(out)
    names_ok = [p for p, _ in got] == [p for p, _ in RONALDO_NEAREST_3]
    values_ok = all(
        abs(d - e) <= DISTANCE_TOLERANCE for (_, d), (_, e) in zip(got, RONALDO_NEAREST_3)
    )

    full = _parse_ranking_json(
        _run_cli(capsys, "rank", "--target", "C. Ronaldo", "--format", "json")
    )
    farthest_ok = full[-1][0] == RONALDO_FARTHEST

    report("A2 Ronaldo nearest-3 and farthest", names_ok and values_ok and farthest_ok)
    assert names_ok, got
    assert values_ok, got
    assert farthest_ok, full[-1]


def test_a3_correlation_findings(capsys, report, reference_correlations):
    value_checks = {}
    significance_checks = {}
    for pair, expected in TOP_CORRELATIONS.items():
        a, b = sorted(pair)
        cell = reference_correlations.cell(a, b)
        value_checks[(a, b)] = abs(cell.rho - expected) <= CORRELATION_TOLERANCE
        significance_checks[(a, b)] = cell.p_value <= 0.01

    out = _run_cli(capsys, "corr", "--top", "4", "--format", "json")
    top4 = {frozenset((c["criterion_a"], c["criterion_b"])) for c in json.loads(out)}
    missing = set(TOP_CORRELATIONS) - top4
    membership_ok = not missing

    ok = all(value_checks.values()) and all(significance_checks.values()) and membership_ok
    report("A3 correlation golden values, significance, top-4 membership", ok)
    assert all(value_checks.values()), value_checks
    assert all(significance_checks.values()), significance_checks
    assert membership_ok, (
        f"golden pairs missing from top-4: {[tuple(sorted(m)) for m in missing]}; "
        f"top-4 = {[tuple(sorted(p)) for p in top4]}"
    )


def test_a4_scaling_properties(report):
    dataset = load_reference_dataset()
    matrix = normalize(dataset)

    range_ok = all(0.0 <= v <= 1.0 for row in matrix.values for v in row)
    attainment_ok = True
    for j, criterion in enumerate(matrix.criteria):
        if criterion in matrix.degenerate:
            continue
        column = [row[j] for row in matrix.values]
        attainment_ok &= min(column) == 0.0 and max(column) == 1.0

    rng = random.Random(1906)
    criteria = dataset.schema.included_names()
    worst = 0.0
    for _ in range(1000):
        criterion = rng.choice(criteria)
        a = rng.uniform(0.1, 10.0)
        b = rng.uniform(-10.0, 10.0)
        shifted = normalize(transform_column(dataset, criterion, a, b))
        for row, expected_row in zip(shifted.values, matrix.values):
            for got, expected in zip(row, expected_row):
                deviation = abs(got - expected)
                if deviation > worst:
                    worst = deviation
    affine_ok = worst <= 1e-12

    report("A4 scaling range, attainment, 1000-case affine invariance",
           range_ok and attainment_ok and affine_ok)
    assert range_ok
    assert attainment_ok
    assert affine_ok, f"worst deviation {worst:.3e}"


def test_a5_metric_axioms(report):
    rng = random.Random(424242)
    slack = 1e-12
    ok = True
    detail = ""
    for case in range(10_000):
        metric = MANHATTAN if case % 2 == 0 else EUCLIDEAN
        x = [rng.random() for _ in range(17)]
        y = [rng.random() for _ in range(17)]
        z = [rng.random() for _ in range(17)]
        dxy = minkowski_distance(x, y, metric)
        dyz = minkowski_distance(y, z, metric)
        dxz = minkowski_distance(x, z, metric)
        if dxy < 0.0 or dyz < 0.0 or dxz < 0.0:
            ok, detail = False, "negativity"
            break
        if dxy != minkowski_distance(y, x, metric):
            ok, detail = False, "symmetry"
            break
        if minkowski_distance(x, x, metric) != 0.0 or dxy == 0.0:
            ok, detail = False, "identity"
            break
        if dxz > dxy + dyz + slack:
            ok, detail = False, f"triangle: {dxz} > {dxy} + {dyz}"
            break
        if abs(manhattan_distance(x, y) - minkowski_distance(x, y, MANHATTAN)) > slack:
            ok, detail = False, "manhattan vs p=1"
            break

    report("A5 metric axioms, 10k randomized cases", ok)
    assert ok, f"case {case}: {detail}"


def test_a6_t_distribution_oracle(report):
    cdf_ok = True
    worst = 0.0
    for df in (5, 27, 50):
        for t, expected in t_cdf_oracle_grid(df):
            for sign, value in ((1.0, expected), (-1.0, 1.0 - expected)):
                deviation = abs(student_t_cdf(sign * t, df) - value)
                worst = max(worst, deviation)
                cdf_ok &= deviation <= 1e-6

    monotone_ok = True
    for n in (5, 29, 120):
        previous = 1.0 + 1e-9
        for i in range(100):
            p = two_tailed_p_value(i / 100.0, n)
            monotone_ok &= p < previous
            previous = p

    report("A6 t-distribution CDF vs integration oracle, p monotonicity", cdf_ok and monotone_ok)
    assert cdf_ok, f"worst CDF deviation {worst:.2e}"
    assert monotone_ok


def test_a7_deterministic_output(capsys, report, tmp_path):
    commands = [
        ("rank", "--target", "Messi"),
        ("rank", "--target", "Messi", "--format", "json"),
        ("nearest", "--target", "C. Ronaldo", "-k", "3"),
        ("corr",),
        ("corr", "--top", "4"),
        ("scatter", "-x", "Goals pg", "-y", "As pg", "--trend"),
        ("dump-normalized",),
        ("validate",),
    ]
    ok = True
    unstable = []
    for argv in commands:
        first = _run_cli(capsys, *argv).encode("utf-8")
        second = _run_cli(capsys, *argv).encode("utf-8")
        if first != second:
            ok = False
            unstable.append(argv)

    svg_a, svg_b = tmp_path / "a.svg", tmp_path / "b.svg"
    for path in (svg_a, svg_b):
        code = cli_main(["scatter", "-x", "Dribbling", "-y", "Disp", "--trend",
                         "--svg", str(path)])
        capsys.readouterr()
        assert code == 0
    if svg_a.read_bytes() != svg_b.read_bytes():
        ok = False
        unstable.append(("scatter", "--svg"))

    report("A7 byte-identical output for every subcommand", ok)
    assert ok, unstable
