import csv
import io
import json
import re

import pytest

from helpers import build_dataset
from simrank import (
    ConstantColumn,
    InsufficientSamples,
    MANHATTAN,
    ScatterSeries,
    UnknownCriterion,
    emit_ranking,
    emit_scatter,
    least_squares_line,
    normalize,
    normalized_to_csv,
    rank_by_similarity,
    render_scatter_svg,
    scatter_data,
)
from simrank.reports import correlation_to_csv, top_pairs_csv, top_pairs_json, top_pairs_table
from simrank.correlation import top_correlated_pairs


@pytest.fixture(scope="module")
def messi_ranking(reference_matrix):
    return rank_by_similarity(reference_matrix, "Messi", MANHATTAN)


def test_table_first_data_row(messi_ranking):
    lines = emit_ranking(messi_ranking, "table").splitlines()
    assert lines[0] == "rank  player  distance"
    assert lines[1] == "1  Coutinho  3.769"
    assert len(lines) == 29


def test_table_distances_rounded_to_three_decimals(messi_ranking):
    for line in emit_ranking(messi_ranking, "table").splitlines()[1:]:
        assert re.fullmatch(r"\d+  .+  \d+\.\d{3}", line)


def test_csv_round_trip_full_precision(messi_ranking):
    text = emit_ranking(messi_ranking, "csv")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 28
    for row, entry in zip(rows, messi_ranking.entries):
        assert int(row["rank"]) == entry.rank
        assert row["player"] == entry.player
        assert float(row["distance"]) == entry.distance


def test_json_round_trip_full_precision(messi_ranking):
    payload = json.loads(emit_ranking(messi_ranking, "json"))
    assert payload["target"] == "Messi"
    assert payload["metric_p"] == 1.0
    for item, entry in zip(payload["entries"], messi_ranking.entries):
        assert (item["rank"], item["player"], item["distance"]) == (
            entry.rank, entry.player, entry.distance,
        )


def test_single_entry_ranking():
    dataset = build_dataset(["a", "b"], {"X": [0.0, 1.0], "Y": [1.0, 0.0]})
    ranking = rank_by_similarity(normalize(dataset), "a")
    lines = emit_ranking(ranking, "table").splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("1  b  ")


def test_unknown_format_rejected(messi_ranking):
    with pytest.raises(ValueError):
        emit_ranking(messi_ranking, "xml")


def test_scatter_points(reference_dataset):
    series = scatter_data(reference_dataset, "Goals pg", "As pg")
    assert len(series.points) == 29
    by_name = {name: (x, y) for name, x, y in series.points}
    assert by_name["Neymar"] == (1.06, 0.69)
    assert max(x for _, x, _ in series.points) == 1.06
    assert max(y for _, _, y in series.points) == 0.69


def test_scatter_accepts_excluded_columns(reference_dataset):
    series = scatter_data(reference_dataset, "Games", "Goals")
    assert len(series.points) == 29


def test_scatter_unknown_criterion(reference_dataset):
    with pytest.raises(UnknownCriterion):
        scatter_data(reference_dataset, "Goals pg", "Rating")


def test_scatter_trend_only_when_requested(reference_dataset):
    assert scatter_data(reference_dataset, "Dribbling", "Disp").trend is None
    series = scatter_data(reference_dataset, "Dribbling", "Disp", with_trend=True)
    assert series.trend is not None
    slope, _ = series.trend
    assert slope > 0.0  # more dribbles go with more dispossessions


def test_trend_on_identical_columns(reference_dataset):
    series = scatter_data(reference_dataset, "KeyP", "KeyP", with_trend=True)
    slope, intercept = series.trend
    assert slope == pytest.approx(1.0, abs=1e-9)
    assert intercept == pytest.approx(0.0, abs=1e-9)


def test_least_squares_against_closed_form():
    # mean point (2.5, 5.0); sum dx*dy = 9.9, sum dx^2 = 5.0
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [2.0, 4.1, 5.9, 8.0]
    slope, intercept = least_squares_line(xs, ys)
    assert slope == pytest.approx(9.9 / 5.0, abs=1e-12)
    assert intercept == pytest.approx(0.05, abs=1e-12)


def test_least_squares_needs_spread():
    with pytest.raises(ConstantColumn):
        least_squares_line([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_scatter_csv_round_trip(reference_dataset):
    series = scatter_data(reference_dataset, "Goals pg", "As pg", with_trend=True)
    text = emit_scatter(series, "csv")
    lines = text.splitlines()
    assert lines[0] == "player,Goals pg,As pg"
    assert lines[-1].startswith("# trend slope=")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:-1]))))
    rebuilt = tuple((r[0], float(r[1]), float(r[2])) for r in rows)
    assert rebuilt == series.points
    match = re.fullmatch(r"# trend slope=(\S+) intercept=(\S+)", lines[-1])
    assert (float(match.group(1)), float(match.group(2))) == series.trend


def test_unknown_scatter_format(reference_dataset):
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_scatter(scatter_data(reference_dataset, "Goals pg", "As pg"), "xml")


def test_scatter_json_round_trip(reference_dataset):
    series = scatter_data(reference_dataset, "Goals pg", "As pg", with_trend=True)
    payload = json.loads(emit_scatter(series, "json"))
    rebuilt = ScatterSeries(
        payload["x_criterion"],
        payload["y_criterion"],
        tuple((p["player"], p["x"], p["y"]) for p in payload["points"]),
        (payload["trend"]["slope"], payload["trend"]["intercept"]),
    )
    assert rebuilt == series


def test_svg_has_marker_and_label_per_player(reference_dataset):
    series = scatter_data(reference_dataset, "Goals pg", "As pg")
    svg = render_scatter_svg(series)
    assert svg.count("<circle") == 29
    assert ">Messi</text>" in svg
    assert ">Goals pg</text>" in svg
    assert ">As pg</text>" in svg
    assert "<line" in svg  # axes


def test_svg_single_point():
    series = ScatterSeries("X", "Y", (("only", 2.0, 3.0),))
    svg = render_scatter_svg(series)
    assert svg.count("<circle") == 1
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")


def test_svg_trend_line(reference_dataset):
    series = scatter_data(reference_dataset, "Dribbling", "Disp", with_trend=True)
    assert 'stroke="steelblue"' in render_scatter_svg(series)


def test_svg_is_deterministic(reference_dataset):
    series = scatter_data(reference_dataset, "Goals pg", "As pg", with_trend=True)
    assert render_scatter_svg(series) == render_scatter_svg(series)


def test_svg_escapes_names():
    series = ScatterSeries("a<b", "c&d", (("x<y", 1.0, 2.0), ("p&q", 3.0, 4.0)))
    svg = render_scatter_svg(series)
    assert "a&lt;b" in svg and "c&amp;d" in svg
    assert "x&lt;y" in svg and "p&amp;q" in svg
    assert "x<y" not in svg and "p&q" not in svg


def test_svg_escape_matches_saxutils():
    from xml.sax.saxutils import escape

    name = 'A & B <x> "q" \'a\''
    svg = render_scatter_svg(ScatterSeries(name, "Y" + name, ((name, 1.0, 2.0),)))
    assert f'font-size="14">{escape(name)}</text>' in svg
    assert f'>{escape("Y" + name)}</text>' in svg
    assert f'font-size="10">{escape(name)}</text>' in svg
    assert escape(name) == 'A &amp; B &lt;x&gt; "q" \'a\''


def test_svg_empty_series_rejected():
    with pytest.raises(InsufficientSamples, match="^cannot render a scatter plot without points$"):
        render_scatter_svg(ScatterSeries("X", "Y", ()))


def test_normalized_csv_six_decimals(reference_matrix):
    text = normalized_to_csv(reference_matrix)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["Player", *reference_matrix.criteria]
    assert len(rows) == 30
    for row in rows[1:]:
        for cell in row[1:]:
            assert re.fullmatch(r"[01]\.\d{6}", cell)
            assert 0.0 <= float(cell) <= 1.0


def test_correlation_csv_parses_back(reference_correlations):
    rows = list(csv.reader(io.StringIO(correlation_to_csv(reference_correlations))))
    assert rows[0] == ["criterion", *reference_correlations.criteria]
    for i, row in enumerate(rows[1:]):
        for j, cell in enumerate(row[1:]):
            assert float(cell) == reference_correlations.cells[i][j].rho


def test_top_pairs_renderings(reference_correlations):
    cells = top_correlated_pairs(reference_correlations, 3)
    table = top_pairs_table(cells)
    assert table.splitlines()[0] == "pair  rho  p_value  stars"
    assert "KeyP/AvPasses  0.80" in table
    parsed = list(csv.DictReader(io.StringIO(top_pairs_csv(cells))))
    assert [p["criterion_a"] for p in parsed] == [c.criterion_a for c in cells]
    assert [float(p["rho"]) for p in parsed] == [c.rho for c in cells]
    payload = json.loads(top_pairs_json(cells))
    assert [p["p_value"] for p in payload] == [c.p_value for c in cells]
