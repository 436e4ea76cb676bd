import csv
import io
import json
import re

import pytest

from helpers import transform_column
from simrank import dataset_to_csv, schema_to_json
from simrank.cli import cli_main
from simrank.schema import CriteriaSchema, CriterionSpec, Direction


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_default_table(capsys):
    code, out, _ = run(capsys, "rank", "--target", "Messi")
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 29  # header + 28 players
    assert lines[1] == "1  Coutinho  3.769"
    assert lines[-1].startswith("28  Lukaku  ")


def test_rank_csv_format(capsys):
    code, out, _ = run(capsys, "rank", "--target", "Messi", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0
    assert len(rows) == 28
    assert rows[0]["player"] == "Coutinho"


def test_rank_json_format(capsys):
    code, out, _ = run(capsys, "rank", "--target", "Messi", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["target"] == "Messi"
    assert len(payload["entries"]) == 28


def test_rank_euclidean_metric(capsys):
    code, out, _ = run(capsys, "rank", "--target", "Messi", "--metric", "p2", "--format", "json")
    assert code == 0
    assert json.loads(out)["metric_p"] == 2.0


def test_nearest_ronaldo(capsys):
    code, out, _ = run(capsys, "nearest", "--target", "C. Ronaldo", "-k", "3")
    lines = out.splitlines()
    assert code == 0
    assert [line.split("  ")[1] for line in lines[1:]] == ["Aubameyang", "Kane", "Griezmann"]


def test_rank_and_nearest_agree(capsys):
    _, full, _ = run(capsys, "rank", "--target", "Messi", "--format", "csv")
    _, top, _ = run(capsys, "nearest", "--target", "Messi", "-k", "5", "--format", "csv")
    assert full.splitlines()[:6] == top.splitlines()


def test_unknown_player_is_data_error(capsys):
    code, out, err = run(capsys, "rank", "--target", "Nobody")
    assert code == 2
    assert out == ""
    assert "unknown player" in err
    assert "Nobody" in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "rank")[0] == 1  # --target missing
    assert run(capsys, "nearest", "--target", "Messi", "-k", "0")[0] == 1
    assert run(capsys, "rank", "--target", "Messi", "--format", "yaml")[0] == 1


def test_usage_error_prints_synopsis(capsys):
    _, _, err = run(capsys, "rank")
    assert "usage:" in err
    assert "error:" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "rank", "--help")[0] == 0


def test_k_too_large_is_data_error(capsys):
    code, _, err = run(capsys, "nearest", "--target", "Messi", "-k", "99")
    assert code == 2
    assert "k must be between" in err


@pytest.mark.parametrize("argv, message", [
    (("nearest", "--target", "Messi", "-k", "abc"), "argument -k: not an integer: 'abc'"),
    (("corr", "--top", "x"), "argument --top: not an integer: 'x'"),
], ids=["nearest", "corr"])
def test_a_count_that_is_not_an_integer_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.endswith(f": error: {message}\n")


def test_corr_matrix_csv(capsys):
    code, out, _ = run(capsys, "corr")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert len(rows) == 18  # header + 17 criteria
    assert rows[0][0] == "criterion"
    names = rows[0][1:]
    grid = {(r[0], names[j]): float(cell) for r in rows[1:] for j, cell in enumerate(r[1:])}
    assert grid[("AvPasses", "KeyP")] == grid[("KeyP", "AvPasses")]
    assert grid[("SpG", "SpG")] == 1.0


def test_corr_top_table(capsys):
    code, out, _ = run(capsys, "corr", "--top", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("KeyP/AvPasses  0.80")


def test_corr_top_json(capsys):
    code, out, _ = run(capsys, "corr", "--top", "4", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert len(payload) == 4
    assert all(p["stars"] == "***" for p in payload)


def test_scatter_csv(capsys):
    code, out, _ = run(capsys, "scatter", "-x", "Goals pg", "-y", "As pg")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "player,Goals pg,As pg"
    assert len(lines) == 30


def test_scatter_trend_comment(capsys):
    _, out, _ = run(capsys, "scatter", "-x", "Dribbling", "-y", "Disp", "--trend")
    assert out.splitlines()[-1].startswith("# trend slope=")


def test_scatter_unknown_criterion(capsys):
    code, _, err = run(capsys, "scatter", "-x", "Goals pg", "-y", "Rating")
    assert code == 2
    assert "Rating" in err


def test_scatter_svg_file(capsys, tmp_path):
    path = tmp_path / "plot.svg"
    code, out, _ = run(capsys, "scatter", "-x", "Goals pg", "-y", "As pg", "--svg", str(path))
    assert code == 0
    assert out == ""
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert text.count("<circle") == 29


def test_dump_normalized(capsys):
    code, out, _ = run(capsys, "dump-normalized")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert len(rows) == 30
    values = [float(cell) for row in rows[1:] for cell in row[1:]]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_validate_bundled_data(capsys):
    code, out, _ = run(capsys, "validate")
    assert code == 0
    assert out.strip() == "ok"


def test_validate_reports_violations(capsys, tmp_path):
    path = tmp_path / "solo.csv"
    header = "Player," + ",".join(
        c for c in ("Games", "Goals", "Assists", "SpG", "PS%", "AerW", "Dribbling",
                    "Fouled", "Offside", "Disp", "UnschTch", "KeyP", "AvPasses",
                    "Crosses", "LongB", "ThruB", "Tackles", "Fouls", "Goals pg", "As pg")
    )
    path.write_text(header + "\nSolo," + ",".join(["1"] * 20) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "validate", "--data", str(path))
    assert code == 2
    assert "TooFewPlayers" in out


def test_validate_broken_csv_is_data_error(capsys, tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("Player,SpG\nMessi,oops\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", "--data", str(path))
    assert code == 2
    assert "missing column" in err or "column" in err


def test_data_override(capsys, tmp_path, reference_dataset):
    path = tmp_path / "copy.csv"
    path.write_text(dataset_to_csv(reference_dataset), encoding="utf-8")
    code, out, _ = run(capsys, "rank", "--target", "Messi", "--data", str(path))
    assert code == 0
    assert out.splitlines()[1] == "1  Coutinho  3.769"


def test_every_subcommand_is_fast(capsys, tmp_path):
    import time

    commands = [
        ("rank", "--target", "Messi"),
        ("nearest", "--target", "Messi", "-k", "5"),
        ("corr",),
        ("corr", "--top", "4"),
        ("scatter", "-x", "Goals pg", "-y", "As pg", "--trend"),
        ("scatter", "-x", "SpG", "-y", "Goals pg", "--svg", str(tmp_path / "t.svg")),
        ("dump-normalized",),
        ("validate",),
    ]
    for argv in commands:
        started = time.perf_counter()
        assert cli_main(list(argv)) == 0
        capsys.readouterr()
        assert time.perf_counter() - started < 1.0, argv


def test_schema_override(capsys, tmp_path):
    schema = CriteriaSchema((
        CriterionSpec("A", Direction.MAXIMIZE),
        CriterionSpec("B", Direction.MINIMIZE),
    ))
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(schema_to_json(schema), encoding="utf-8")
    data_path = tmp_path / "data.csv"
    data_path.write_text(
        "Player,A,B\none,1,5\ntwo,2,4\nthree,3,1\n", encoding="utf-8"
    )
    code, out, _ = run(
        capsys, "rank", "--target", "one",
        "--data", str(data_path), "--schema", str(schema_path),
    )
    assert code == 0
    assert len(out.splitlines()) == 3


def _write(path, data):
    (path.write_bytes if isinstance(data, bytes) else path.write_text)(data)
    return str(path)


@pytest.mark.parametrize("case", [
    "missing data file", "data is a directory", "data not UTF-8", "svg directory missing",
    "schema not JSON", "schema direction invalid", "schema included not boolean",
    "schema item without name", "schema not an array", "schema includes no criteria",
])
def test_file_errors_are_one_line_exit_two(capsys, tmp_path, case):
    argv = {
        "missing data file": ["rank", "--target", "Messi", "--data", str(tmp_path / "nope.csv")],
        "data is a directory": ["rank", "--target", "Messi", "--data", str(tmp_path)],
        "data not UTF-8": ["validate", "--data", _write(tmp_path / "latin1.csv",
                                                         "Player,SpG\nMüller,1\n".encode("latin-1"))],
        "svg directory missing": ["scatter", "-x", "SpG", "-y", "KeyP",
                                  "--svg", str(tmp_path / "missing" / "x.svg")],
        "schema not JSON": ["validate", "--schema", _write(tmp_path / "cut.json", '[{"name": ')],
        "schema direction invalid": ["validate", "--schema", _write(
            tmp_path / "direction.json", '[{"name": "SpG", "direction": "up"}]')],
        "schema included not boolean": ["validate", "--schema", _write(
            tmp_path / "flag.json", '[{"name": "SpG", "direction": "max", "included": "false"}]')],
        "schema item without name": ["validate", "--schema", _write(
            tmp_path / "no_name.json", '[{"direction": "max"}]')],
        "schema not an array": ["validate", "--schema", _write(tmp_path / "obj.json", '{"a": 1}')],
        "schema includes no criteria": ["rank", "--target", "Messi", "--schema", _write(
            tmp_path / "none.json", '[{"name": "SpG", "direction": "max", "included": false}]')],
    }[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("simrank: error: ")
    assert err.count("\n") == 1


def test_constant_column_warning_is_one_line(capsys, tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text('[{"name": "A", "direction": "max"}, {"name": "B", "direction": "max"}]',
                      encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("Player,A,B\none,1,7\ntwo,2,7\nthree,3,7\n", encoding="utf-8")
    for _ in range(2):  # the second run must warn too
        code, out, err = run(capsys, "rank", "--target", "one",
                             "--data", str(data), "--schema", str(schema))
        assert code == 0
        assert out.splitlines()[1] == "1  two  0.500"
        assert err == "simrank: warning: column 'B' is constant; scaled to 0 for all players\n"


def _constant_keyp_csv(tmp_path, dataset):
    return _write(tmp_path / "const.csv", dataset_to_csv(transform_column(dataset, "KeyP", 0.0, 1.5)))


def test_trend_against_a_constant_x_is_refused(capsys, tmp_path, reference_dataset):
    """The fit is undefined, so the error names the column and its zero variance."""
    data = _constant_keyp_csv(tmp_path, reference_dataset)
    code, out, err = run(capsys, "scatter", "-x", "KeyP", "-y", "AvPasses", "--trend", "--data", data)
    assert (code, out, err) == (2, "", "simrank: error: constant column 'KeyP': zero variance\n")


def test_validate_warns_of_a_constant_column_as_rank_does(capsys, tmp_path, reference_dataset):
    data = _constant_keyp_csv(tmp_path, reference_dataset)
    warning = "simrank: warning: column 'KeyP' is constant; scaled to 0 for all players\n"
    assert run(capsys, "validate", "--data", data) == (0, "ok\n", warning)
    assert run(capsys, "rank", "--target", "Messi", "--data", data)[::2] == (0, warning)


def test_every_subcommand_sees_a_constant_column_whose_mean_rounds_as_constant(capsys, tmp_path):
    """fsum / n takes three cells of 0.1 to 0.10000000000000002, so a column that rank and
    validate warn of as constant would get a tiny nonzero variance in corr and the trend."""
    schema = _write(tmp_path / "schema.json", '[{"name": "X", "direction": "max"}, '
                    '{"name": "Y", "direction": "max"}, {"name": "Z", "direction": "max"}]')
    data = ("--data", _write(tmp_path / "tenth.csv", "Player,X,Y,Z\na,0.1,1,3\nb,0.1,2,1\nc,0.1,4,2\n"),
            "--schema", schema)
    warning = "simrank: warning: column 'X' is constant; scaled to 0 for all players\n"
    assert run(capsys, "validate", *data) == (0, "ok\n", warning)
    code, out, err = run(capsys, "corr", *data)
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert [rows[1], rows[2][1], rows[3][1]] == [["X", "1.0", "nan", "nan"], "nan", "nan"]
    assert run(capsys, "corr", "--top", "1", "--format", "csv", *data)[:2] == (
        0, "criterion_a,criterion_b,rho,p_value,stars\nY,Z,-0.32732683535398854,0.7877043849903436,\n")
    assert run(capsys, "corr", "--top", "2", *data) == (2, "", "simrank: error: k must be between 0 and 1, got 2\n")
    assert run(capsys, "scatter", "-x", "X", "-y", "Y", "--trend", *data) == (
        2, "", "simrank: error: constant column 'X': zero variance\n")


CONSTANT_KEYP = "simrank: warning: column 'KeyP' is constant; scaled to 0 for all players\n"


@pytest.mark.parametrize("argv", [("nearest", "--target", "Messi", "-k", "3"), ("dump-normalized",)],
                         ids=["nearest", "dump-normalized"])
def test_scaling_subcommands_warn_of_a_constant_column(capsys, tmp_path, reference_dataset, argv):
    code, out, err = run(capsys, *argv, "--data", _constant_keyp_csv(tmp_path, reference_dataset))
    assert (code, err) == (0, CONSTANT_KEYP)
    assert out


@pytest.mark.parametrize("argv, error", [
    (("rank", "--target", "Nobody"), "unknown player: 'Nobody'"),
    (("nearest", "--target", "Messi", "-k", "99"), "k must be between 1 and 28, got 99"),
], ids=["unknown-target", "k-out-of-range"])
def test_an_error_after_scaling_follows_the_warning(capsys, tmp_path, reference_dataset, argv, error):
    code, out, err = run(capsys, *argv, "--data", _constant_keyp_csv(tmp_path, reference_dataset))
    assert (code, out, err) == (2, "", f"{CONSTANT_KEYP}simrank: error: {error}\n")


@pytest.mark.parametrize("option, text", [("--data", "Player,SpG\nMüller,1\n"),
                                          ("--schema", '[{"name": "Müller", "direction": "max"}]'),
                                          ("--schema", '[{"name": ')],
                         ids=["data", "schema", "schema-json"])
def test_decode_error_names_the_file(capsys, tmp_path, option, text):
    path = _write(tmp_path / "latin1", text.encode("latin-1"))
    code, _, err = run(capsys, "validate", option, path)
    assert code == 2
    assert err.startswith(f"simrank: error: {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [("rank",), ("nearest", "-k", "1"), ("dump-normalized",)],
                         ids=["rank", "nearest", "dump-normalized"])
def test_one_player_is_refused(capsys, tmp_path, argv):
    schema = _write(tmp_path / "schema.json", '[{"name": "A", "direction": "max"}]')
    data = _write(tmp_path / "one.csv", "Player,A\none,1\n")
    if argv[0] != "dump-normalized":
        argv += ("--target", "one")
    code, out, err = run(capsys, *argv, "--data", data, "--schema", schema)
    assert (code, out) == (2, "")
    assert err == "simrank: error: min-max scaling needs at least 2 players, got 1\n"


NON_FINITE = re.compile(r"\b(inf|nan)\b")  # as repr() and "{:.2f}" write them


def _overflowing_csv(tmp_path, dataset, cells=("1e308", "-1e308")):  # max - min overflows to inf
    rows = list(csv.reader(io.StringIO(dataset_to_csv(dataset))))
    keyp = rows[0].index("KeyP")
    for row, cell in zip(rows[1:], cells):
        row[keyp] = cell
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return _write(tmp_path / "overflow.csv", out.getvalue())


@pytest.mark.parametrize("argv", [("rank", "--target", "Messi"),
                                  ("nearest", "--target", "Messi", "-k", "3"),
                                  ("corr",), ("dump-normalized",), ("validate",),
                                  ("scatter", "-x", "KeyP", "-y", "AvPasses", "--svg")],
                         ids=lambda argv: argv[0])
def test_non_finite_spread_is_refused(capsys, tmp_path, reference_dataset, argv):
    """Min-max scaling and the SVG axes need max - min, so each of those subcommands refuses the
    column and validate reports it; corr answers, since Pearson does not need the spread."""
    svg = tmp_path / "plot.svg"
    if argv[-1] == "--svg":
        argv += (str(svg),)
    code, out, err = run(capsys, *argv, "--data", _overflowing_csv(tmp_path, reference_dataset))
    assert not svg.exists()
    if argv[0] == "corr":
        assert (code, err) == (0, "")
        assert not NON_FINITE.search(out)
    elif argv[0] == "validate":  # violations are validate's report, printed on stdout
        assert (code, out, err) == (2, "NonFiniteSpread: KeyP: max - min is not finite\n", "")
    else:
        assert (code, out) == (2, "")
        assert err.startswith("simrank: error: column 'KeyP': ")
        assert err.count("\n") == 1


def test_svg_draws_an_axis_whose_padded_range_overflows(capsys, tmp_path, reference_dataset):
    """max - min is finite, so the axis is drawn without its 5% padding."""
    data = _overflowing_csv(tmp_path, reference_dataset, ("1.7e308",) + ("0",) * 28)
    svg = tmp_path / "plot.svg"
    assert run(capsys, "rank", "--target", "Messi", "--data", data)[0] == 0
    code, out, err = run(capsys, "scatter", "-x", "KeyP", "-y", "AvPasses", "--svg", str(svg), "--data", data)
    assert (code, out, err) == (0, "", "")
    text = svg.read_text(encoding="utf-8")
    assert text.count("<circle ") == 29
    assert not NON_FINITE.search(text)


@pytest.mark.parametrize("x", ["1e17", "1.7e308", "1.7976931348623157e308", "-1.7976931348623157e308"])
def test_svg_draws_a_constant_axis_of_any_magnitude(capsys, tmp_path, x):
    """Beyond 2**53 a constant axis's 1.0 padding rounds away, and near the largest double any
    padding overflows; the axis still gets a nonzero finite width."""
    schema = _write(tmp_path / "schema.json",
                    '[{"name": "X", "direction": "max"}, {"name": "Y", "direction": "max"}]')
    data = _write(tmp_path / "constant.csv", f"Player,X,Y\na,{x},1\nb,{x},2\nc,{x},4\n")
    svg = tmp_path / "plot.svg"
    code, out, err = run(capsys, "scatter", "-x", "X", "-y", "Y", "--svg", str(svg), "--data", data, "--schema", schema)
    assert (code, out, err) == (0, "", "")
    text = svg.read_text(encoding="utf-8")
    assert text.count("<circle ") == 3
    assert not NON_FINITE.search(text)


@pytest.mark.parametrize("argv", [("--trend",), ("--trend", "--svg")], ids=["trend", "trend-svg"])
def test_non_finite_trend_is_refused(capsys, tmp_path, argv):
    """Both sums of squares are finite, but the fit y = 1e313 * x overflows."""
    schema = _write(tmp_path / "schema.json",
                    '[{"name": "X", "direction": "max"}, {"name": "Y", "direction": "max"}]')
    data = _write(tmp_path / "steep.csv", "Player,X,Y\na,0,0\nb,1e-160,1e153\nc,2e-160,2e153\n")
    svg = tmp_path / "plot.svg"
    if argv[-1] == "--svg":
        argv += (str(svg),)
    code, out, err = run(capsys, "scatter", "-x", "X", "-y", "Y", *argv, "--data", data, "--schema", schema)
    assert (code, out, err) == (2, "", "simrank: error: column 'X': least-squares trend is not finite\n")
    assert not svg.exists()


# the spread is finite, but fsum of the column overflows (1e308 twice) or a square does (1e200)
@pytest.mark.parametrize("cells", [("1e308", "1e308"), ("1e200",)], ids=["sum", "square"])
@pytest.mark.parametrize("argv", [("corr",), ("scatter", "-x", "KeyP", "-y", "AvPasses", "--trend"),
                                  ("scatter", "-x", "AvPasses", "-y", "KeyP", "--trend"), ("validate",)],
                         ids=["corr", "scatter-x", "scatter-y", "validate"])
def test_non_finite_sum_of_squares_is_refused(capsys, tmp_path, reference_dataset, argv, cells):
    """No such column is refused: Pearson and the trend centre it again at a power-of-two
    scale, so each subcommand answers, with no inf or nan in its output."""
    data = _overflowing_csv(tmp_path, reference_dataset, cells)
    code, out, err = run(capsys, *argv, "--data", data)
    assert (code, err) == (0, "")
    assert not NON_FINITE.search(out)
    if argv[0] == "validate":
        assert out == "ok\n"
    elif argv[0] == "scatter":
        assert out.splitlines()[-1].startswith("# trend slope=")


def _corr_and_slope(capsys, *data):
    """KeyP/AvPasses rho from the full corr matrix, which must have every pair defined, and the
    KeyP -> AvPasses trend slope."""
    code, out, err = run(capsys, "corr", *data)
    assert (code, err) == (0, "")
    rows = {row[0]: row[1:] for row in csv.reader(io.StringIO(out))}
    header = rows.pop("criterion")
    assert len(rows) == 17 and not NON_FINITE.search(out)
    code, out, err = run(capsys, "scatter", "-x", "KeyP", "-y", "AvPasses", "--trend", *data)
    assert (code, err) == (0, "")
    slope = out.splitlines()[-1].split()[2].removeprefix("slope=")
    return float(rows["KeyP"][header.index("AvPasses")]), float(slope)


@pytest.mark.parametrize("columns", [("KeyP",), ("KeyP", "AvPasses")], ids=["KeyP", "both"])
@pytest.mark.parametrize("f", [1e-300, 1e-160, 1e-100, 1e100, 1e154, 1e200, 1e300])
def test_pearson_and_trend_answer_at_any_finite_scale(capsys, tmp_path, reference_dataset, columns, f):
    rho, slope = _corr_and_slope(capsys)
    scaled = reference_dataset
    for c in columns:
        scaled = transform_column(scaled, c, f, 0.0)
    data = ("--data", _write(tmp_path / "scaled.csv", dataset_to_csv(scaled).encode("utf-8")))
    scaled_rho, scaled_slope = _corr_and_slope(capsys, *data)
    assert scaled_rho == pytest.approx(rho, rel=1e-15, abs=0.0)
    assert scaled_slope == pytest.approx(slope if len(columns) == 2 else slope / f, rel=1e-15, abs=0.0)
    assert run(capsys, "validate", *data) == (0, "ok\n", "")
