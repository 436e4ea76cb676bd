"""Machine- and human-readable output: ranking tables, scatter data, SVG.

Table output rounds distances to 3 decimals (round-half-to-even); csv and
json carry full precision so they parse back into the exact in-memory
values. All formatting is locale-independent with '.' as the decimal
separator, and every emitter is deterministic: identical input produces
byte-identical output.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .dataset import Dataset, _csv, _extrema
from .errors import InsufficientSamples

if TYPE_CHECKING:  # annotations only: rank need not load correlation, nor corr ranking
    from .correlation import CorrelationCell, CorrelationMatrix
    from .normalization import NormalizedMatrix
    from .ranking import SimilarityRanking


class ScatterSeries(NamedTuple):
    """One labeled point per player for a pair of raw criteria."""

    x_criterion: str
    y_criterion: str
    points: tuple[tuple[str, float, float], ...]
    trend: tuple[float, float] | None = None  # (slope, intercept)


def _table(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Header and rows with cells joined by two spaces, one line each."""
    return "".join("  ".join(map(str, row)) + "\n" for row in (header, *rows))


def _json(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _records(keys: Sequence[str], rows: Iterable[Sequence[object]]) -> list[dict]:
    return [dict(zip(keys, row)) for row in rows]


_RANKING = ("rank", "player", "distance")


def emit_ranking(ranking: SimilarityRanking, fmt: str = "table") -> str:
    """Render a ranking as 'table' (3-decimal distances), 'csv' or 'json'."""
    if fmt == "table":
        return _table(_RANKING, [(r, p, f"{d:.3f}") for r, p, d in ranking.entries])
    if fmt == "csv":
        return _csv(_RANKING, ranking.entries)
    if fmt == "json":
        return _json({"target": ranking.target, "metric_p": ranking.metric.p,
                      "entries": _records(_RANKING, ranking.entries)})
    raise ValueError(f"unknown format {fmt!r}")


def scatter_data(dataset: Dataset, x: str, y: str, with_trend: bool = False) -> ScatterSeries:
    """Raw (x, y) values per player for two criteria present in the dataset."""
    from .correlation import least_squares_line

    xs, ys = dataset.column(x), dataset.column(y)
    trend = least_squares_line(xs, ys, names=(x, y)) if with_trend else None
    return ScatterSeries(x, y, tuple(zip(dataset.names, xs, ys)), trend)


def emit_scatter(series: ScatterSeries, fmt: str = "csv") -> str:
    """Render scatter data as 'csv' (points, optional trend comment) or 'json'."""
    trend = series.trend
    if fmt == "csv":
        text = _csv(("player", series.x_criterion, series.y_criterion), series.points)
        if trend is not None:
            text += f"# trend slope={trend[0]!r} intercept={trend[1]!r}\n"
        return text
    if fmt == "json":
        return _json({
            "x_criterion": series.x_criterion,
            "y_criterion": series.y_criterion,
            "points": _records(("player", "x", "y"), series.points),
            "trend": None if trend is None else dict(zip(("slope", "intercept"), trend)),
        })
    raise ValueError(f"unknown format {fmt!r}")


# -- SVG -----------------------------------------------------------------

_WIDTH, _HEIGHT = 800, 560
_LEFT, _RIGHT, _TOP, _BOTTOM = 70, 40, 40, 60


def _axis_range(values: Sequence[float], name: str) -> tuple[float, float]:
    """The values' range padded by 5% a side, or unpadded where the padded width would
    overflow; NonFiniteSpread(name) if max - min overflows, since no point would then
    get a finite coordinate, and MissingValue(name) if a value is not a number. A constant
    axis is padded by 1.0 a side, or, where 1.0 rounds away (beyond 2**53), widened to the
    next finite double each way, so its width is never 0."""
    lo, hi = _extrema(values, name)
    pad = (hi - lo) * 0.05 or 1.0
    if not math.isfinite((hi + pad) - (lo - pad)):
        pad = 0.0
    if lo - pad == hi + pad:
        below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        return (lo if math.isinf(below) else below), (hi if math.isinf(above) else above)
    return lo - pad, hi + pad


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text content; quotes need no escape there."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_scatter_svg(series: ScatterSeries) -> str:
    """A self-contained SVG scatter plot: axes, labeled markers, optional trend."""
    if not series.points:
        raise InsufficientSamples("cannot render a scatter plot without points")

    x_lo, x_hi = _axis_range([p[1] for p in series.points], series.x_criterion)
    y_lo, y_hi = _axis_range([p[2] for p in series.points], series.y_criterion)
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def px(v: float) -> float:
        return _LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif">',
        f'<defs><clipPath id="plot"><rect x="{_LEFT}" y="{_TOP}" '
        f'width="{plot_w}" height="{plot_h}"/></clipPath></defs>',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{_LEFT}" y1="{_TOP + plot_h}" x2="{_LEFT + plot_w}" '
        f'y2="{_TOP + plot_h}" stroke="black"/>',
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_TOP + plot_h}" stroke="black"/>',
        # axis titles
        f'<text x="{_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">{_escape(series.x_criterion)}</text>',
        f'<text x="20" y="{_TOP + plot_h / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 20 {_TOP + plot_h / 2:.1f})">{_escape(series.y_criterion)}</text>',
        # extent labels
        f'<text x="{_LEFT}" y="{_TOP + plot_h + 18}" text-anchor="middle" '
        f'font-size="11">{x_lo:.3g}</text>',
        f'<text x="{_LEFT + plot_w}" y="{_TOP + plot_h + 18}" text-anchor="middle" '
        f'font-size="11">{x_hi:.3g}</text>',
        f'<text x="{_LEFT - 8}" y="{_TOP + plot_h + 4}" text-anchor="end" '
        f'font-size="11">{y_lo:.3g}</text>',
        f'<text x="{_LEFT - 8}" y="{_TOP + 4}" text-anchor="end" font-size="11">{y_hi:.3g}</text>',
    ]

    if series.trend is not None:
        slope, intercept = series.trend
        lines.append(
            f'<line x1="{_fmt(px(x_lo))}" y1="{_fmt(py(slope * x_lo + intercept))}" '
            f'x2="{_fmt(px(x_hi))}" y2="{_fmt(py(slope * x_hi + intercept))}" '
            f'stroke="steelblue" stroke-width="1.5" clip-path="url(#plot)"/>'
        )

    for name, xv, yv in series.points:
        cx, cy = px(xv), py(yv)
        lines.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="crimson"/>')
        lines.append(
            f'<text x="{_fmt(cx + 5)}" y="{_fmt(cy - 5)}" font-size="10">{_escape(name)}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# -- other tabular emitters ------------------------------------------------

def normalized_to_csv(matrix: NormalizedMatrix) -> str:
    """The scaled matrix as CSV with fixed-point values to 6 decimals."""
    return _csv(("Player", *matrix.criteria),
                [(player, *(f"{v:.6f}" for v in row))
                 for player, row in zip(matrix.players, matrix.values)])


def correlation_to_csv(matrix: CorrelationMatrix) -> str:
    """The full correlation matrix as CSV with full-precision rho values."""
    return _csv(("criterion", *matrix.criteria),
                [(name, *(c.rho for c in row)) for name, row in zip(matrix.criteria, matrix.cells)])


_PAIRS = ("criterion_a", "criterion_b", "rho", "p_value", "stars")


def top_pairs_table(cells: Sequence[CorrelationCell]) -> str:
    """Readable top-k listing: pair, rho to 2 decimals, p-value, stars."""
    return _table(("pair", "rho", "p_value", "stars"),
                  [(f"{a}/{b}", f"{rho:.2f}", f"{p:.3g}", stars)
                   for a, b, rho, p, stars in cells])


def top_pairs_csv(cells: Sequence[CorrelationCell]) -> str:
    return _csv(_PAIRS, cells)


def top_pairs_json(cells: Sequence[CorrelationCell]) -> str:
    return _json(_records(_PAIRS, cells))
