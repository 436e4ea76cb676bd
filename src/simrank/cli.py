"""Command-line interface.

Subcommands: rank, nearest, corr, scatter, dump-normalized, validate.
Exit codes: 0 success, 1 usage error, 2 data/validation error, including
unreadable files and output that cannot be written (a full disk, a closed
stdout); each error or warning is one "simrank: error:" or "simrank:
warning:" line on stderr. The bundled dataset and schema are used unless
--data/--schema override them. The process freezes its heap before it
exits, so the interpreter's shutdown collections skip it; there is nothing
to configure, and cli_main, which runs in process, does not freeze.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

import simrank  # each name read through the package loads its module on first use

from .errors import SimrankError

if TYPE_CHECKING:
    from .dataset import Dataset
    from .metrics import MetricChoice
    from .normalization import NormalizedMatrix


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _add_data_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", metavar="CSV", help="CSV file replacing the bundled dataset")
    sub.add_argument("--schema", metavar="JSON", help="schema file replacing the bundled schema")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simrank", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    similar = argparse.ArgumentParser(add_help=False)  # options shared by rank and nearest
    similar.add_argument("--target", required=True)
    similar.add_argument("--metric", choices=["p1", "p2"], default="p1")
    similar.add_argument("--format", choices=["table", "csv", "json"], default="table")
    _add_data_options(similar)

    rank = commands.add_parser("rank", parents=[similar],
                               help="rank all players by similarity to a target")
    rank.set_defaults(func=_cmd_rank)

    nearest = commands.add_parser("nearest", parents=[similar],
                                  help="the k players most similar to a target")
    nearest.add_argument("-k", dest="k", type=_int_at_least(1), required=True, metavar="K")
    nearest.set_defaults(func=_cmd_nearest)

    corr = commands.add_parser("corr", help="criterion correlation matrix or top pairs")
    corr.add_argument("--top", type=_int_at_least(0), metavar="K",
                      help="emit only the K most correlated pairs")
    corr.add_argument("--format", choices=["table", "csv", "json"], default="table",
                      help="output format for --top (the matrix is always CSV)")
    _add_data_options(corr)
    corr.set_defaults(func=_cmd_corr)

    scatter = commands.add_parser("scatter", help="raw (x, y) points per player")
    scatter.add_argument("-x", dest="x", required=True, metavar="CRITERION")
    scatter.add_argument("-y", dest="y", required=True, metavar="CRITERION")
    scatter.add_argument("--trend", action="store_true", help="add a least-squares trend line")
    scatter.add_argument("--svg", metavar="PATH", help="write an SVG plot instead of data")
    scatter.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_data_options(scatter)
    scatter.set_defaults(func=_cmd_scatter)

    dump = commands.add_parser("dump-normalized", help="the scaled [0,1] matrix")
    _add_data_options(dump)
    dump.set_defaults(func=_cmd_dump_normalized)

    check = commands.add_parser("validate", help="check dataset invariants")
    _add_data_options(check)
    check.set_defaults(func=_cmd_validate)

    return parser


def _load(args: argparse.Namespace) -> Dataset:
    schema = simrank.reference_schema() if args.schema is None else simrank.schema_from_json(args.schema)
    if args.data is not None:
        return simrank.load_dataset(args.data, schema)
    return simrank.load_reference_dataset(schema)


def _metric(args: argparse.Namespace) -> MetricChoice:
    return {"p1": simrank.MANHATTAN, "p2": simrank.EUCLIDEAN}[args.metric]


def _normalize(dataset: Dataset) -> NormalizedMatrix:
    """``normalize(dataset)``, then one warning line on stderr for each constant column it
    scaled to 0; a refused table raises first, so it prints its error alone."""
    matrix = simrank.normalize(dataset)
    for name in matrix.degenerate:
        print(f"simrank: warning: column {name!r} is constant; scaled to 0 for all players", file=sys.stderr)
    return matrix


def _cmd_rank(args: argparse.Namespace) -> tuple[str, int]:
    matrix = _normalize(_load(args))
    ranking = simrank.rank_by_similarity(matrix, args.target, _metric(args))
    return simrank.emit_ranking(ranking, args.format), 0


def _cmd_nearest(args: argparse.Namespace) -> tuple[str, int]:
    matrix = _normalize(_load(args))
    nearest = simrank.nearest_k(matrix, args.target, args.k, _metric(args))
    return simrank.emit_ranking(nearest, args.format), 0


def _cmd_corr(args: argparse.Namespace) -> tuple[str, int]:
    matrix = simrank.correlation_matrix(_load(args))
    reports = simrank.reports  # the matrix and top-pairs emitters are not package exports
    if args.top is None:
        return reports.correlation_to_csv(matrix), 0
    render = {"table": reports.top_pairs_table, "csv": reports.top_pairs_csv,
              "json": reports.top_pairs_json}[args.format]
    return render(simrank.top_correlated_pairs(matrix, args.top)), 0


def _cmd_scatter(args: argparse.Namespace) -> tuple[str, int]:
    from pathlib import Path

    series = simrank.scatter_data(_load(args), args.x, args.y, with_trend=args.trend)
    if args.svg is not None:  # rendered before the file opens, so a refused series writes no file
        Path(args.svg).write_text(simrank.render_scatter_svg(series), encoding="utf-8")
        return "", 0
    return simrank.emit_scatter(series, args.format), 0


def _cmd_dump_normalized(args: argparse.Namespace) -> tuple[str, int]:
    return simrank.normalized_to_csv(_normalize(_load(args))), 0


def _cmd_validate(args: argparse.Namespace) -> tuple[str, int]:
    dataset = _load(args)
    violations = simrank.validate(dataset)
    if not violations:  # a sound table scales, and warns of each constant column as rank does
        _normalize(dataset)
    return ("\n".join(map(str, violations)) or "ok") + "\n", 2 if violations else 0


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, run the subcommand and write its text; returns the process exit code."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse printed a usage error (code 2) or --help (code 0)
            text, code = "", 1 if exc.code else 0
        else:
            text, code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.write(text)
            sys.stdout.flush()  # a failed write, --help's too, surfaces here while it can be reported
        elif text:  # the process started with fd 1 closed; scatter --svg has nothing to print
            raise OSError(errno.EBADF, "stdout is closed")
        return code
    except (SimrankError, OSError, ValueError) as exc:  # bad files, data and output, not usage
        print(f"simrank: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    code = cli_main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:  # cli_main reported it; send what is still buffered to os.devnull, so exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    gc.freeze()  # the interpreter's shutdown collections skip a frozen heap; the OS frees it anyway
    sys.exit(code)


def __getattr__(name: str):
    """``simrank.cli.normalize``, which perfbench/spans.py reads, loads ``normalization`` on first use."""
    if name == "normalize":
        return simrank.normalize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    main()
