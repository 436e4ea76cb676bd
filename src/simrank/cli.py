"""Command-line interface.

Subcommands: rank, nearest, corr, scatter, dump-normalized, validate.
Exit codes: 0 success, 1 usage error, 2 data/validation error, including
unreadable files; each error or warning is one "simrank: error:" or
"simrank: warning:" line on stderr. The bundled dataset and schema are
used unless --data/--schema override them.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import Optional, Sequence

from .correlation import correlation_matrix, top_correlated_pairs
from .dataset import Dataset, load_dataset, load_reference_dataset, validate
from .errors import DegenerateColumnWarning, SimrankError
from .metrics import EUCLIDEAN, MANHATTAN
from .normalization import normalize
from .ranking import SimilarityRanking, nearest_k, rank_by_similarity
from .reports import (
    correlation_to_csv,
    emit_ranking,
    emit_scatter,
    emit_scatter_svg,
    normalized_to_csv,
    scatter_data,
    top_pairs_csv,
    top_pairs_json,
    top_pairs_table,
)
from .schema import reference_schema, schema_from_json

_METRICS = {"p1": MANHATTAN, "p2": EUCLIDEAN}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


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


def build_parser() -> _Parser:
    parser = _Parser(prog="simrank", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    similar = argparse.ArgumentParser(add_help=False)  # options shared by rank and nearest
    similar.add_argument("--target", required=True)
    similar.add_argument("--metric", choices=sorted(_METRICS), default="p1")
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
    dump.add_argument("--format", choices=["csv"], default="csv")
    _add_data_options(dump)
    dump.set_defaults(func=_cmd_dump_normalized)

    check = commands.add_parser("validate", help="check dataset invariants")
    _add_data_options(check)
    check.set_defaults(func=_cmd_validate)

    return parser


def _load(args: argparse.Namespace) -> Dataset:
    schema = schema_from_json(args.schema) if args.schema else reference_schema()
    if args.data:
        return load_dataset(args.data, schema)
    return load_reference_dataset(schema)


def _cmd_rank(args: argparse.Namespace) -> int:
    matrix = normalize(_load(args))
    ranking = rank_by_similarity(matrix, args.target, _METRICS[args.metric])
    sys.stdout.write(emit_ranking(ranking, args.format))
    return 0


def _cmd_nearest(args: argparse.Namespace) -> int:
    metric = _METRICS[args.metric]
    matrix = normalize(_load(args))
    entries = nearest_k(matrix, args.target, args.k, metric)
    ranking = SimilarityRanking(args.target, metric, tuple(entries))
    sys.stdout.write(emit_ranking(ranking, args.format))
    return 0


def _cmd_corr(args: argparse.Namespace) -> int:
    matrix = correlation_matrix(_load(args))
    if args.top is None:
        sys.stdout.write(correlation_to_csv(matrix))
    else:
        render = {"table": top_pairs_table, "csv": top_pairs_csv, "json": top_pairs_json}[args.format]
        sys.stdout.write(render(top_correlated_pairs(matrix, args.top)))
    return 0


def _cmd_scatter(args: argparse.Namespace) -> int:
    series = scatter_data(_load(args), args.x, args.y, with_trend=args.trend)
    if args.svg:
        emit_scatter_svg(series, args.svg)
    else:
        sys.stdout.write(emit_scatter(series, args.format))
    return 0


def _cmd_dump_normalized(args: argparse.Namespace) -> int:
    sys.stdout.write(normalized_to_csv(normalize(_load(args))))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    violations = validate(_load(args))
    print("\n".join(map(str, violations)) or "ok")
    return 2 if violations else 0


def _print_warning(message, *_) -> None:
    print(f"simrank: warning: {message}", file=sys.stderr)


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        code = exc.code
        return code if isinstance(code, int) else 0
    with warnings.catch_warnings():
        warnings.simplefilter("always", DegenerateColumnWarning)  # whatever -W says
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (SimrankError, OSError, ValueError) as exc:  # bad files and data, not usage
            print(f"simrank: error: {exc}", file=sys.stderr)
            return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
