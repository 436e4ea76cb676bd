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
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import DegenerateColumnWarning, SimrankError

if TYPE_CHECKING:
    from .dataset import Dataset
    from .metrics import MetricChoice

# Each subcommand imports the modules it uses inside its _cmd_* function, so a
# cold call compiles and runs only those; `rank` never loads correlation.


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
    from .dataset import load_dataset, load_reference_dataset
    from .schema import reference_schema, schema_from_json

    schema = schema_from_json(args.schema) if args.schema else reference_schema()
    if args.data:
        return load_dataset(args.data, schema)
    return load_reference_dataset(schema)


def _metric(args: argparse.Namespace) -> MetricChoice:
    from .metrics import EUCLIDEAN, MANHATTAN

    return {"p1": MANHATTAN, "p2": EUCLIDEAN}[args.metric]


def _cmd_rank(args: argparse.Namespace) -> int:
    from .normalization import normalize
    from .ranking import rank_by_similarity
    from .reports import emit_ranking

    matrix = normalize(_load(args))
    ranking = rank_by_similarity(matrix, args.target, _metric(args))
    sys.stdout.write(emit_ranking(ranking, args.format))
    return 0


def _cmd_nearest(args: argparse.Namespace) -> int:
    from .normalization import normalize
    from .ranking import SimilarityRanking, nearest_k
    from .reports import emit_ranking

    metric = _metric(args)
    matrix = normalize(_load(args))
    entries = nearest_k(matrix, args.target, args.k, metric)
    ranking = SimilarityRanking(args.target, metric, tuple(entries))
    sys.stdout.write(emit_ranking(ranking, args.format))
    return 0


def _cmd_corr(args: argparse.Namespace) -> int:
    from .correlation import correlation_matrix, top_correlated_pairs
    from .reports import correlation_to_csv, top_pairs_csv, top_pairs_json, top_pairs_table

    matrix = correlation_matrix(_load(args))
    if args.top is None:
        sys.stdout.write(correlation_to_csv(matrix))
    else:
        render = {"table": top_pairs_table, "csv": top_pairs_csv, "json": top_pairs_json}[args.format]
        sys.stdout.write(render(top_correlated_pairs(matrix, args.top)))
    return 0


def _cmd_scatter(args: argparse.Namespace) -> int:
    from .reports import emit_scatter, emit_scatter_svg, scatter_data

    series = scatter_data(_load(args), args.x, args.y, with_trend=args.trend)
    if args.svg:
        emit_scatter_svg(series, args.svg)
    else:
        sys.stdout.write(emit_scatter(series, args.format))
    return 0


def _cmd_dump_normalized(args: argparse.Namespace) -> int:
    from .normalization import normalize
    from .reports import normalized_to_csv

    sys.stdout.write(normalized_to_csv(normalize(_load(args))))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .dataset import validate

    dataset = _load(args)
    violations = validate(dataset)
    if not violations:  # a sound table scales, and warns of each constant column as rank does
        from .normalization import normalize
        normalize(dataset)
    print("\n".join(map(str, violations)) or "ok")
    return 2 if violations else 0


def _print_warning(message, *_) -> None:
    print(f"simrank: warning: {message}", file=sys.stderr)


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error (code 2) or --help (code 0)
        return 1 if exc.code else 0
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


def __getattr__(name: str):
    """``simrank.cli.normalize``, which perfbench/spans.py reads, loads ``normalization`` on first use."""
    if name == "normalize":
        from .normalization import normalize
        return normalize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    main()
