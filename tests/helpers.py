"""Shared builders and independent numeric oracles for the test suite."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from simrank import (
    CriteriaSchema,
    CriterionSpec,
    Dataset,
    Direction,
)


def build_dataset(
    players: Sequence[str],
    columns: dict[str, Sequence[float]],
    minimize: Iterable[str] = (),
    excluded: Iterable[str] = (),
) -> Dataset:
    """Assemble a small synthetic Dataset from per-criterion value lists."""
    minimize = set(minimize)
    excluded = set(excluded)
    schema = CriteriaSchema(
        tuple(
            CriterionSpec(
                name,
                Direction.MINIMIZE if name in minimize else Direction.MAXIMIZE,
                included=name not in excluded,
            )
            for name in columns
        )
    )
    table = {name: tuple(map(float, values)) for name, values in columns.items()}
    return Dataset(schema, tuple(players), table)


def transform_column(dataset: Dataset, criterion: str, a: float, b: float) -> Dataset:
    """Copy of ``dataset`` with one raw column mapped to a*x + b."""
    column = tuple(a * v + b for v in dataset.table[criterion])
    return dataset._replace(table={**dataset.table, criterion: column})


def replace_value(dataset: Dataset, player: str, criterion: str, value: float) -> Dataset:
    """Copy of ``dataset`` with a single cell overwritten."""
    column = list(dataset.table[criterion])
    column[dataset.names.index(player)] = value
    return dataset._replace(table={**dataset.table, criterion: tuple(column)})


# -- independent Student-t oracle ------------------------------------------

def t_density(x: float, df: float) -> float:
    """Student-t probability density."""
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2)


def t_cdf_oracle_grid(df: float, t_max: float = 6.0, steps: int = 24000,
                      every: int = 2000) -> list[tuple[float, float]]:
    """CDF values by cumulative trapezoidal integration of the t density.

    Returns (t, F(t)) at every ``every``-th grid point of [0, t_max];
    with the defaults that is t = 0, 0.5, ..., 6.0 and the quadrature
    error is far below 1e-7.
    """
    h = t_max / steps
    xs = [i * h for i in range(steps + 1)]
    fs = [t_density(x, df) for x in xs]
    out = [(0.0, 0.5)]
    acc = 0.0
    for i in range(1, steps + 1):
        acc += 0.5 * (fs[i - 1] + fs[i]) * (xs[i] - xs[i - 1])
        if i % every == 0:
            out.append((xs[i], 0.5 + acc))
    return out
