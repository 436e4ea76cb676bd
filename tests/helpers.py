"""Shared builders and independent numeric oracles for the test suite."""

from __future__ import annotations

import contextlib
import math
import os
import struct
from array import array
from typing import Iterable, Sequence

import pytest

from simrank import (
    CorrelationMatrix,
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
    """Assemble a small synthetic Dataset from per-criterion value lists, each stored as an
    ``array("d")`` the way load_dataset stores it, so the two compare equal."""
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
    table = {name: array("d", map(float, values)) for name, values in columns.items()}
    return Dataset(schema, tuple(players), table)


def transform_column(dataset: Dataset, criterion: str, a: float, b: float) -> Dataset:
    """Copy of ``dataset`` with one raw column mapped to a*x + b."""
    column = array("d", (a * v + b for v in dataset.table[criterion]))
    return dataset._replace(table={**dataset.table, criterion: column})


def replace_value(dataset: Dataset, player: str, criterion: str, value: float | None) -> Dataset:
    """Copy of ``dataset`` with a single cell overwritten; the column becomes a tuple, so the
    cell may be None, a missing value."""
    column = list(dataset.table[criterion])
    column[dataset.names.index(player)] = value
    return dataset._replace(table={**dataset.table, criterion: tuple(column)})


def cell_bytes(matrix: CorrelationMatrix) -> bytes:
    """Every cell's rho, p-value and stars as bytes, so two matrices compare bit for bit."""
    return b"".join(struct.pack("<dd", c.rho, c.p_value) + c.stars.encode() for row in matrix.cells for c in row)


@contextlib.contextmanager
def leaves_no_child_or_descriptor():
    """Fails if the block leaves a child process, running or unreaped, or an open descriptor."""
    fds = "/proc/self/fd"
    before = len(os.listdir(fds)) if os.path.isdir(fds) else None
    yield
    with pytest.raises(ChildProcessError):  # no child at all
        os.waitpid(-1, os.WNOHANG)
    if before is not None:
        assert len(os.listdir(fds)) <= before


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
