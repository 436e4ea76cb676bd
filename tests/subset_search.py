"""Search harness for the active-criterion hypothesis.

The bundled schema keeps 17 of the 20 data columns, dropping the three
season totals. If the golden ranking ever disagreed systematically, this
harness finds which 17-column subset (the four lower-is-better criteria
stay fixed) best reproduces the golden distances, scored by maximum
absolute deviation.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from simrank import Dataset, Direction


def _scaled_column(dataset: Dataset, criterion: str) -> dict[str, float]:
    values = dict(zip(dataset.names, dataset.column(criterion)))
    lo, hi = min(values.values()), max(values.values())
    spread = hi - lo
    if spread == 0.0:
        return {name: 0.0 for name in values}
    if dataset.schema.get(criterion).direction is Direction.MINIMIZE:
        return {name: (hi - v) / spread for name, v in values.items()}
    return {name: (v - lo) / spread for name, v in values.items()}


def search_column_subsets(
    dataset: Dataset,
    target: str,
    golden: Sequence[tuple[str, float]],
    fixed: Sequence[str],
    choose: int,
) -> list[tuple[float, tuple[str, ...]]]:
    """Score every candidate column subset against the golden distances.

    ``fixed`` columns are always active; every combination of ``choose``
    columns from the remaining ones completes the set. Returns
    (max_abs_deviation, excluded_columns) sorted best first.
    """
    all_columns = [c.name for c in dataset.schema.criteria]
    candidates = [c for c in all_columns if c not in fixed]
    players = [name for name, _ in golden]
    expected = dict(golden)

    # per-column |target - player| contributions, computed once
    contributions: dict[str, dict[str, float]] = {}
    for column in all_columns:
        scaled = _scaled_column(dataset, column)
        origin = scaled[target]
        contributions[column] = {p: abs(origin - scaled[p]) for p in players}

    fixed_base = {p: sum(contributions[c][p] for c in fixed) for p in players}

    results = []
    for combo in combinations(candidates, choose):
        worst = 0.0
        for p in players:
            d = fixed_base[p] + sum(contributions[c][p] for c in combo)
            dev = abs(d - expected[p])
            if dev > worst:
                worst = dev
        excluded = tuple(c for c in candidates if c not in combo)
        results.append((worst, excluded))
    results.sort(key=lambda item: (item[0], item[1]))
    return results
