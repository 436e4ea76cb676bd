"""Criteria schema: which player statistics count, and in which direction.

A criterion is one statistical column (e.g. key passes per game). Most
criteria are maximization criteria (more is better); a handful measure
mistakes (offsides, fouls committed, bad ball control, dispossessions)
and are minimization criteria, flipped during scaling so that 1 is always
the best value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Union

from .errors import UnknownCriterion


class Direction(Enum):
    """Whether a larger raw value means better (MAXIMIZE) or worse (MINIMIZE)."""

    MAXIMIZE = "max"
    MINIMIZE = "min"


@dataclass(frozen=True)
class CriterionSpec:
    """One statistical column: name, optimization direction, in-scope flag."""

    name: str
    direction: Direction
    included: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.strip():
            raise ValueError("criterion name must be non-empty")


@dataclass(frozen=True)
class CriteriaSchema:
    """Ordered collection of criteria; names are unique and at least one is included."""

    criteria: tuple[CriterionSpec, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.criteria]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate criterion names: {dupes}")
        if not any(c.included for c in self.criteria):
            raise ValueError("schema includes no criteria")

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.criteria)

    def included_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.criteria if c.included)

    def get(self, name: str) -> CriterionSpec:
        for c in self.criteria:
            if c.name == name:
                return c
        raise UnknownCriterion(name)

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.criteria)


def reference_schema() -> CriteriaSchema:
    """Schema of the bundled 2017/18 dataset: 17 active criteria out of 20 columns.

    13 criteria are maximization criteria, 4 (Offside, Disp, UnschTch,
    Fouls) are minimization criteria. The three season totals (Games,
    Goals, Assists) are present but excluded from the similarity space:
    they scale with matches played and duplicate the per-game columns
    "Goals pg" / "As pg".
    """
    return schema_from_json(Path(__file__).with_name("data") / "reference_schema.json")


def schema_to_json(schema: CriteriaSchema) -> str:
    """Serialize a schema as a JSON array of {name, direction, included}."""
    payload = [
        {"name": c.name, "direction": c.direction.value, "included": c.included}
        for c in schema.criteria
    ]
    return json.dumps(payload, indent=2) + "\n"


def schema_from_json(source: Union[str, Path, IO[str]]) -> CriteriaSchema:
    """Load a schema from a JSON file path, an open text stream, or a JSON string."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        source = str(source)
        text = Path(source).read_text(encoding="utf-8") if not source.lstrip().startswith("[") else source
    items = json.loads(text)
    named = isinstance(items, list) and all(isinstance(i, dict) and isinstance(i.get("name"), str)
                                            for i in items)
    if not named:
        raise ValueError('schema must be a JSON array of objects with a "name"')
    criteria = []
    for item in items:
        included = item.get("included", True)
        if not isinstance(included, bool):
            raise ValueError(f"criterion {item['name']!r}: included must be true or false, "
                             f"got {included!r}")
        criteria.append(CriterionSpec(item["name"], Direction(item.get("direction")), included))
    return CriteriaSchema(tuple(criteria))
