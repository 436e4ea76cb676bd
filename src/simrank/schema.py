"""Criteria schema: which player statistics count, and in which direction.

A criterion is one statistical column (e.g. key passes per game). Most
criteria are maximization criteria (more is better); a handful measure
mistakes (offsides, fouls committed, bad ball control, dispossessions)
and are minimization criteria, flipped during scaling so that 1 is always
the best value.
"""

from __future__ import annotations

import io
import json
from contextlib import contextmanager
from enum import Enum
from functools import cache
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Union

from .errors import UnknownCriterion

Source = Union[str, Path, IO[str], IO[bytes]]


class Direction(Enum):
    """Whether a larger raw value means better (MAXIMIZE) or worse (MINIMIZE)."""

    MAXIMIZE = "max"
    MINIMIZE = "min"


class CriterionSpec(NamedTuple("_CriterionSpec", [("name", str), ("direction", Direction),
                                                  ("included", bool)])):
    """One statistical column: name, optimization direction, in-scope flag."""

    __slots__ = ()

    def __new__(cls, name: str, direction: Direction, included: bool = True):
        if not name or not name.strip():
            raise ValueError("criterion name must be non-empty")
        return super().__new__(cls, name, direction, included)


class CriteriaSchema(NamedTuple("_CriteriaSchema", [("criteria", tuple[CriterionSpec, ...])])):
    """Ordered collection of criteria; names are unique and at least one is included."""

    __slots__ = ()

    def __new__(cls, criteria: tuple[CriterionSpec, ...]):
        names = [c.name for c in criteria]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate criterion names: {dupes}")
        if not any(c.included for c in criteria):
            raise ValueError("schema includes no criteria")
        return super().__new__(cls, criteria)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.criteria)

    def included_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.criteria if c.included)

    def get(self, name: str) -> CriterionSpec:
        for c in self.criteria:
            if c.name == name:
                return c
        raise UnknownCriterion(name)


@cache
def reference_schema() -> CriteriaSchema:
    """Schema of the bundled 2017/18 dataset: 17 active criteria out of 20 columns.

    13 criteria are maximization criteria, 4 (Offside, Disp, UnschTch,
    Fouls) are minimization criteria. The three season totals (Games,
    Goals, Assists) are present but excluded from the similarity space:
    they scale with matches played and duplicate the per-game columns
    "Goals pg" / "As pg". The schema is read once and shared; it is immutable.
    """
    return schema_from_json(Path(__file__).with_name("data") / "reference_schema.json")


def schema_to_json(schema: CriteriaSchema) -> str:
    """Serialize a schema as a JSON array of {name, direction, included}."""
    payload = [
        {"name": c.name, "direction": c.direction.value, "included": c.included}
        for c in schema.criteria
    ]
    return json.dumps(payload, indent=2) + "\n"


@contextmanager
def _text_stream(source: Source) -> Iterator[IO[str]]:
    """``source`` as a text stream: a path (str or Path) is opened as UTF-8 with
    any BOM dropped and closed afterwards, a binary stream is decoded the same
    way, a text stream passes through. A decode error or malformed JSON
    becomes a ValueError that names the source."""
    owned = isinstance(source, (str, Path))
    stream = open(source, "rb") if owned else source
    if not isinstance(stream.read(0), str):
        stream = io.TextIOWrapper(stream, encoding="utf-8-sig", newline="")
    try:
        yield stream
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        name = source if owned else getattr(source, "name", "<stream>")
        raise ValueError(f"{name}: {exc}") from None
    finally:
        if owned:
            stream.close()
        elif stream is not source:
            stream.detach()  # leave the caller's binary stream open


def schema_from_json(source: Source) -> CriteriaSchema:
    """Load a schema from a JSON file path or an open stream."""
    with _text_stream(source) as stream:
        items = json.load(stream)
    named = isinstance(items, list) and all(isinstance(i, dict) and isinstance(i.get("name"), str)
                                            for i in items)
    if not named:
        raise ValueError('schema must be a JSON array of objects with a "name"')
    criteria = []
    for item in items:
        name, direction, included = item["name"], item.get("direction"), item.get("included", True)
        if direction not in ("max", "min"):
            raise ValueError(f'criterion {name!r}: direction must be "max" or "min", '
                             f"got {direction!r}")
        if not isinstance(included, bool):
            raise ValueError(f"criterion {name!r}: included must be true or false, "
                             f"got {included!r}")
        criteria.append(CriterionSpec(name, Direction(direction), included))
    return CriteriaSchema(tuple(criteria))
