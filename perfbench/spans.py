"""In-memory spans around simrank's layer boundaries, installed from outside.

``Tracer.install`` wraps each target once, at the module (or class) that
defines it, and then points every other loaded ``simrank`` module attribute
that still holds the original at the wrapper too, because
``from .x import f`` copies the binding into the importing module. A name
that no longer exists is skipped, and its layer reads 0. ``uninstall``
puts the originals back; nothing in simrank is edited. Each call becomes a
span record ``[name, start_ns, end_ns, parent_index, counters]``. A span's
self time is its duration minus the durations of its direct children;
calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import importlib
import sys
import time


def _loaded(result):
    rows = len(result.players)
    return {"dataset.rows": rows, "dataset.cells": rows * len(result.players[0].values)}


def _scaled(result):
    return {"normalization.cells": len(result.players) * len(result.criteria)}


def _emitted(result):
    return {"reports.bytes": len(result.encode("utf-8"))}


def _one(key):
    return lambda result: {key: 1}


# (span name, counters from the result, defining module, [attribute path, ...])
TARGETS = (
    ("dataset.load_ms", _loaded, "simrank.dataset", ["load_dataset"]),
    ("schema.ms", None, "simrank.schema", ["reference_schema", "CriteriaSchema.names",
                                           "CriteriaSchema.included_names", "CriteriaSchema.get"]),
    ("normalization.normalize_ms", _scaled, "simrank.normalization", ["normalize"]),
    ("normalization.extrema_ms", None, "simrank.normalization", ["column_extrema"]),
    ("metrics.distance_ms", lambda r: {"metrics.distances": len(r)}, "simrank.metrics", ["distance_to_target"]),
    ("ranking.rank_ms", lambda r: {"ranking.entries": len(r.entries)}, "simrank.ranking", ["rank_by_similarity"]),
    ("correlation.matrix_ms", None, "simrank.correlation", ["correlation_matrix"]),
    ("correlation.pearson_ms", _one("correlation.pairs"), "simrank.correlation", ["pearson"]),
    ("special.p_value_ms", _one("special.calls"), "simrank.special", ["student_t_two_tailed"]),
    ("correlation.top_pairs_ms", None, "simrank.correlation", ["top_correlated_pairs"]),
    ("reports.emit_ms", _emitted, "simrank.reports", [
        "emit_ranking", "emit_scatter", "normalized_to_csv", "correlation_to_csv",
        "top_pairs_table", "top_pairs_csv", "top_pairs_json"]),
)

SPAN_NAMES = tuple(name for name, _, _, _ in TARGETS)
COUNTER_NAMES = ("dataset.rows", "dataset.cells", "normalization.cells", "metrics.distances",
                 "ranking.entries", "correlation.pairs", "special.calls", "reports.bytes")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, counters, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if counters is not None:
                record[4] = counters(result)
            return result

        return traced

    def _replace(self, owner, attr, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target that exists, and every copy of it in a loaded simrank module."""
        wrappers = {}
        for name, counters, module_name, paths in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            for path in paths:
                owner = module
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrappers[id(original)] = self._wrap(name, counters, original)
                self._replace(owner, attr, wrappers[id(original)])
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "simrank" or module_name.startswith("simrank.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._replace(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def totals(spans: list[list]) -> dict[str, float]:
    """Self time (ns) per span name and the sum of every counter."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _, counters), children in zip(spans, child_ns):
        out[name] = out.get(name, 0) + (end - start - children)
        for key, value in (counters or {}).items():
            out[key] = out.get(key, 0) + value
    return out
