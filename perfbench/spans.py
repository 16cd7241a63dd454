"""Spans around every public call into the silopile modules.

The tracer sits outside the program.  It replaces each public function,
and each public method of the package's classes, by a wrapper that records
a span (name, start, end, parent) and, for a few boundaries, counts taken
from the call's arguments and result.  Modules bind names at import
(``from .regions import partition``), so a function is patched at every
module attribute that holds it, not only where it is defined.  Spans stay
in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("cli", "config", "sources", "geometry", "regions", "cones", "fields", "verify")

# Bytes a partition moves per source-cell pair, counted as its (k, m, 2)
# float64 difference array written once and read once.  Computed from the
# array sizes, not measured.
PARTITION_BYTES_PER_PAIR = 32


def _partition_counts(args, kwargs, result):
    grid, radii = args[0], args[2]
    cells = int(grid.inside_mask.sum())
    return {"cells": cells, "bytes_computed": PARTITION_BYTES_PER_PAIR * len(radii) * cells}


def _problem_counts(args, kwargs, result):
    return {"demand_nodes": result.n_demand, "boundary_nodes": result.n_boundary}


def _dual_counts(args, kwargs, result):
    p = result.problem
    n = len(p.supply_masses) + p.n_demand + p.n_boundary
    # Two Lipschitz inequalities per node pair.
    return {"dual_nodes": n, "dual_constraints": n * (n - 1)}


def _primal_counts(args, kwargs, result):
    p = args[0]
    return {"cost_cells": len(p.supply_masses) * (p.n_demand + p.n_boundary)}


# Counts recorded at a boundary, keyed by span name.
COUNTERS = {
    "regions.partition": _partition_counts,
    "cones.run": lambda args, kwargs, result: {"freezes": len(result.freeze_events)},
    "fields.field_to_csv": lambda args, kwargs, result: {"csv_bytes": len(result)},
    "fields.boundary_measure_to_lines": lambda args, kwargs, result: {"csv_bytes": len(result)},
    "verify.build_problem": _problem_counts,
    "verify.solve_dual": _dual_counts,
    "verify.solve_primal": _primal_counts,
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "counts")

    def __init__(self, name, op, parent, start=0.0, end=0.0, counts=None):
        self.name = name
        self.op = op          # operation (request) the span belongs to
        self.parent = parent  # index of the enclosing span, or None
        self.start = start
        self.end = end
        self.counts = counts

    def as_dict(self):
        return {
            "name": self.name,
            "op": self.op,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Patches the package on install() and restores it on uninstall()."""

    def __init__(self, op: int = 0):
        self.spans: list[Span] = []
        self.op = op  # identifier shared by the spans of one operation
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, self.op, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> int:
        """Wrap every public function and method; returns the number of patches."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    for mattr, mobj in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(mobj):
                            self._patch(obj, mattr, self._wrap(f"{short}.{mattr}", mobj))
        for namespace in [package, *modules]:
            for attr, obj in list(vars(namespace).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    self._patch(namespace, attr, found[1])
        return len(self._saved)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def inclusive_time(spans, names) -> float:
    """Time covered by spans named in ``names``, counting nested ones once."""
    names = set(names)
    inside = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        enclosed = s.parent is not None and inside[s.parent]
        inside[i] = enclosed or s.name in names
        if s.name in names and not enclosed:
            total += s.end - s.start
    return total


def count(spans, name, key=None) -> int:
    """Number of spans called ``name``, or the sum of one of their counts."""
    if key is None:
        return sum(1 for s in spans if s.name == name)
    return sum(s.counts[key] for s in spans if s.name == name and s.counts)


def child_count(spans, name, parent_name) -> int:
    """Spans called ``name`` whose direct parent is called ``parent_name``."""
    return sum(
        1
        for s in spans
        if s.name == name and s.parent is not None and spans[s.parent].name == parent_name
    )


def self_time_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        row = table.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    for name, row in table.items():
        row["s"] = inclusive_time(spans, [name])
    return table
