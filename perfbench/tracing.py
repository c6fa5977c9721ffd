"""Span recording around csgp's public functions, and the per-layer metrics
computed from the spans.

The tracer lives entirely in the benchmark: it wraps each traced function
once and binds that one wrapper to every module attribute that names the
function (``csgp.solvers.solve_dp``, ``csgp.cli.solve_dp`` and
``csgp.solve_dp`` all get the same object), so a call is recorded once
whichever name it went through.  Spans are kept in memory and written out
when the pass ends.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    cell: str | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "cell": self.cell,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Records one span per call of a wrapped function.

    ``cell`` names the benchmark cell the calls belong to; ``count`` hooks
    turn a call's arguments and result into work counters stored on its span.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.cell: str | None = None
        self._stack: list[Span] = []

    def wrap(self, name: str, fn, count=None):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1].id if tracer._stack else None
            span = Span(len(tracer.spans), parent, name, tracer.cell, tracer.clock())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets: dict, modules) -> Callable[[], None]:
        """Bind one wrapper per target to every attribute naming it.

        ``targets`` maps a span name to ``(function, count_hook_or_None)``.
        Returns a function that restores the original bindings.
        """
        wrappers = {}
        for name, (fn, count) in targets.items():
            if id(fn) in wrappers:
                raise ValueError(f"{name} names a function that is already traced")
            wrappers[id(fn)] = (fn, self.wrap(name, fn, count))
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, hit[1])

        def restore() -> None:
            for module, attr, value in undo:
                setattr(module, attr, value)

        return restore

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = (span.end - span.start) - covered
    return result


def function_stats(spans, names) -> dict[str, dict]:
    """Per function: summed self time, call count, median inclusive time, summed counters."""
    own = self_times(spans)
    stats = {name: {"s": 0.0, "calls": 0, "inclusive": [], "counts": {}} for name in names}
    for span in spans:
        entry = stats.setdefault(span.name, {"s": 0.0, "calls": 0, "inclusive": [], "counts": {}})
        entry["s"] += own[span.id]
        entry["calls"] += 1
        entry["inclusive"].append(span.end - span.start)
        for key, value in span.counts.items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    for entry in stats.values():
        inclusive = entry.pop("inclusive")
        entry["p50_ms"] = statistics.median(inclusive) * 1e3 if inclusive else 0.0
    return stats


def ratio(numerator: float, base: float) -> float:
    """numerator / base, or 0 when the base is empty (the layer did no such work)."""
    return numerator / base if base else 0.0
