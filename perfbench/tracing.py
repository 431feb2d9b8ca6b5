"""In-memory spans for the traced benchmark run.

Every span records its name, start, end, parent span and the id of the
top-level unit (one set-up round or one operation) it belongs
to. Nothing is written while the run measures; the spans are dumped once
at the end. Self time is a span's duration minus the time its direct
children cover (children of one span never overlap: the run has no
threads).
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    unit: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._units = 0

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        if parent is None:
            self._units += 1
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._units))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with ``spans``."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def layer_table(self, root: str) -> dict[str, dict[str, float | int]]:
        """Per span name under roots called ``root``: median total and self
        seconds per unit, so a layer run inside the measured operation is
        never mixed with the same layer run during set-up."""
        own = self.self_times()
        root_name = {s.unit: s.name for s in self.spans if s.parent is None}
        per: dict[str, dict[int, list[float]]] = {}
        for index, s in enumerate(self.spans):
            if root_name[s.unit] != root:
                continue
            sums = per.setdefault(s.name, {}).setdefault(s.unit, [0.0, 0.0])
            sums[0] += s.end - s.start
            sums[1] += own[index]
        return {
            name: {
                "units": len(units),
                "total_s": statistics.median(v[0] for v in units.values()),
                "self_s": statistics.median(v[1] for v in units.values()),
            }
            for name, units in per.items()
        }

    def dump(self) -> list[dict]:
        own = self.self_times()
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "unit": s.unit, "self_s": own[i]}
            for i, s in enumerate(self.spans)
        ]


class NullTracer:
    """Stands in for :class:`Tracer` where the run measures end to end."""

    def span(self, name: str):
        return nullcontext()
