"""In-memory span recorder for the traced pass.

Spans are recorded from the benchmark's own files, around the public
calls it makes into each layer (spans inside ``src/repro`` are a later
issue).  A span is ``(id, name, start, end, parent, op)``; spans of one
op share its id.  Self time is the span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on the host clock."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._stack: list[int] = []
        self.spans: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        span = Span(len(self.spans), name, self._clock(), 0.0, parent, op)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus its direct children's durations.

        Children of one span never overlap (the recorder is a stack),
        so the covered part of the interval is their plain sum.
        """
        own = {span.id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def by_name(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds."""
        own = self.self_times()
        table: dict[str, dict] = {}
        for span in self.spans:
            row = table.setdefault(
                span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += own[span.id]
        return table

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


class NoTracer:
    """The tracing-off recorder: ``span`` costs one attribute lookup."""

    _null = contextlib.nullcontext()

    def span(self, name: str, op: str | None = None):
        return self._null


NO_TRACE = NoTracer()
