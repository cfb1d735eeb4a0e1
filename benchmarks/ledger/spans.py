"""The benchmark's own in-memory span recorder.

Spans wrap calls into each layer's public functions *from outside* the
program: name, start, end, parent.  They stay in memory while the run
measures and are written as JSONL when it ends.  A layer's self time is
its span's duration minus the part of that interval its child spans
cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records nested spans on one thread; a disabled recorder records
    nothing, so traced and untraced runs share the workload code."""

    def __init__(self, enabled: bool = True, clock=time.perf_counter):
        self.enabled = enabled
        self._clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        span = Span(
            id=len(self.spans),
            name=name,
            parent=self._stack[-1] if self._stack else None,
            start=self._clock(),
            attrs=attrs,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = self._clock()
            self._stack.pop()

    # ------------------------------------------------------------------
    # Arithmetic.
    # ------------------------------------------------------------------
    def self_time(self, span: Span) -> float:
        """Duration minus the union of the child intervals inside it."""
        covered = 0.0
        cursor = span.start
        children = sorted(
            (child for child in self.spans if child.parent == span.id),
            key=lambda child: child.start,
        )
        for child in children:
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered

    def self_times_by_name(self, under: Optional[Span] = None) -> Dict[str, float]:
        """Summed self time per span name, optionally below one span."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            if under is not None and not self._descends(span, under):
                continue
            totals[span.name] = totals.get(span.name, 0.0) + self.self_time(span)
        return totals

    def coverage(self, root: Span) -> float:
        """Share of *root*'s wall time attributed to a layer below it."""
        if root.duration <= 0:
            return 0.0
        layers = sum(self.self_times_by_name(under=root).values())
        return layers / root.duration

    def _descends(self, span: Span, ancestor: Span) -> bool:
        parent = span.parent
        while parent is not None:
            if parent == ancestor.id:
                return True
            parent = self.spans[parent].parent
        return False

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------
    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = {
                    "id": span.id,
                    "name": span.name,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                }
                if span.attrs:
                    record["attrs"] = span.attrs
                handle.write(json.dumps(record, sort_keys=True) + "\n")
