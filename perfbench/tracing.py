"""In-memory span recorder used by the traced run.

A span is one call into a layer, recorded from outside the program: name,
start, end, the span that caused it, and the trace (root span) it belongs
to.  Counts ride on the span as extra fields, so ratios are taken where the
work happens.  Spans stay in memory until the run ends and are then written
out in one piece.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": parent,
            "trace": self.spans[self._stack[0]]["trace"] if self._stack else sid,
            **counts,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another, never overlapping, so their
    durations add up.
    """
    own = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= duration(s)
    return own


def layer_table(spans: list[dict]) -> list[dict]:
    """Per span name: calls, total and self seconds, median call seconds."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    rows = []
    for name in sorted(by_name):
        group = by_name[name]
        rows.append(
            {
                "span": name,
                "calls": len(group),
                "total_s": sum(duration(s) for s in group),
                "self_s": sum(own[s["id"]] for s in group),
                "median_s": statistics.median(duration(s) for s in group),
            }
        )
    return rows


def span_cost_s(samples: int = 2000) -> float:
    """Measured cost of recording one empty span."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("noop"):
            pass
    return (time.perf_counter() - start) / samples
