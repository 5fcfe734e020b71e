"""In-memory spans for the traced benchmark run.

A span is ``(name, start, end, parent, request_id)``: one root span per
request / training iteration / remote trace, child spans around each call the
benchmark makes into a layer.  Spans stay in memory during the run and are
written out as Chrome trace-event JSON (``chrome://tracing``, Perfetto) when
it ends.  A layer's *self time* is its span minus the part of that interval
its children cover.

The untraced run uses ``Tracer(enabled=False)``: ``span`` hands back one shared
no-op context manager and ``record`` returns immediately, so the end-to-end
numbers carry no span bookkeeping.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Dict, List, Optional

__all__ = ["Tracer", "Span", "measure_span_cost"]


class Span:
    """One timed interval; ``end`` is filled in when the interval closes."""

    __slots__ = ("id", "name", "start", "end", "parent", "request_id", "thread")

    def __init__(self, span_id, name, start, end, parent, request_id, thread) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request_id = request_id
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


_NO_SPAN = contextlib.nullcontext(None)


class Tracer:
    """Collects spans from any thread; all times are ``time.perf_counter``."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.spans: List[Span] = []
        self._lock = threading.Lock()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request_id: Optional[int] = None,
    ) -> Optional[int]:
        """Add a span whose interval was measured by the caller; returns its id."""
        if not self.enabled:
            return None
        thread = threading.get_ident()
        with self._lock:
            span = Span(len(self.spans), name, start, end, parent, request_id, thread)
            self.spans.append(span)
        return span.id

    def span(self, name: str, parent: Optional[int] = None, request_id: Optional[int] = None):
        """Context manager timing its body; yields the span id (``None`` when off)."""
        if not self.enabled:
            return _NO_SPAN
        return self._timed(name, parent, request_id)

    @contextlib.contextmanager
    def _timed(self, name, parent, request_id):
        span_id = self.record(name, time.perf_counter(), float("nan"), parent, request_id)
        try:
            yield span_id
        finally:
            self.spans[span_id].end = time.perf_counter()

    # ------------------------------------------------------------------ reading
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            covered, cursor = 0.0, span.start
            for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
                low, high = max(child.start, cursor), min(child.end, span.end)
                if high > low:
                    covered += high - low
                    cursor = high
            entry = out.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.duration - covered
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as a complete (``ph: X``) Chrome trace event."""
        origin = min((span.start for span in self.spans), default=0.0)
        threads = {ident: index for index, ident in enumerate(sorted({s.thread for s in self.spans}))}
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": threads[span.thread],
                "args": {"id": span.id, "parent": span.parent, "request_id": span.request_id},
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def measure_span_cost(samples: int = 2000) -> float:
    """Seconds one open-and-close of a span costs (for ``trace.span_overhead_share``)."""
    probe = Tracer(enabled=True)
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / samples
