"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls *into* the program's layers, from the
benchmark's side: either around the benchmark's own call sites
(:meth:`Tracer.span`) or by replacing a public function or method with a
timing wrapper for the life of the process (:meth:`Tracer.wrap`).  The
program's code is never edited.

Each span keeps its name, start, end and the id of the span that was
open when it started (its parent).  A layer's *self time* is its span's
duration minus the time covered by its child spans.  Spans stay in
memory and are written once, as Chrome trace-event JSON, when the round
ends (:meth:`Tracer.write_chrome`).
"""

from __future__ import annotations

import functools
import json
import os
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Collects nested spans in one single-threaded process."""

    def __init__(self):
        #: (id, name, start_ns, end_ns, parent_id) per finished span.
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr, traced)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        child_ns: dict[int, int] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        totals: dict[str, float] = {}
        for span_id, name, start, end, _ in self.spans:
            own = (end - start) - child_ns.get(span_id, 0)
            totals[name] = totals.get(name, 0.0) + own / 1e9
        return totals

    def write_chrome(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``)."""
        origin = min((s[2] for s in self.spans), default=0)
        pid = os.getpid()
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": 0,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, name, start, end, parent in sorted(
                self.spans, key=lambda s: s[2]
            )
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
