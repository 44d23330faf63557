"""In-memory span tracer that wraps calls into the program from outside.

The benchmark never edits the program: :meth:`Tracer.wrap` replaces a
function attribute (a method on a class, or a function in a module) with a
wrapper that records one span per call.  Each span keeps its name, start,
end, thread and the span that was open on the same thread when it started
(its parent).  Spans stay in memory until the run ends, when
:meth:`Tracer.write_chrome_trace` writes them as Chrome trace-event JSON
that Perfetto and ``chrome://tracing`` open.

A layer's *self time* is its span's duration minus the time its direct
child spans cover (see :func:`self_times`), so the self times of all spans
under a root add up to the root's duration minus its own unattributed
remainder.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    """One timed call: ``[start_ns, end_ns)`` on thread ``tid``."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    tid: int
    parent: Optional[int]

    @property
    def seconds(self) -> float:
        """Duration in seconds."""
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans around wrapped callables; off until something is wrapped."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Counters read at the same boundaries as the spans (``count``).
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._ids = 0
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str):
        """Context manager recording one span named ``name``."""
        return _SpanContext(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self) -> Tuple[int, Optional[int]]:
        with self._lock:
            self._ids += 1
            span_id = self._ids
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: Optional[int], name: str, start: int) -> None:
        end = time.perf_counter_ns()
        self._stack().pop()
        # list.append is atomic under the GIL; spans from worker threads land
        # here without a lock.
        self.spans.append(Span(span_id, name, start, end, threading.get_ident(), parent))

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attribute``.

        ``owner`` is a class (for methods) or a module (for functions).
        ``on_result`` is called with each return value, so a counter can be
        read where the work happens (e.g. cache hits returned by a call).
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, start)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute (latest first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def by_name(self, name: str) -> List[Span]:
        """Every recorded span called ``name``, in completion order."""
        return [span for span in self.spans if span.name == name]

    def write_chrome_trace(self, path: str) -> str:
        """Write the spans as Chrome trace-event JSON; returns ``path``."""
        origin = min((span.start_ns for span in self.spans), default=0)
        pid = os.getpid()
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start_ns - origin) / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": pid,
                "tid": span.tid,
                "args": {"id": span.span_id, "parent": span.parent},
            }
            for span in sorted(self.spans, key=lambda span: span.start_ns)
        ]
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return path


class _SpanContext:
    __slots__ = ("tracer", "name", "span_id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.span_id, self.parent = self.tracer._open()
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self.span_id, self.parent, self.name, self.start)


def self_times(spans: Iterable[Span]) -> Dict[str, Tuple[float, int]]:
    """Per-name ``(self seconds, calls)``: duration minus direct children."""
    spans = list(spans)
    child_ns: Dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] = child_ns.get(span.parent, 0) + (span.end_ns - span.start_ns)
    totals: Dict[str, Tuple[float, int]] = {}
    for span in spans:
        own = (span.end_ns - span.start_ns - child_ns.get(span.span_id, 0)) / 1e9
        seconds, calls = totals.get(span.name, (0.0, 0))
        totals[span.name] = (seconds + own, calls + 1)
    return totals
