"""Hierarchical wall-clock tracing spans.

A :class:`Tracer` records a forest of :class:`Span` objects. Spans nest
through a per-thread stack, carry free-form attributes, and know their
wall-clock duration. Two export forms:

- :meth:`Tracer.render_tree` — an indented text summary for terminals;
- :meth:`Tracer.chrome_events` — Chrome trace events (``ph: "X"``
  complete events), which :meth:`repro.obs.FlightRecorder.chrome_trace`
  wraps into a document loadable in Perfetto / ``chrome://tracing``.

The tracer never samples the clock unless a span is actually opened, so
an idle tracer costs nothing.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any


class Span:
    """One timed region. Used as a context manager via ``Tracer.span``."""

    __slots__ = ("name", "attrs", "start", "end", "children", "tid",
                 "_tracer")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start: float | None = None
        self.end: float | None = None
        self.children: list[Span] = []
        self.tid = threading.get_ident()

    @property
    def duration(self) -> float:
        """Wall seconds; 0.0 until the span has closed."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)
        return False

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration:.6f}s, " \
               f"{len(self.children)} children)"


class _NullSpan:
    """Shared do-nothing span: the disabled-path cost is one comparison."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    @property
    def duration(self) -> float:
        return 0.0


#: Module-level singleton handed out whenever tracing is disabled.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans into per-thread trees under one wall-clock epoch."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self._local = threading.local()
        self.epoch = time.perf_counter()

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """A new unstarted span; use as ``with tracer.span("x") as sp:``."""
        return Span(self, name, attrs)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits
            stack.remove(span)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- introspection -----------------------------------------------------

    def roots(self) -> list[Span]:
        with self._lock:
            return list(self._roots)

    def find(self, name: str) -> list[Span]:
        """All spans (depth-first) whose name matches exactly."""
        out: list[Span] = []

        def walk(span: Span) -> None:
            if span.name == name:
                out.append(span)
            for child in span.children:
                walk(child)

        for root in self.roots():
            walk(root)
        return out

    def reset(self) -> None:
        with self._lock:
            self._roots.clear()
        self._local = threading.local()
        self.epoch = time.perf_counter()

    # -- export ------------------------------------------------------------

    def render_tree(self, min_duration: float = 0.0) -> str:
        """Indented per-span summary, children sorted by start time."""
        lines: list[str] = []

        def walk(span: Span, depth: int) -> None:
            if span.duration < min_duration:
                return
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            pad = "  " * depth
            lines.append(f"{pad}{span.name:<{max(44 - 2 * depth, 8)}}"
                         f"{span.duration * 1e3:>12.3f} ms"
                         + (f"  [{attrs}]" if attrs else ""))
            for child in span.children:
                walk(child, depth + 1)

        for root in self.roots():
            walk(root, 0)
        return "\n".join(lines)

    def anchor_wall(self) -> float:
        """Wall-clock (epoch seconds) at this tracer's ``ts=0``.

        Lets another process shift these spans onto its own trace
        timeline: the difference between two tracers' anchors is the
        offset between their ``ts`` scales.
        """
        return time.time() - (time.perf_counter() - self.epoch)

    def chrome_events(self) -> list[dict]:
        """Flat Chrome trace events (``ph: "X"``), sorted by start.

        Stamped with this process's pid; a shard worker ships them in
        its ``shard.trace`` record for the coordinator to merge.
        """
        events: list[dict] = []
        pid = os.getpid()
        epoch = self.epoch

        def walk(span: Span) -> None:
            if span.start is None:
                return
            end = span.end if span.end is not None else span.start
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start - epoch) * 1e6,
                "dur": (end - span.start) * 1e6,
                "pid": pid,
                "tid": span.tid,
                "args": {k: _jsonable(v) for k, v in span.attrs.items()},
            })
            for child in span.children:
                walk(child)

        for root in self.roots():
            walk(root)
        events.sort(key=lambda e: e["ts"])
        return events


def process_name_event(pid: int, name: str) -> dict:
    """A Chrome-trace metadata event labeling ``pid`` in the UI.

    Perfetto renders each pid as a process track titled with this name —
    how merged shard traces stay attributable ("shard 0", "shard 1",
    "coordinator") even though every worker has an arbitrary OS pid.
    """
    return {"name": "process_name", "ph": "M", "cat": "__metadata",
            "ts": 0, "pid": pid, "tid": 0, "args": {"name": name}}


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
