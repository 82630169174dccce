"""The campaign flight recorder and the module-level instrumentation API.

One :class:`FlightRecorder` combines a :class:`~repro.obs.trace.Tracer`,
a :class:`~repro.obs.metrics.MetricsRegistry` and a sim-time heartbeat.
A campaign installs it process-wide (``with FlightRecorder(...):`` or
:func:`install`), after which the cheap module-level helpers —
:func:`span`, :func:`add`, :func:`set_gauge`, :func:`observe`,
:func:`traced` — route into it from every instrumented layer.

When no recorder is installed the helpers are no-op-cheap: one module
global read and a ``None`` comparison, returning a shared null span.
That property is asserted by the ``@pytest.mark.overhead`` guard tests.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable

from repro.obs import events as obsevents
from repro.obs import log as obslog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, Tracer, process_name_event

_DAY = 86400.0

#: Sim-seconds between heartbeats (one simulated week): the cadence of
#: ``-v`` / ``--serve-obs`` and of every shard worker's spool.
HEARTBEAT_INTERVAL = 7 * _DAY

#: The installed recorder, or None. Read directly on hot paths.
_active: "FlightRecorder | None" = None


def current() -> "FlightRecorder | None":
    """The installed recorder, if any."""
    return _active


def install(recorder: "FlightRecorder") -> "FlightRecorder":
    """Make ``recorder`` the process-wide recorder; returns it."""
    global _active
    _active = recorder
    return recorder


def uninstall() -> None:
    global _active
    _active = None


# -- cheap instrumentation helpers (the only API hot paths should use) ----

def span(name: str, **attrs: Any):
    """A tracer span when recording, the shared null span otherwise."""
    recorder = _active
    if recorder is None:
        return NULL_SPAN
    return recorder.tracer.span(name, **attrs)


def add(name: str, amount: float = 1.0, **labels: object) -> None:
    """Increment a counter iff a recorder is installed."""
    recorder = _active
    if recorder is not None:
        recorder.metrics.counter(name, **labels).inc(amount)


def set_gauge(name: str, value: float, **labels: object) -> None:
    recorder = _active
    if recorder is not None:
        recorder.metrics.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels: object) -> None:
    recorder = _active
    if recorder is not None:
        recorder.metrics.histogram(name, **labels).observe(value)


def heartbeat_line(beat: dict) -> str:
    """The ``-v`` log line of one ``heartbeat`` record's fields."""
    eta = beat.get("eta_s")
    return (f"heartbeat: t={beat['sim_days']:.1f}d "
            f"({beat['progress'] * 100.0:.0f}% of horizon) | "
            f"{beat['events']:,} events ({beat['events_per_sec']:.0f} ev/s)"
            f" | queue depth {beat['queue_depth']:,} | "
            f"ETA {'?' if eta is None else f'{eta:.0f}s'}")


def traced(name: str | None = None, **attrs: Any) -> Callable:
    """Decorator: run the function inside a span of the active recorder.

    Resolution happens at call time, so decorating import-time-defined
    functions costs nothing until a recorder is actually installed.
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder = _active
            if recorder is None:
                return fn(*args, **kwargs)
            with recorder.tracer.span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


class FlightRecorder:
    """Spans + metrics + heartbeat for one campaign run.

    Attach it to a :class:`repro.sim.events.Simulator` to get a periodic
    sim-time heartbeat (events/sec, queue depth, % of horizon, wall-clock
    ETA) on the ``repro.obs`` logger, and final executed/cancelled/
    high-water accounting in the metrics registry.

    Usable as a context manager: entering installs it process-wide,
    exiting restores whatever was installed before.
    """

    def __init__(self, heartbeat_interval: float | None = None,
                 logger=None) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.heartbeat_interval = heartbeat_interval
        self.log = logger or obslog.get_logger("obs")
        self._horizon = 0.0
        self._attach_wall = 0.0
        self._beat_wall = 0.0
        self._beat_events = 0
        self._beat_counters: dict[str, float] = {}
        self._previous: FlightRecorder | None = None
        #: Chrome trace events merged in from other processes (shard
        #: workers), already shifted onto this tracer's timeline.
        self.foreign_events: list[dict] = []
        #: pid -> display name for merged-trace process tracks.
        self.process_names: dict[int, str] = {}

    # -- process-wide installation ----------------------------------------

    def __enter__(self) -> "FlightRecorder":
        self._previous = current()
        install(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._previous is not None:
            install(self._previous)
        else:
            uninstall()
        self._previous = None
        return False

    # -- simulator heartbeat ----------------------------------------------

    def attach(self, simulator, horizon: float) -> None:
        """Hook the simulator's heartbeat and remember the horizon."""
        self._horizon = float(horizon)
        self._attach_wall = self._beat_wall = time.monotonic()
        self._beat_events = simulator.events_executed
        if self.heartbeat_interval and self.heartbeat_interval > 0:
            simulator.heartbeat = self._heartbeat
            simulator.heartbeat_interval = self.heartbeat_interval

    def detach(self, simulator) -> None:
        """Unhook and fold the simulator's counters into the registry."""
        if simulator.heartbeat == self._heartbeat:
            simulator.heartbeat = None
        metrics = self.metrics
        metrics.counter("sim.events_executed_total").inc(
            simulator.events_executed
            - metrics.counter("sim.events_executed_total").value)
        queue = simulator.queue
        metrics.counter("sim.events_cancelled_total").inc(
            queue.events_cancelled
            - metrics.counter("sim.events_cancelled_total").value)
        metrics.gauge("sim.queue_high_water").set_max(queue.high_water)
        metrics.gauge("sim.queue_depth").set(len(queue))
        self.emit_metric_deltas()

    def _heartbeat(self, simulator) -> None:
        now_wall = time.monotonic()
        events = simulator.events_executed
        dt = now_wall - self._beat_wall
        rate = (events - self._beat_events) / dt if dt > 0 else 0.0
        self._beat_wall = now_wall
        self._beat_events = events
        depth = len(simulator.queue)
        frac = simulator.now / self._horizon if self._horizon > 0 else 0.0
        elapsed = now_wall - self._attach_wall
        eta = elapsed * (1.0 - frac) / frac if frac > 0 else float("inf")
        self.metrics.gauge("sim.queue_depth").set(depth)
        self.metrics.gauge("sim.events_per_sec").set(rate)
        self.metrics.gauge("sim.progress").set(frac)
        self.metrics.gauge("sim.queue_high_water").set_max(
            simulator.queue.high_water)
        beat = {"sim_days": round(simulator.now / _DAY, 3),
                "progress": round(frac, 6), "events": events,
                "events_per_sec": round(rate, 1), "queue_depth": depth,
                "eta_s": round(eta, 1) if eta != float("inf") else None}
        obsevents.emit("heartbeat", **beat)
        self.emit_metric_deltas()
        self.log.info("%s", heartbeat_line(beat))

    def emit_metric_deltas(self) -> None:
        """Emit the counter movement since the last call as one event.

        Runs on every heartbeat and at detach; a shard worker calls it
        once more after its spill, so the coordinator's shard supervisor
        folds worker counters into its live registry incrementally and
        the deltas over a worker's lifetime sum exactly to its final
        counters.
        """
        if obsevents.current() is None:
            return
        snapshot = self.metrics.snapshot()["counters"]
        deltas = {}
        for key, value in snapshot.items():
            moved = value - self._beat_counters.get(key, 0.0)
            if moved:
                deltas[key] = moved
        self._beat_counters = snapshot
        if deltas:
            obsevents.emit("metrics.delta", counters=deltas)

    # -- cross-process trace merging ---------------------------------------

    def add_foreign_events(self, events: list[dict],
                           pid: int | None = None,
                           name: str | None = None) -> None:
        """Merge Chrome trace events from another process into the trace.

        ``events`` must already be shifted onto this tracer's timeline
        (see :meth:`repro.obs.trace.Tracer.anchor_wall`); ``name``
        labels the ``pid``'s process track in the merged trace.
        """
        self.foreign_events.extend(events)
        if pid is not None and name:
            self.process_names[int(pid)] = name

    def chrome_trace(self) -> dict:
        """The merged Chrome trace: local spans + foreign (shard) spans,
        plus process-name metadata so every pid reads as a labeled track."""
        events = self.tracer.chrome_events()
        names = dict(self.process_names)
        if self.foreign_events or names:
            names.setdefault(os.getpid(), "coordinator")
        events.extend(self.foreign_events)
        events.sort(key=lambda e: e.get("ts", 0))
        meta = [process_name_event(pid, name)
                for pid, name in sorted(names.items())]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    # -- export ------------------------------------------------------------

    def write_trace(self, path: str) -> None:
        """Chrome trace-event JSON for Perfetto / chrome://tracing.

        Includes any merged shard-worker spans (labeled process tracks).
        """
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)
            fh.write("\n")

    def write_metrics(self, path: str) -> None:
        """Metrics snapshot as JSON (Prometheus form: ``to_prometheus``)."""
        with open(path, "w") as fh:
            json.dump(self.metrics.snapshot(), fh, indent=1)
            fh.write("\n")

    def render(self, min_duration: float = 0.0) -> str:
        """Human summary: span tree plus counter/gauge lines."""
        snap = self.metrics.snapshot()
        lines = [self.tracer.render_tree(min_duration=min_duration)]
        if snap["counters"] or snap["gauges"]:
            lines.append("")
        for key, value in snap["counters"].items():
            lines.append(f"{key} = {value:g}")
        for key, value in snap["gauges"].items():
            lines.append(f"{key} = {value:g}")
        return "\n".join(line for line in lines if line is not None)
