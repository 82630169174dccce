"""repro.obs — zero-dependency observability for the whole pipeline.

Three parts (see DESIGN.md §5):

- :mod:`repro.obs.metrics` — thread-safe process-wide registry of
  counters, gauges and log-scale histograms with JSON and Prometheus
  exports;
- :mod:`repro.obs.trace` — hierarchical wall-clock spans with a
  context-manager/decorator API and Chrome trace-event export;
- :mod:`repro.obs.recorder` — the :class:`FlightRecorder` a campaign
  attaches to (spans + metrics + sim-time heartbeat), plus the cheap
  module-level helpers every instrumented call site uses.

Instrumented code imports this package only::

    from repro import obs

    with obs.span("analysis.sessionize", telescope="T1"):
        ...
    obs.add("telescope.packets_total", telescope="T1")

With no recorder installed every helper is a global read plus a ``None``
check — cheap enough for per-packet hot paths.
"""

from repro.obs import events, ledger, log, server
from repro.obs.events import EventLog
from repro.obs.events import emit as event
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry)
from repro.obs.recorder import (HEARTBEAT_INTERVAL, FlightRecorder, add,
                                current, heartbeat_line, install, observe,
                                set_gauge, span, traced, uninstall)
from repro.obs.server import ObsServer, StatusBoard
from repro.obs.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Span", "Tracer", "NULL_SPAN",
    "FlightRecorder", "HEARTBEAT_INTERVAL", "heartbeat_line",
    "current", "install", "uninstall",
    "span", "add", "set_gauge", "observe", "traced",
    "log", "events", "event", "EventLog", "server", "ObsServer",
    "StatusBoard", "ledger",
]
