"""Live status + metrics HTTP server (zero-dependency, stdlib only).

One :class:`ObsServer` exposes a running pipeline over plain HTTP:

- ``GET /metrics`` — the active registry in Prometheus text exposition
  format, scrape-ready;
- ``GET /status``  — JSON: run id, current stage, coordinator progress
  (sim days, %, ev/s, ETA) and per-shard progress of a sharded build;
- ``GET /events``  — JSON tail of the structured run-event log
  (``?n=`` bounds the tail, default 200);
- ``GET /trace``   — the merged Chrome trace (coordinator + shard
  spans) as Perfetto-loadable JSON.

The server is a :class:`~http.server.ThreadingHTTPServer` on a daemon
thread: requests never block the pipeline and the process exits without
ceremony. Handlers read live state (the installed
:class:`~repro.obs.FlightRecorder`, the installed
:class:`~repro.obs.events.EventLog`, a :class:`StatusBoard`) under the
structures' own locks, so a scrape during a build observes a consistent
snapshot without pausing workers.

The :class:`StatusBoard` is an event-stream projection: register it as
a listener on the run's event log and it folds ``stage.*``,
``heartbeat``, and ``shard.*`` records into the ``/status`` document —
including records forwarded from shard-worker spools, which is how
per-shard progress appears while workers are still running.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs import events as obsevents
from repro.obs import log as obslog
from repro.obs import recorder as obsrecorder

_log = obslog.get_logger("obs.server")

#: Default number of records ``/events`` returns.
DEFAULT_EVENT_TAIL = 200


class StatusBoard:
    """Thread-safe projection of the run-event stream for ``/status``.

    Attach with ``event_log.add_listener(board.on_event)``; every field
    the board exposes is derived from events, so the same document works
    for in-process runs, sharded builds (worker records arrive as the
    shard supervisor drains their spools) and post-hoc replays of an
    event log.
    """

    def __init__(self, run_id: str | None = None) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self._state: dict = {
            "run_id": run_id,
            "stage": None,
            "stages_done": {},
            "progress": {},
            "shards": {},
            "events_seen": 0,
            "last_event": None,
        }

    def on_event(self, record: dict) -> None:
        kind = record.get("kind", "")
        shard = record.get("shard")
        with self._lock:
            state = self._state
            state["events_seen"] += 1
            state["last_event"] = kind
            if state["run_id"] is None and record.get("run_id"):
                state["run_id"] = record["run_id"]
            if kind == "stage.start" and shard is None:
                state["stage"] = record.get("stage")
            elif kind == "stage.end" and shard is None:
                state["stages_done"][record.get("stage")] = \
                    record.get("seconds")
                if state["stage"] == record.get("stage"):
                    state["stage"] = None
            elif kind == "heartbeat":
                progress = {
                    "sim_days": record.get("sim_days"),
                    "progress": record.get("progress"),
                    "events": record.get("events"),
                    "events_per_sec": record.get("events_per_sec"),
                    "queue_depth": record.get("queue_depth"),
                    "eta_s": record.get("eta_s"),
                }
                if shard is None:
                    state["progress"] = progress
                else:
                    entry = state["shards"].setdefault(
                        str(shard), {"done": False})
                    entry.update(progress)
            elif kind == "shard.start":
                entry = state["shards"].setdefault(str(shard), {})
                entry["done"] = False
                entry["attempt"] = record.get("attempt", 1)
            elif kind == "shard.end":
                entry = state["shards"].setdefault(str(shard), {})
                entry["done"] = True
                entry["packets_emitted"] = record.get("packets_emitted")
            elif kind == "shard.retry":
                entry = state["shards"].setdefault(str(shard), {})
                entry["done"] = False
                entry["retries"] = entry.get("retries", 0) + 1
                entry["last_failure"] = record.get("cause")
            elif kind == "shard.timeout":
                entry = state["shards"].setdefault(str(shard), {})
                entry["timed_out"] = True
                entry["last_failure"] = "timeout"
            elif kind == "shard.quarantined":
                entry = state["shards"].setdefault(str(shard), {})
                entry["done"] = True
                entry["quarantined"] = True
                entry["last_failure"] = record.get("cause")
            elif kind == "shard.skipped":
                entry = state["shards"].setdefault(str(shard), {})
                entry["done"] = True
                entry["restored"] = True
            elif kind == "run.end":
                state["stage"] = "done"

    def snapshot(self) -> dict:
        with self._lock:
            state = json.loads(json.dumps(self._state, default=str))
        state["uptime_s"] = round(time.time() - self._started, 1)
        return state


class _Handler(BaseHTTPRequestHandler):
    """Routes the four endpoints; all state lives on the server object."""

    server: "_Server"
    protocol_version = "HTTP/1.1"
    #: headers and body are flushed as separate segments; without
    #: TCP_NODELAY, Nagle + delayed ACK adds ~40ms to every response.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/metrics":
                self._send(200, self._metrics_text(),
                           "text/plain; version=0.0.4; charset=utf-8")
            elif route == "/status":
                self._send_json(self._status_doc())
            elif route == "/events":
                query = parse_qs(parsed.query)
                try:
                    tail = int(query.get("n", [DEFAULT_EVENT_TAIL])[0])
                except ValueError:
                    tail = DEFAULT_EVENT_TAIL
                self._send_json(self._events_doc(tail))
            elif route == "/trace":
                self._send_json(self._trace_doc())
            elif route == "/":
                self._send(200, "repro obs server\n"
                           "endpoints: /metrics /status /events /trace\n",
                           "text/plain; charset=utf-8")
            else:
                self._send(404, f"no such endpoint {route}\n",
                           "text/plain; charset=utf-8")
        except Exception as exc:  # never kill the serving thread
            try:
                self._send(500, f"internal error: {exc}\n",
                           "text/plain; charset=utf-8")
            except OSError:  # client went away mid-reply
                pass

    # -- endpoint bodies ---------------------------------------------------

    def _recorder(self):
        return self.server.recorder or obsrecorder.current()

    def _metrics_text(self) -> str:
        recorder = self._recorder()
        if recorder is None:
            return "# no recorder installed\n"
        return recorder.metrics.to_prometheus()

    def _status_doc(self) -> dict:
        board = self.server.board
        doc = board.snapshot() if board is not None else {}
        recorder = self._recorder()
        if recorder is not None:
            gauges = recorder.metrics.snapshot()["gauges"]
            doc.setdefault("gauges", {k: v for k, v in gauges.items()
                                      if k.startswith("sim.")})
        return doc

    def _events_doc(self, tail: int) -> list[dict]:
        log = self.server.event_log or obsevents.current()
        if log is None:
            return []
        return obsevents.read_events(log.path, tail=tail)

    def _trace_doc(self) -> dict:
        recorder = self._recorder()
        if recorder is None:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        return recorder.chrome_trace()

    # -- plumbing ----------------------------------------------------------

    def _send_json(self, payload) -> None:
        self._send(200, json.dumps(payload, indent=1, default=str) + "\n",
                   "application/json; charset=utf-8")

    def _send(self, code: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, fmt: str, *args) -> None:
        _log.debug("http %s", fmt % args)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: live references the handlers read; ``None`` falls back to the
    #: process-wide installed recorder / event log at request time.
    recorder = None
    board: StatusBoard | None = None
    event_log: "obsevents.EventLog | None" = None


class ObsServer:
    """Serve ``/metrics``, ``/status``, ``/events`` and ``/trace``.

    ``port=0`` binds an ephemeral port (tests); :attr:`port` reports the
    bound one either way. Usable as a context manager::

        with ObsServer(port=9102, board=board) as server:
            run_experiment(...)
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1",
                 recorder=None, board: StatusBoard | None = None,
                 event_log: "obsevents.EventLog | None" = None) -> None:
        self._server = _Server((host, port), _Handler)
        self._server.recorder = recorder
        self._server.board = board
        self._server.event_log = event_log
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "ObsServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            name="repro-obs-server", daemon=True)
        self._thread.start()
        _log.info("obs server listening on %s "
                  "(/metrics /status /events /trace)", self.url)
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._thread.join(timeout=5.0)
        self._server.server_close()
        self._thread = None

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False
