"""Append-only, schema-versioned JSONL run-event log.

One :class:`EventLog` records the *structured* history of a run — stage
transitions, shard-manifest records, fault injections, chunk
quarantines, degradation warnings, shard lifecycle — as one JSON object
per line.
Every record carries the run id, a monotonically increasing sequence
number, and both wall-clock (``wall``, epoch seconds — comparable
across processes) and monotonic (``mono`` — immune to clock steps)
timestamps, so interleaved shard and coordinator streams can be ordered
and attributed after the fact.

The format is deliberately crash-friendly: records are appended and
flushed line-at-a-time, so a killed process leaves at most one
truncated final line, which :func:`read_events` tolerates by skipping
undecodable lines instead of failing the whole read.

Like the metrics/trace layer, the module keeps a process-wide active
slot: instrumented call sites use :func:`emit` (re-exported as
``obs.event``), which is a global read plus a ``None`` check when no
log is installed — cheap enough to sprinkle through driver stages,
fault callbacks, and store quarantine paths.

Every shard worker installs its own :class:`EventLog` pointed at a
per-shard *spool* file (:func:`spool_path`, ``shard=<i>`` stamped on
every record), on every fan-out whatever the coordinator observes. The
spool is the worker's only channel to the coordinator: lifecycle
records, weekly ``heartbeat`` and ``metrics.delta`` records, a
``shard.end`` carrying the final gauges and histograms, and one
``shard.trace`` carrying the worker's Chrome span events. The
coordinator's shard supervisor drains the spool on every poll (through
a :class:`SpoolTailer` of :mod:`repro.experiment.sharding`), counting
each new record as the shard's progress; when the coordinator has an
event log, every record but ``shard.trace`` is
:meth:`EventLog.forward`\\ ed into it, preserving the worker's
timestamps and fields.
"""

from __future__ import annotations

import io
import json
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable

#: Bumped whenever a record's reserved fields change meaning.
SCHEMA_VERSION = 1

#: Reserved top-level record keys; free-form event fields that collide
#: are prefixed with ``x_`` instead of silently clobbering them.
RESERVED = ("v", "run_id", "seq", "wall", "mono", "kind")

_active: "EventLog | None" = None


def new_run_id() -> str:
    """A sortable, collision-resistant run identifier."""
    return time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:6]


def current() -> "EventLog | None":
    """The installed event log, if any."""
    return _active


def install(log: "EventLog") -> "EventLog":
    """Make ``log`` the process-wide event log; returns it."""
    global _active
    _active = log
    return log


def uninstall() -> None:
    global _active
    _active = None


def emit(kind: str, /, **fields: Any) -> dict | None:
    """Record an event iff an event log is installed (else no-op)."""
    log = _active
    if log is None:
        return None
    return log.emit(kind, **fields)


class EventLog:
    """Append-only JSONL event sink for one run.

    ``static_fields`` are stamped on every record (the shard workers use
    ``shard=<i>``). Listeners registered with :meth:`add_listener` see
    every record — including forwarded ones — which is how the live
    status board and tests observe the stream without re-reading the
    file. Thread-safe; usable as a context manager (closes on exit).
    """

    def __init__(self, path: str | Path, run_id: str | None = None,
                 **static_fields: Any) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.run_id = run_id or new_run_id()
        self.static_fields = {str(k): v for k, v in static_fields.items()}
        self._fh: io.TextIOBase | None = open(self.path, "a",
                                              encoding="utf-8")
        self._seq = 0
        self._lock = threading.Lock()
        self._listeners: list[Callable[[dict], None]] = []

    # -- recording ---------------------------------------------------------

    def emit(self, kind: str, /, **fields: Any) -> dict:
        """Append one event record and return it."""
        record: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "run_id": self.run_id,
            "seq": 0,  # stamped under the lock below
            "wall": time.time(),
            "mono": time.monotonic(),
            "kind": str(kind),
        }
        for key, value in self.static_fields.items():
            record.setdefault(key, value)
        for key, value in fields.items():
            record["x_" + key if key in RESERVED else key] = value
        return self._append(record)

    def forward(self, record: dict) -> dict:
        """Append a record produced by *another* log (a shard spool).

        The record's own ``run_id``/``wall``/``mono``/``kind`` and
        fields are preserved verbatim; only ``seq`` is re-stamped so the
        unified log stays strictly ordered.
        """
        return self._append(dict(record))

    def _append(self, record: dict) -> dict:
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            fh = self._fh
            if fh is not None:
                fh.write(json.dumps(record, default=str,
                                    separators=(",", ":")) + "\n")
                fh.flush()
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener(record)
        return record

    # -- listeners ---------------------------------------------------------

    def add_listener(self, listener: Callable[[dict], None]) -> None:
        with self._lock:
            self._listeners.append(listener)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "EventLog":
        install(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if current() is self:
            uninstall()
        self.close()
        return False


# -- reading ---------------------------------------------------------------


def iter_complete_lines(path: str | Path, offset: int = 0) \
        -> tuple[list[str], int]:
    """Complete (newline-terminated) lines of ``path`` from ``offset``.

    Returns the lines plus the byte offset just past the last complete
    line, so a tailer can poll for growth without re-reading or ever
    parsing a half-written record. A missing file yields no lines.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            blob = fh.read()
    except FileNotFoundError:
        return [], offset
    end = blob.rfind(b"\n")
    if end < 0:
        return [], offset
    complete = blob[:end + 1]
    lines = complete.decode("utf-8", errors="replace").splitlines()
    return lines, offset + len(complete)


def read_events(path: str | Path, tail: int | None = None) -> list[dict]:
    """Parse an event log, tolerating a crash-truncated final line.

    Undecodable lines (a torn write from a killed process, stray
    garbage) are skipped rather than failing the read — the log is an
    operational artifact and a partial view beats none. ``tail`` keeps
    only the last N records.
    """
    path = Path(path)
    if not path.exists():
        return []
    events: list[dict] = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                events.append(record)
    if tail is not None and tail >= 0:
        events = events[-tail:] if tail else []
    return events


def spool_path(spool_dir: str | Path, shard: int) -> Path:
    """Canonical per-shard event spool file under ``spool_dir``."""
    return Path(spool_dir) / f"shard{shard:03d}.events.jsonl"
