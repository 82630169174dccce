"""Stdlib-logging helpers for pipeline progress output.

All of repro's progress chatter goes through the ``repro`` logger
hierarchy: payloads (tables, figures, schedules) stay on stdout so they
remain machine-parseable, while progress and heartbeat lines land on
stderr at a level the user controls with ``--log-level``.
"""

from __future__ import annotations

import logging
import sys
import time

LOGGER = logging.getLogger("repro")

LEVELS = ("debug", "info", "warning", "error")

#: Format used when a run id is configured: every line carries the run
#: id (suffixed ``/sN`` in shard workers) and the process-local elapsed
#: seconds, so interleaved shard/coordinator stderr stays attributable.
RUN_FMT = "[%(run_id)s +%(elapsed)7.1fs] %(message)s"

_handler: logging.Handler | None = None
_run_filter: "_RunContextFilter | None" = None


class _RunContextFilter(logging.Filter):
    """Injects ``run_id`` and ``elapsed`` fields into every record."""

    def __init__(self, run_id: str) -> None:
        super().__init__()
        self.run_id = run_id
        self.started = time.monotonic()

    def filter(self, record: logging.LogRecord) -> bool:
        record.run_id = self.run_id
        record.elapsed = time.monotonic() - self.started
        return True


def get_logger(name: str | None = None) -> logging.Logger:
    """The ``repro`` logger, or a child of it."""
    return LOGGER if not name else LOGGER.getChild(name)


def configure(level: str = "info", stream=None, fmt: str | None = None,
              run_id: str | None = None) -> logging.Logger:
    """Idempotently attach one stderr handler and set the level.

    Repeated calls re-level the existing handler instead of stacking new
    ones, so tests and long-lived processes can reconfigure freely.
    ``run_id`` switches the line format to :data:`RUN_FMT` (run id +
    elapsed seconds on every line); shard workers reconfigure with
    ``<run_id>/s<shard>`` so a merged stderr stream stays attributable.
    """
    global _handler, _run_filter
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r} "
                         f"(choose from {', '.join(LEVELS)})")
    if fmt is None:
        fmt = RUN_FMT if run_id else "%(message)s"
    if _handler is None:
        _handler = logging.StreamHandler(stream or sys.stderr)
        LOGGER.addHandler(_handler)
        LOGGER.propagate = False
    elif stream is not None:
        _handler.setStream(stream)
    _handler.setFormatter(logging.Formatter(fmt))
    if _run_filter is not None:
        _handler.removeFilter(_run_filter)
        _run_filter = None
    if run_id:
        _run_filter = _RunContextFilter(run_id)
        _handler.addFilter(_run_filter)
    LOGGER.setLevel(numeric)
    return LOGGER
