"""Simulated time.

All simulation timestamps are floating-point seconds since the start of the
experiment (t=0). Calendar-style helpers (days, weeks) are provided because
the paper reasons in days/weeks/bi-weekly announcement cycles.
"""

from __future__ import annotations

from repro.errors import SimulationError

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY


class SimClock:
    """Monotonically advancing simulation clock.

    The clock only moves forward; attempts to rewind raise
    :class:`SimulationError`. Components read the current time via
    :attr:`now` and translate it into calendar units with the helpers.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start before t=0 (got {start})")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to absolute time ``t``.

        Raises:
            SimulationError: if ``t`` lies in the past.
        """
        if t < self._now:
            raise SimulationError(
                f"cannot rewind clock from t={self._now} to t={t}"
            )
        self._now = float(t)

    # -- calendar helpers -------------------------------------------------

    @property
    def day(self) -> int:
        """Zero-based day index of the current time."""
        return day_of(self._now)

    @property
    def week(self) -> int:
        """Zero-based week index of the current time."""
        return week_of(self._now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now!r}, day={self.day}, week={self.week})"


def day_of(t: float) -> int:
    """Zero-based day index containing timestamp ``t``."""
    return int(t // DAY)


def week_of(t: float) -> int:
    """Zero-based week index containing timestamp ``t``."""
    return int(t // WEEK)


def format_duration(seconds: float) -> str:
    """Render a duration in the largest sensible unit, e.g. ``'2w 3d'``.

    Useful for log lines and report headers.
    """
    if seconds < 0:
        raise SimulationError(f"negative duration: {seconds}")
    remaining = int(seconds)
    parts: list[str] = []
    for label, unit in (("w", int(WEEK)), ("d", int(DAY)), ("h", int(HOUR)),
                        ("m", int(MINUTE))):
        count, remaining = divmod(remaining, unit)
        if count:
            parts.append(f"{count}{label}")
    if remaining or not parts:
        parts.append(f"{remaining}s")
    return " ".join(parts)
