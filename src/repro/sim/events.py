"""Event queue and simulation loop.

Events carry an absolute firing time and a callback. Ties are broken by a
monotonically increasing sequence number, which makes the execution order
fully deterministic regardless of heap internals.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import obs
from repro.errors import SimulationError
from repro.sim.clock import SimClock


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Events themselves don't implement ordering — the queue keeps them in
    ``(time, seq)``-keyed heap entries so heap sifts compare plain floats
    and ints at C speed instead of calling back into Python.

    Attributes:
        time: absolute simulation time at which the event fires.
        seq: tie-breaker assigned by the queue; earlier-scheduled fires first.
        action: zero-argument callable invoked when the event fires.
        label: free-form tag for tracing and tests.
    """

    time: float
    seq: int
    action: Callable[[], Any]
    label: str = ""
    cancelled: bool = False
    _queue: Any = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._live -= 1
                self._queue.events_cancelled += 1


class EventQueue:
    """Min-heap of :class:`Event` ordered by (time, insertion order).

    Tracks a live-event counter so ``len()`` is O(1): schedule increments
    it, cancel and pop-of-live decrement it. ``events_cancelled`` counts
    each cancellation exactly once, at :meth:`Event.cancel` time — the
    lazy heap cleanup in :meth:`_drop_cancelled` never touches either
    counter, so depth and cancellation accounting are independent of when
    dead entries physically leave the heap. ``high_water`` is the maximum
    number of simultaneously live events ever observed.
    """

    def __init__(self) -> None:
        #: heap of ``(time, seq, event)`` — C-speed float/int comparisons
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        self.events_cancelled = 0
        self.high_water = 0

    def __len__(self) -> int:
        return self._live

    def schedule(self, time: float, action: Callable[[], Any],
                 label: str = "") -> Event:
        """Insert an event firing at absolute ``time``."""
        if time < 0:
            raise SimulationError(f"cannot schedule event before t=0 ({time})")
        event = Event(time=float(time), seq=next(self._counter),
                      action=action, label=label, _queue=self)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        self._live += 1
        if self._live > self.high_water:
            self.high_water = self._live
        return event

    def pop(self) -> Event | None:
        """Remove and return the next live event, or ``None`` if empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        self._live -= 1
        event = heapq.heappop(self._heap)[2]
        event._queue = None  # a late cancel() must not re-decrement
        return event

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)


class Simulator:
    """Drives a :class:`SimClock` through an :class:`EventQueue`.

    The simulator is deliberately minimal: components schedule events
    (possibly from within event callbacks) and :meth:`run_until` executes
    them in time order until the horizon.

    A flight recorder (or any observer) may set :attr:`heartbeat` and a
    positive :attr:`heartbeat_interval` (sim seconds): the hook is then
    called with the simulator after each interval of simulated time
    passes during :meth:`run_until`. With no hook installed the loop
    pays one comparison per event.
    """

    def __init__(self, clock: SimClock | None = None,
                 shard: int | None = None) -> None:
        self.clock = clock or SimClock()
        self.queue = EventQueue()
        self.events_executed = 0
        self.heartbeat: Callable[["Simulator"], Any] | None = None
        self.heartbeat_interval: float = 0.0
        #: shard index when this simulator drives one worker of a sharded
        #: build (``None`` for a whole-population run); surfaces in the
        #: ``sim.run_until`` span so shard traces stay attributable.
        self.shard = shard

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule_at(self, time: float, action: Callable[[], Any],
                    label: str = "") -> Event:
        """Schedule ``action`` at absolute time ``time`` (not in the past)."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.clock.now}"
            )
        return self.queue.schedule(time, action, label)

    def schedule_in(self, delay: float, action: Callable[[], Any],
                    label: str = "") -> Event:
        """Schedule ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.queue.schedule(self.clock.now + delay, action, label)

    def run_until(self, horizon: float) -> int:
        """Execute all events with ``time <= horizon``; return count executed.

        The clock finishes exactly at ``horizon`` even if the queue drains
        early, so periodic bookkeeping that reads the clock sees a full run.
        """
        if horizon < self.clock.now:
            raise SimulationError(
                f"horizon t={horizon} is before now={self.clock.now}"
            )
        beat = self.heartbeat
        next_beat = (self.clock.now + self.heartbeat_interval
                     if beat is not None and self.heartbeat_interval > 0
                     else None)
        queue = self.queue
        clock = self.clock
        heap = queue._heap
        heappop = heapq.heappop
        executed = 0  # since the last flush into events_executed
        before = self.events_executed
        attrs = {"horizon": horizon}
        if self.shard is not None:
            attrs["shard"] = self.shard
        with obs.span("sim.run_until", **attrs) as sp:
            # the peek/pop pair is inlined: the loop body runs once per
            # simulated event, and two method calls plus a second
            # cancelled-head scan per event are measurable at corpus scale
            while True:
                while heap and heap[0][2].cancelled:
                    heappop(heap)
                if not heap or heap[0][0] > horizon:
                    break
                queue._live -= 1
                event = heappop(heap)[2]
                event._queue = None  # a late cancel() must not re-decrement
                clock.advance_to(event.time)
                event.action()
                executed += 1
                if next_beat is not None and event.time >= next_beat:
                    # flush so the hook sees an up-to-date total
                    self.events_executed += executed
                    executed = 0
                    beat(self)
                    next_beat = clock.now + self.heartbeat_interval
            clock.advance_to(horizon)
            self.events_executed += executed
            ran = self.events_executed - before
            sp.set(executed=ran)
        return ran
