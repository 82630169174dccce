"""Tests for repro.sim.events."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue, Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.schedule(5.0, lambda: fired.append("b"))
        queue.schedule(1.0, lambda: fired.append("a"))
        while (event := queue.pop()) is not None:
            event.action()
        assert fired == ["a", "b"]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        order = []
        for i in range(5):
            queue.schedule(1.0, lambda i=i: order.append(i))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == [0, 1, 2, 3, 4]

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        event.cancel()
        assert queue.pop() is None
        assert len(queue) == 0

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1.0, lambda: None)

    def test_len_is_live_count(self):
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(5)]
        assert len(queue) == 5
        events[0].cancel()
        events[3].cancel()
        assert len(queue) == 3

    def test_cancelled_counter_counts_each_cancel_once(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        assert queue.events_cancelled == 0
        event.cancel()
        event.cancel()  # idempotent: a double cancel must not double count
        assert queue.events_cancelled == 1
        assert len(queue) == 0

    def test_lazy_drop_does_not_skew_accounting(self):
        """Regression: ``_drop_cancelled`` physically removes dead heap
        entries, but all accounting happened at cancel() time — lazy
        cleanup must change neither counters nor the O(1) depth."""
        queue = EventQueue()
        live = queue.schedule(5.0, lambda: None)
        dead = [queue.schedule(float(i), lambda: None) for i in range(3)]
        for event in dead:
            event.cancel()
        assert len(queue) == 1
        assert queue.events_cancelled == 3
        # force the lazy drop of all three dead heap entries
        queue._drop_cancelled()
        assert len(queue._heap) == 1
        assert len(queue) == 1
        assert queue.events_cancelled == 3
        # popping the live event decrements depth, not the cancel counter
        assert queue.pop() is live
        assert len(queue) == 0
        assert queue.events_cancelled == 3

    def test_cancel_after_pop_not_counted(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        assert queue.pop() is event
        event.cancel()  # already executed/popped: no queue to account to
        assert queue.events_cancelled == 0
        assert len(queue) == 0

    def test_high_water_mark_tracks_peak_live(self):
        queue = EventQueue()
        events = [queue.schedule(float(i + 1), lambda: None)
                  for i in range(4)]
        assert queue.high_water == 4
        events[0].cancel()
        queue.pop()
        assert len(queue) == 2
        # draining never lowers the mark; one new event doesn't beat it
        queue.schedule(9.0, lambda: None)
        assert queue.high_water == 4
        for _ in range(3):
            queue.schedule(10.0, lambda: None)
        assert queue.high_water == 6


class TestSimulator:
    def test_run_until_executes_in_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append(2))
        sim.schedule_at(1.0, lambda: seen.append(1))
        executed = sim.run_until(10.0)
        assert executed == 2
        assert seen == [1, 2]
        assert sim.now == 10.0

    def test_events_beyond_horizon_stay_queued(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(5))
        sim.run_until(4.0)
        assert seen == []
        sim.run_until(6.0)
        assert seen == [5]

    def test_schedule_in_relative(self):
        sim = Simulator()
        sim.run_until(10.0)
        seen = []
        sim.schedule_in(5.0, lambda: seen.append(sim.now))
        sim.run_until(20.0)
        assert seen == [15.0]

    def test_cascading_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append("first")
            sim.schedule_in(1.0, lambda: seen.append("second"))

        sim.schedule_at(1.0, first)
        sim.run_until(5.0)
        assert seen == ["first", "second"]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_in(-1.0, lambda: None)

    def test_horizon_in_past_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SimulationError):
            sim.run_until(5.0)

    def test_clock_lands_exactly_on_horizon(self):
        sim = Simulator()
        sim.run_until(123.456)
        assert sim.now == 123.456

    def test_heartbeat_hook_fires_per_interval(self):
        sim = Simulator()
        for i in range(1, 100):
            sim.schedule_at(float(i), lambda: None)
        beats = []
        sim.heartbeat = lambda s: beats.append((s.now, s.events_executed))
        sim.heartbeat_interval = 10.0
        executed = sim.run_until(99.0)
        assert executed == 99
        assert len(beats) == 9  # t=10, 20, ..., 90
        # the flushed executed-count is up to date when the hook runs
        assert beats[0] == (10.0, 10)
        assert beats[-1] == (90.0, 90)
        assert sim.events_executed == 99

    def test_no_heartbeat_when_hook_unset(self):
        sim = Simulator()
        sim.heartbeat_interval = 10.0  # interval alone must not fire
        sim.schedule_at(50.0, lambda: None)
        assert sim.run_until(100.0) == 1
        assert sim.events_executed == 1
