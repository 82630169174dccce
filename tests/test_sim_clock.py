"""Tests for repro.sim.clock."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import (DAY, HOUR, WEEK, SimClock, day_of,
                             format_duration, week_of)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(-1.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_past_rejected(self):
        clock = SimClock(10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(9.0)

    def test_advance_to_same_time_ok(self):
        clock = SimClock(10.0)
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_day_and_week_properties(self):
        clock = SimClock(8 * DAY + 3 * HOUR)
        assert clock.day == 8
        assert clock.week == 1


class TestCalendarHelpers:
    def test_day_of_boundaries(self):
        assert day_of(0.0) == 0
        assert day_of(DAY - 1) == 0
        assert day_of(DAY) == 1

    def test_week_of(self):
        assert week_of(WEEK - 1) == 0
        assert week_of(WEEK) == 1
        assert week_of(13 * WEEK + DAY) == 13


class TestFormatDuration:
    def test_zero(self):
        assert format_duration(0) == "0s"

    def test_weeks_and_days(self):
        assert format_duration(2 * WEEK + 3 * DAY) == "2w 3d"

    def test_mixed(self):
        assert format_duration(DAY + HOUR + 61) == "1d 1h 1m 1s"

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            format_duration(-1)
