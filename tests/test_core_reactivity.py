"""Tests for repro.core.reactivity."""

import pytest

from repro.bgp.controller import build_split_schedule
from repro.core.reactivity import (CycleActivity, cycle_activity,
                                   growth_factor, live_monitors,
                                   most_specific_for,
                                   new_source_prefixes_per_day,
                                   sessions_per_prefix_cumulative,
                                   split_half_comparison)
from repro.core.sessions import sessionize
from repro.errors import AnalysisError
from repro.net.prefix import Prefix
from repro.sim.clock import DAY, WEEK
from repro.telescope.packet import ICMPV6, Packet

T1 = Prefix.parse("3fff:1000::/32")
SCHEDULE = build_split_schedule(T1, baseline_weeks=2, num_cycles=3)


def packet(time, dst, src=1):
    return Packet(time=float(time), src=src, dst=dst, protocol=ICMPV6)


class TestMostSpecific:
    def test_picks_longest(self):
        cycle = SCHEDULE[2]
        deepest = max(cycle.prefixes, key=lambda p: p.length)
        assert most_specific_for(deepest.low_byte_address, cycle) == deepest

    def test_outside_none(self):
        assert most_specific_for(1, SCHEDULE[1]) is None


class TestSessionsPerPrefixCumulative:
    def test_series_monotone(self):
        packets = []
        for cycle in SCHEDULE[1:]:
            for p in cycle.prefixes:
                packets.append(packet(cycle.announce_time + 60,
                                      p.low_byte_address))
        sessions = sessionize(packets).sessions
        series = sessions_per_prefix_cumulative(sessions, list(SCHEDULE))
        for values in series.values():
            assert values == sorted(values)
            assert len(values) == len(SCHEDULE)


class TestSplitHalfComparison:
    def test_increase(self):
        stable, split = T1.split()
        start = SCHEDULE[1].announce_time
        packets = (
            [packet(start + i, stable.low_byte_address) for i in range(10)]
            + [packet(start + 100 + i, split.network | (1 << 90) | 1)
               for i in range(30)])
        comparison = split_half_comparison(packets, T1, list(SCHEDULE))
        assert comparison.stable_packets == 10
        assert comparison.split_packets == 30
        assert comparison.increase == pytest.approx(2.0)

    def test_no_stable_packets_rejected(self):
        comparison = split_half_comparison([], T1, list(SCHEDULE))
        with pytest.raises(AnalysisError):
            comparison.increase

    def test_baseline_packets_excluded(self):
        stable, split = T1.split()
        packets = [packet(0.0, stable.low_byte_address)]
        comparison = split_half_comparison(packets, T1, list(SCHEDULE))
        assert comparison.stable_packets == 0


class TestCycleActivity:
    def test_counts(self):
        cycle = SCHEDULE[1]
        packets = [packet(cycle.announce_time + 1,
                          cycle.prefixes[0].low_byte_address, src=s)
                   for s in (1, 2)]
        sessions = sessionize(packets).sessions
        activity = cycle_activity(sessions, list(SCHEDULE))
        by_index = {a.cycle_index: a for a in activity}
        assert by_index[1].sources == 2
        assert by_index[1].sessions == 2
        assert by_index[2].sessions == 0

    def test_growth_factor(self):
        activity = [CycleActivity(0, 100, 100),
                    CycleActivity(1, 10, 10),
                    CycleActivity(2, 20, 20),
                    CycleActivity(3, 30, 30),
                    CycleActivity(4, 40, 40)]
        factor = growth_factor(activity, "sources")
        assert factor == pytest.approx(3.0)

    def test_growth_needs_cycles(self):
        with pytest.raises(AnalysisError):
            growth_factor([CycleActivity(0, 1, 1)])


class TestLiveMonitors:
    def test_fast_repeat_source_detected(self):
        packets = []
        for cycle in SCHEDULE[1:]:
            packets.append(packet(cycle.announce_time + 600,
                                  cycle.prefixes[0].low_byte_address,
                                  src=111))
        monitors = live_monitors(packets, list(SCHEDULE))
        assert monitors == {111}

    def test_slow_source_excluded(self):
        packets = []
        for cycle in SCHEDULE[1:]:
            packets.append(packet(cycle.announce_time + 2 * DAY,
                                  cycle.prefixes[0].low_byte_address,
                                  src=222))
        assert live_monitors(packets, list(SCHEDULE)) == set()

    def test_single_appearance_excluded(self):
        cycle = SCHEDULE[1]
        packets = [packet(cycle.announce_time + 60,
                          cycle.prefixes[0].low_byte_address, src=333)]
        assert live_monitors(packets, list(SCHEDULE)) == set()


class TestNewSourcePrefixes:
    def test_first_seen_only(self):
        src_a = 0xAAAA << 80
        src_b = 0xBBBB << 80
        packets = [packet(0.0, 2, src=src_a),
                   packet(1 * DAY, 2, src=src_a | 5),  # same /48
                   packet(2 * DAY, 2, src=src_b)]
        series = new_source_prefixes_per_day(packets, 0.0, 4 * DAY)
        assert series[0] == 1
        assert series[1] == 0
        assert series[2] == 1

    def test_window_validation(self):
        with pytest.raises(AnalysisError):
            new_source_prefixes_per_day([], 5.0, 5.0)
