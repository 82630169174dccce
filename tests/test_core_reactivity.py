"""Tests for repro.core.reactivity."""

import numpy as np
import pytest

from repro.bgp.controller import build_split_schedule
from repro.core.columnar import PacketTable, sessionize_table
from repro.core.reactivity import (cycle_activity, live_monitors,
                                   most_specific_slots,
                                   new_source_prefixes_per_day,
                                   sessions_per_prefix_cumulative,
                                   split_half_comparison)
from repro.errors import AnalysisError
from repro.net.lpm import NO_MATCH
from repro.net.prefix import Prefix
from repro.sim.clock import DAY, WEEK
from repro.telescope.packet import ICMPV6, Packet

T1 = Prefix.parse("3fff:1000::/32")
SCHEDULE = build_split_schedule(T1, baseline_weeks=2, num_cycles=3)


def packet(time, dst, src=1):
    return Packet(time=float(time), src=src, dst=dst, protocol=ICMPV6)


def sessions_of(packets):
    return sessionize_table(PacketTable.from_packets(packets))


def slot_of(dst, cycle):
    halves = (np.array([dst >> 64], dtype=np.uint64),
              np.array([dst & ((1 << 64) - 1)], dtype=np.uint64))
    return int(most_specific_slots(cycle, *halves)[0])


class TestMostSpecific:
    def test_picks_longest(self):
        cycle = SCHEDULE[2]
        deepest = max(cycle.prefixes, key=lambda p: p.length)
        slot = slot_of(deepest.low_byte_address, cycle)
        assert cycle.prefixes[slot] == deepest

    def test_outside_none(self):
        assert slot_of(1, SCHEDULE[1]) == NO_MATCH


class TestSessionsPerPrefixCumulative:
    def test_series_monotone(self):
        packets = []
        for cycle in SCHEDULE[1:]:
            for p in cycle.prefixes:
                packets.append(packet(cycle.announce_time + 60,
                                      p.low_byte_address))
        series = sessions_per_prefix_cumulative(sessions_of(packets),
                                                list(SCHEDULE))
        for values in series.values():
            assert values == sorted(values)
            assert len(values) == len(SCHEDULE)

    def test_prefixes_keyed_in_first_met_order(self):
        """A session touching several new prefixes keys them in the
        order a set of them iterates; later cycles append."""
        cycle = SCHEDULE[3]
        targets = [p.low_byte_address for p in reversed(cycle.prefixes)]
        packets = [packet(cycle.announce_time + i, t)
                   for i, t in enumerate(targets)]
        series = sessions_per_prefix_cumulative(sessions_of(packets),
                                                list(SCHEDULE))
        touched = set()
        for dst in set(targets):
            touched.add(next(p for p in sorted(
                cycle.prefixes, key=lambda p: -p.length)
                if p.contains_address(dst)))
        assert list(series) == list(touched)


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
        sessions = sessions_of(packets)
        activity = cycle_activity([sessions], list(SCHEDULE))
        by_index = {a.cycle_index: a for a in activity}
        assert by_index[1].sources == 2
        assert by_index[1].sessions == 2
        assert by_index[2].sessions == 0

    def test_source_counts_once_across_sets(self):
        cycle = SCHEDULE[1]
        sessions = sessions_of([packet(cycle.announce_time + 1,
                                       cycle.prefixes[0].low_byte_address)])
        activity = cycle_activity([sessions, sessions], list(SCHEDULE))
        assert activity[1].sources == 1
        assert activity[1].sessions == 2


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
        series = new_source_prefixes_per_day(
            [PacketTable.from_packets(packets)], 0.0, 4 * DAY)
        assert series[0] == 1
        assert series[1] == 0
        assert series[2] == 1

    def test_window_validation(self):
        with pytest.raises(AnalysisError):
            new_source_prefixes_per_day([], 5.0, 5.0)
