"""Tests for repro.core.sessions and aggregation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import AggregationLevel, source_key
from repro.core.sessions import Session, sessionize
from repro.errors import AnalysisError
from repro.sim.clock import HOUR
from repro.telescope.packet import ICMPV6, TCP, Packet


def packet(time, src=1, dst=2, protocol=ICMPV6, port=0) -> Packet:
    return Packet(time=float(time), src=src, dst=dst, protocol=protocol,
                  dst_port=port)


class TestAggregation:
    def test_addr_level_identity(self):
        assert source_key(12345, AggregationLevel.ADDR) == 12345

    def test_subnet_level(self):
        addr = (0xABCD << 64) | 42
        assert source_key(addr, AggregationLevel.SUBNET) == 0xABCD

    def test_prefix_level(self):
        addr = (0xABCD << 80) | 42
        assert source_key(addr, AggregationLevel.PREFIX) == 0xABCD

    def test_rotation_collapses_under_64(self):
        a = (7 << 64) | 1
        b = (7 << 64) | 2
        assert source_key(a, AggregationLevel.SUBNET) \
            == source_key(b, AggregationLevel.SUBNET)


class TestSessionize:
    def test_single_burst_one_session(self):
        packets = [packet(i) for i in range(10)]
        result = sessionize(packets, telescope="T1")
        assert len(result) == 1
        assert len(result.sessions[0]) == 10

    def test_gap_splits_sessions(self):
        packets = [packet(0), packet(10), packet(10 + HOUR + 1)]
        result = sessionize(packets)
        assert len(result) == 2
        assert len(result.sessions[0]) == 2

    def test_exactly_timeout_splits(self):
        packets = [packet(0), packet(HOUR)]
        assert len(sessionize(packets)) == 2

    def test_just_below_timeout_keeps(self):
        packets = [packet(0), packet(HOUR - 1)]
        assert len(sessionize(packets)) == 1

    def test_per_source_grouping(self):
        packets = [packet(0, src=1), packet(1, src=2), packet(2, src=1)]
        result = sessionize(packets)
        assert len(result) == 2
        assert result.sources() == {1, 2}

    def test_aggregation_merges_rotating_sources(self):
        subnet = 5 << 64
        packets = [packet(0, src=subnet | 1), packet(1, src=subnet | 2)]
        by_addr = sessionize(packets, level=AggregationLevel.ADDR)
        by_subnet = sessionize(packets, level=AggregationLevel.SUBNET)
        assert len(by_addr) == 2
        assert len(by_subnet) == 1

    def test_unsorted_input_handled(self):
        packets = [packet(5), packet(1), packet(3)]
        session = sessionize(packets).sessions[0]
        assert [p.time for p in session.packets] == [1.0, 3.0, 5.0]

    def test_sessions_sorted_by_start(self):
        packets = [packet(100, src=1), packet(0, src=2)]
        result = sessionize(packets)
        assert result.sessions[0].source == 2

    def test_invalid_timeout(self):
        with pytest.raises(AnalysisError):
            sessionize([packet(0)], timeout=0)

    def test_by_source_ordering(self):
        packets = [packet(0), packet(2 * HOUR), packet(4 * HOUR)]
        grouped = sessionize(packets).by_source()
        starts = [s.start for s in grouped[1]]
        assert starts == sorted(starts)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60))
    def test_partition_property(self, times):
        """Sessions partition packets; all intra-gaps < timeout and
        inter-session gaps >= timeout."""
        packets = [packet(t) for t in times]
        result = sessionize(packets)
        total = sum(len(s) for s in result.sessions)
        assert total == len(packets)
        for session in result.sessions:
            session_times = [p.time for p in session.packets]
            assert session_times == sorted(session_times)
            for a, b in zip(session_times, session_times[1:]):
                assert b - a < HOUR
        boundaries = sorted((s.start, s.end) for s in result.sessions)
        for (_, prev_end), (next_start, _) in zip(boundaries,
                                                  boundaries[1:]):
            assert next_start - prev_end >= HOUR


class TestSession:
    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            Session(source=1, telescope="T1", packets=[])

    def test_properties(self):
        session = Session(source=1, telescope="T1",
                          packets=[packet(1, dst=10, protocol=TCP, port=80),
                                   packet(2, dst=11)])
        assert session.duration == 1.0
        assert session.protocols() == {TCP, ICMPV6}
        assert session.distinct_targets() == {10, 11}

    def test_total_packets(self):
        result = sessionize([packet(0), packet(1)])
        assert result.total_packets() == 2
