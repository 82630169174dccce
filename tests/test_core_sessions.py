"""Tests for repro.core.sessions and aggregation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import AggregationLevel, source_key
from repro.core.columnar import PacketTable, sessionize_table
from repro.core.sessions import protocol_session_counts
from repro.errors import AnalysisError
from repro.sim.clock import HOUR
from repro.telescope.packet import ICMPV6, TCP, Packet


def packet(time, src=1, dst=2, protocol=ICMPV6, port=0) -> Packet:
    return Packet(time=float(time), src=src, dst=dst, protocol=protocol,
                  dst_port=port)


def sessions_of(packets, **kwargs):
    return sessionize_table(PacketTable.from_packets(packets), **kwargs)


def session_times(result, session: int) -> list[float]:
    rows, offsets = result.session_rows()
    return result.table.time[rows[offsets[session]:offsets[session + 1]]] \
        .tolist()


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
        result = sessions_of(packets, telescope="T1")
        assert len(result) == 1
        assert result.sizes().tolist() == [10]

    def test_gap_splits_sessions(self):
        packets = [packet(0), packet(10), packet(10 + HOUR + 1)]
        result = sessions_of(packets)
        assert len(result) == 2
        assert result.sizes()[0] == 2

    def test_exactly_timeout_splits(self):
        packets = [packet(0), packet(HOUR)]
        assert len(sessions_of(packets)) == 2

    def test_just_below_timeout_keeps(self):
        packets = [packet(0), packet(HOUR - 1)]
        assert len(sessions_of(packets)) == 1

    def test_per_source_grouping(self):
        packets = [packet(0, src=1), packet(1, src=2), packet(2, src=1)]
        result = sessions_of(packets)
        assert len(result) == 2
        assert result.source_keys() == [1, 2]

    def test_aggregation_merges_rotating_sources(self):
        subnet = 5 << 64
        packets = [packet(0, src=subnet | 1), packet(1, src=subnet | 2)]
        by_addr = sessions_of(packets, level=AggregationLevel.ADDR)
        by_subnet = sessions_of(packets, level=AggregationLevel.SUBNET)
        assert len(by_addr) == 2
        assert len(by_subnet) == 1

    def test_unsorted_input_handled(self):
        packets = [packet(5), packet(1), packet(3)]
        assert session_times(sessions_of(packets), 0) == [1.0, 3.0, 5.0]

    def test_sessions_sorted_by_start(self):
        packets = [packet(100, src=1), packet(0, src=2)]
        result = sessions_of(packets)
        assert result.source_keys()[result.source_codes()[0]] == 2

    def test_invalid_timeout(self):
        with pytest.raises(AnalysisError):
            sessions_of([packet(0)], timeout=0)

    def test_by_source_ordering(self):
        packets = [packet(0), packet(2 * HOUR), packet(4 * HOUR)]
        result = sessions_of(packets)
        assert result.sessions_per_source().tolist() == [3]
        starts = result.starts().tolist()
        assert starts == sorted(starts) == [0.0, 2 * HOUR, 4 * HOUR]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=60))
    def test_partition_property(self, times):
        """Sessions partition packets; all intra-gaps < timeout and
        inter-session gaps >= timeout."""
        packets = [packet(t) for t in times]
        result = sessions_of(packets)
        assert int(result.sizes().sum()) == len(packets)
        boundaries = []
        for session in range(len(result)):
            in_session = session_times(result, session)
            assert in_session == sorted(in_session)
            for a, b in zip(in_session, in_session[1:]):
                assert b - a < HOUR
            boundaries.append((in_session[0], in_session[-1]))
        boundaries.sort()
        for (_, prev_end), (next_start, _) in zip(boundaries,
                                                  boundaries[1:]):
            assert next_start - prev_end >= HOUR


class TestSession:
    """One session's columns in a :class:`SessionSet`."""

    def test_empty_rejected(self):
        # sessions exist only around packets: no packets, no session
        result = sessionize_table(PacketTable.empty())
        assert len(result) == 0
        assert result.sizes().tolist() == []

    def test_properties(self):
        result = sessions_of([packet(1, dst=10, protocol=TCP, port=80),
                              packet(2, dst=11)])
        assert len(result) == 1
        rows, _ = result.session_rows()
        assert result.table.time[rows[-1]] - result.starts()[0] == 1.0
        assert protocol_session_counts(result.protocol_masks()) \
            == {TCP: 1, ICMPV6: 1}
        assert set(result.table.dst_lo[rows].tolist()) == {10, 11}

    def test_total_packets(self):
        result = sessions_of([packet(0), packet(1)])
        assert int(result.sizes().sum()) == 2
