"""Tests for repro.core.protocols."""

import numpy as np
import pytest

from repro.core.columnar import PacketTable, sessionize_table
from repro.core.protocols import (TRACEROUTE_BUCKET, bucket_ports,
                                  protocol_stats, top_ports)
from repro.errors import AnalysisError
from repro.telescope.packet import ICMPV6, TCP, UDP, Packet, Protocol


def packet(time, src=1, protocol=ICMPV6, port=0):
    return Packet(time=float(time), src=src, dst=2, protocol=protocol,
                  dst_port=port)


@pytest.fixture
def mixed_sessions():
    packets = [
        packet(0, src=1, protocol=ICMPV6),
        packet(1, src=1, protocol=TCP, port=80),
        packet(2, src=2, protocol=TCP, port=80),
        packet(3, src=2, protocol=TCP, port=443),
        packet(4, src=3, protocol=UDP, port=33434),
        packet(5, src=3, protocol=UDP, port=53),
    ]
    table = PacketTable.from_packets(packets)
    return table, sessionize_table(table)


class TestProtocolStats:
    def test_counts(self, mixed_sessions):
        table, sessions = mixed_sessions
        stats = protocol_stats([table], [sessions])
        assert stats.packets[Protocol.TCP] == 3
        assert stats.packets[Protocol.ICMPV6] == 1
        assert stats.packets[Protocol.UDP] == 2

    def test_multi_protocol_sessions_count_per_protocol(self,
                                                        mixed_sessions):
        table, sessions = mixed_sessions
        stats = protocol_stats([table], [sessions])
        # source 1's single session carries both ICMPv6 and TCP
        assert stats.sessions[Protocol.ICMPV6] == 1
        assert stats.sessions[Protocol.TCP] == 2
        total_share = sum(stats.session_share(p) for p in Protocol)
        assert total_share > 1.0

    def test_sources(self, mixed_sessions):
        table, sessions = mixed_sessions
        stats = protocol_stats([table], [sessions])
        assert stats.sources[Protocol.TCP] == 2
        assert stats.total_sources == 3

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            protocol_stats([PacketTable.empty()], [])

    def test_source_counts_once_across_telescopes(self, mixed_sessions):
        table, sessions = mixed_sessions
        stats = protocol_stats([table, table], [sessions, sessions])
        assert stats.total_sessions == 6
        assert stats.sources[Protocol.TCP] == 2
        assert stats.total_sources == 3


class TestPorts:
    def test_bucket_traceroute(self):
        ports = np.array([33434, 53], dtype=np.uint16)
        assert bucket_ports(Protocol.UDP, ports).tolist() \
            == [TRACEROUTE_BUCKET, 53]
        assert bucket_ports(Protocol.TCP, ports).tolist() == [33434, 53]

    def test_top_ports_once_per_session(self, mixed_sessions):
        _, sessions = mixed_sessions
        top = top_ports([sessions], Protocol.TCP)
        ranked = {port: count for port, count, _ in top}
        assert ranked[80] == 2
        assert ranked[443] == 1

    def test_top_ports_share(self, mixed_sessions):
        _, sessions = mixed_sessions
        top = top_ports([sessions], Protocol.TCP)
        port, count, share = top[0]
        assert port == 80 and share == pytest.approx(1.0)

    def test_top_ports_empty(self):
        assert top_ports([], Protocol.TCP) == []
        empty = sessionize_table(PacketTable.empty())
        assert top_ports([empty], Protocol.TCP) == []

    def test_top_ports_buckets_traceroute(self):
        packets = [packet(0, protocol=UDP, port=p)
                   for p in (33434, 33435, 53)]
        sessions = sessionize_table(PacketTable.from_packets(packets))
        top = top_ports([sessions], Protocol.UDP)
        assert {port: count for port, count, _ in top} \
            == {TRACEROUTE_BUCKET: 1, 53: 1}

    def test_top_ports_ties_keep_first_met_order(self):
        """Equal counts rank as a pass over the sessions, each one's ports
        taken as a set, first met them."""
        ports = [9000, 17, 8, 443, 1, 80]
        packets = [packet(i, src=1, protocol=TCP, port=p)
                   for i, p in enumerate(ports)]
        packets += [packet(10 + i, src=2, protocol=TCP, port=p)
                    for i, p in enumerate((22, 9000))]
        sessions = sessionize_table(PacketTable.from_packets(packets))
        expected = [9000] + [p for p in set(ports) if p != 9000] + [22]
        top = top_ports([sessions], Protocol.TCP, n=len(expected))
        assert [port for port, _, _ in top] == expected
