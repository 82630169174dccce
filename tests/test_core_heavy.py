"""Tests for repro.core.heavy."""

import pytest

from repro.core.columnar import PacketTable, sessionize_table
from repro.core.heavy import (find_heavy_hitters, heavy_hitter_impact)
from repro.errors import AnalysisError
from repro.telescope.packet import ICMPV6, Packet


def packets_from(source: int, count: int, start: float = 0.0):
    return [Packet(time=start + i * 0.1, src=source, dst=2,
                   protocol=ICMPV6) for i in range(count)]


def table(packets):
    return PacketTable.from_packets(packets)


class TestFindHeavyHitters:
    def test_detects_dominant_source(self):
        packets = packets_from(1, 90) + packets_from(2, 10)
        hitters = find_heavy_hitters({"T1": table(packets)})
        assert len(hitters) == 1
        assert hitters[0].source == 1
        assert hitters[0].share == pytest.approx(0.9)

    def test_threshold_strict(self):
        packets = packets_from(1, 10) + packets_from(2, 90)
        hitters = find_heavy_hitters({"T1": table(packets)}, threshold=0.5)
        assert [h.source for h in hitters] == [2]

    def test_per_telescope(self):
        data = {"T1": table(packets_from(1, 100)),
                "T2": table(packets_from(2, 100))}
        hitters = find_heavy_hitters(data)
        assert {(h.source, h.telescope) for h in hitters} \
            == {(1, "T1"), (2, "T2")}

    def test_empty_telescope_skipped(self):
        assert find_heavy_hitters({"T1": PacketTable.empty()}) == []

    def test_invalid_threshold(self):
        with pytest.raises(AnalysisError):
            find_heavy_hitters({"T1": PacketTable.empty()}, threshold=1.5)

    def test_equal_counts_rank_by_first_packet(self):
        packets = packets_from(7, 40) + packets_from(3, 40, start=10.0)
        hitters = find_heavy_hitters({"T1": table(packets)})
        assert [h.source for h in hitters] == [7, 3]


class TestImpact:
    def test_packet_vs_session_share(self):
        hh = packets_from(1, 900)
        normal = []
        for source in range(2, 12):
            normal.extend(packets_from(source, 10, start=source * 10))
        packets = {"T1": table(hh + normal)}
        sessions = {"T1": sessionize_table(packets["T1"], telescope="T1")}
        impact = heavy_hitter_impact(packets, sessions)
        assert impact.num_hitters == 1
        assert impact.packet_share == pytest.approx(0.9)
        assert impact.session_share == pytest.approx(1 / 11)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            heavy_hitter_impact({"T1": PacketTable.empty()}, {})
