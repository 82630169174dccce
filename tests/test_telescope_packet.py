"""Tests for repro.telescope.packet and capture."""

import numpy as np
import pytest

from repro.net.prefix import Prefix
from repro.telescope.capture import CaptureFilter, PacketCapture
from repro.telescope.packet import (ICMPV6, TCP, UDP, Packet, Protocol,
                                    is_traceroute_port)

_MASK64 = (1 << 64) - 1


def packet(time=0.0, src=1, dst=2, protocol=ICMPV6, port=0,
           payload=None) -> Packet:
    return Packet(time=time, src=src, dst=dst, protocol=protocol,
                  dst_port=port, payload=payload)


def batch(times=(0.0,), src=1, dst=2, protocol=ICMPV6, port=0):
    """A column batch of one probe per arrival time."""
    n = len(times)
    return dict(
        time=np.asarray(times, dtype=np.float64),
        src_hi=np.full(n, src >> 64, dtype=np.uint64),
        src_lo=np.full(n, src & _MASK64, dtype=np.uint64),
        dst_hi=np.full(n, dst >> 64, dtype=np.uint64),
        dst_lo=np.full(n, dst & _MASK64, dtype=np.uint64),
        protocol=np.full(n, int(protocol), dtype=np.uint8),
        dst_port=np.full(n, port, dtype=np.uint16),
        src_asn=np.zeros(n, dtype=np.uint32),
        scanner_id=np.full(n, -1, dtype=np.int64))


def accepts(flt: CaptureFilter, src: int = 1, dst: int = 2) -> bool:
    mask = flt.accept_mask(*(np.array([half], dtype=np.uint64) for half in
                             (src >> 64, src & _MASK64,
                              dst >> 64, dst & _MASK64)))
    return mask is None or bool(mask[0])


class TestPacket:
    def test_protocol_numbers(self):
        assert Protocol.TCP == 6
        assert Protocol.UDP == 17
        assert Protocol.ICMPV6 == 58

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            packet(time=-1.0)

    def test_invalid_port_rejected(self):
        with pytest.raises(ValueError):
            packet(port=70000)

    def test_traceroute_range(self):
        assert is_traceroute_port(33434)
        assert is_traceroute_port(33523)
        assert not is_traceroute_port(33433)
        assert not is_traceroute_port(33524)


class TestCaptureFilter:
    def test_excludes_destination_prefix(self):
        productive = Prefix.parse("2001:db8:0:1200::/56")
        flt = CaptureFilter(exclude_dst_prefixes=(productive,))
        inside = productive.network | 1
        outside = Prefix.parse("2001:db8::/64").network | 1
        assert not accepts(flt, dst=inside)
        assert accepts(flt, dst=outside)

    def test_excludes_source_prefix(self):
        productive = Prefix.parse("2001:db8:0:1200::/56")
        flt = CaptureFilter(exclude_src_prefixes=(productive,))
        assert not accepts(flt, src=productive.network | 5)


class TestPacketCapture:
    def test_record_and_len(self):
        capture = PacketCapture(name="x")
        assert capture.append_batch(**batch()) == 1
        assert len(capture) == 1

    def test_filter_drops_and_counts(self):
        productive = Prefix.parse("2001:db8::/56")
        capture = PacketCapture(
            name="x",
            capture_filter=CaptureFilter(
                exclude_dst_prefixes=(productive,)))
        assert capture.append_batch(
            **batch(dst=productive.network | 1)) == 0
        assert capture.dropped == 1
        assert len(capture) == 0

    def test_packets_sorted_by_time(self):
        capture = PacketCapture()
        capture.append_batch(**batch([5.0]))
        capture.append_batch(**batch([1.0]))
        assert capture.table().time.tolist() == [1.0, 5.0]

    def test_between(self):
        capture = PacketCapture()
        capture.append_batch(**batch([0.0, 1.0, 2.0, 3.0]))
        window = capture.table().slice_time(1.0, 3.0)
        assert window.time.tolist() == [1.0, 2.0]

    def test_extend(self):
        capture = PacketCapture()
        stored = capture.append_batch(**batch([float(i) for i in range(5)]))
        assert stored == 5

    def test_filtered(self):
        capture = PacketCapture()
        capture.append_batch(**batch(protocol=TCP, port=80))
        capture.append_batch(**batch(protocol=UDP, port=53))
        table = capture.table()
        assert table.dst_port[table.protocol == int(TCP)].tolist() == [80]
