"""Tests for repro.telescope.telescope, reactive, productive."""

import numpy as np
import pytest

from repro.dns.umbrella import UmbrellaList
from repro.errors import ExperimentError
from repro.net.prefix import Prefix
from repro.scanners.base import ScannerContext
from repro.sim.events import Simulator
from repro.telescope.capture import PacketCapture
from repro.telescope.packet import ICMPV6, TCP, UDP
from repro.telescope.productive import ProductiveSubnet
from repro.telescope.reactive import ReactiveResponder
from repro.telescope.telescope import (Telescope, TelescopeKind,
                                       prefix_router)

P48 = Prefix.parse("3fff:4000:4::/48")

_MASK64 = (1 << 64) - 1


def halves(addrs) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([a >> 64 for a in addrs], dtype=np.uint64),
            np.array([a & _MASK64 for a in addrs], dtype=np.uint64))


def probes(dst, protocol=ICMPV6, port=0):
    """One probe to ``dst`` as a column batch."""
    dst_hi, dst_lo = halves([dst])
    return dict(time=np.zeros(1), src_hi=np.zeros(1, dtype=np.uint64),
                src_lo=np.ones(1, dtype=np.uint64), dst_hi=dst_hi,
                dst_lo=dst_lo,
                protocol=np.full(1, int(protocol), dtype=np.uint8),
                dst_port=np.full(1, port, dtype=np.uint16),
                src_asn=np.zeros(1, dtype=np.uint32),
                scanner_id=np.full(1, -1, dtype=np.int64))


class TestTelescope:
    def test_requires_prefix(self):
        with pytest.raises(ExperimentError):
            Telescope(name="x", kind=TelescopeKind.PASSIVE, prefixes=[],
                      capture=PacketCapture())

    def test_active_requires_responder(self):
        with pytest.raises(ExperimentError):
            Telescope(name="x", kind=TelescopeKind.ACTIVE, prefixes=[P48],
                      capture=PacketCapture())

    def test_deliver_records(self):
        telescope = Telescope(name="x", kind=TelescopeKind.PASSIVE,
                              prefixes=[P48], capture=PacketCapture())
        answered = telescope.deliver_batch(**probes(P48.network | 1))
        assert answered == 0
        assert telescope.packet_count == 1

    def test_misrouted_rejected(self):
        """The router hands a telescope only the rows it owns."""
        telescope = Telescope(name="x", kind=TelescopeKind.PASSIVE,
                              prefixes=[P48], capture=PacketCapture())
        ctx = ScannerContext(simulator=Simulator(),
                             route=prefix_router([telescope]))
        rows = probes(1)
        ctx.inject_batch(**rows)
        assert ctx.packets_unrouted == 1
        assert telescope.packet_count == 0


class TestPrefixRouter:
    def test_most_specific_owner_wins(self):
        narrower = Prefix.parse("3fff:4000:4:1::/64")
        wide = Telescope(name="wide", kind=TelescopeKind.PASSIVE,
                         prefixes=[P48], capture=PacketCapture())
        narrow = Telescope(name="narrow", kind=TelescopeKind.PASSIVE,
                           prefixes=[narrower], capture=PacketCapture())
        route = prefix_router([wide, narrow])
        slots, telescopes = route(
            *halves([P48.network | 1, narrower.network | 1, 1]),
            np.zeros(3))
        assert telescopes == (wide, narrow)
        assert slots.tolist() == [0, 1, -1]

    def test_no_telescopes_routes_nothing(self):
        slots, telescopes = prefix_router([])(*halves([1, 2]), np.zeros(2))
        assert telescopes == ()
        assert slots.tolist() == [-1, -1]


class TestReactiveResponder:
    def test_tcp_answered(self):
        responder = ReactiveResponder()
        telescope = Telescope(name="T4", kind=TelescopeKind.ACTIVE,
                              prefixes=[P48], capture=PacketCapture(),
                              responder=responder)
        assert telescope.deliver_batch(**probes(P48.network | 1, TCP, 80))
        assert responder.responses_sent == 1

    def test_icmpv6_answered_udp_not(self):
        responder = ReactiveResponder()
        dst_hi, dst_lo = halves([P48.network | 1, P48.network | 1])
        protocol = np.array([int(ICMPV6), int(UDP)], dtype=np.uint8)
        ports = np.array([0, 53], dtype=np.uint16)
        assert responder.respond_batch(protocol, dst_hi, dst_lo, ports) == 1
        assert responder.respond_batch(protocol[1:], dst_hi[1:],
                                       dst_lo[1:], ports[1:]) == 0


class TestProductiveSubnet:
    def test_build(self):
        umbrella = UmbrellaList()
        prod = ProductiveSubnet.build(Prefix.parse("3fff:2000::/48"),
                                      np.random.default_rng(0),
                                      umbrella=umbrella)
        assert prod.subnet.length == 56
        assert prod.telescope_prefix.covers(prod.subnet)
        # the attractor lives inside the /48 but outside the productive /56
        assert prod.telescope_prefix.contains_address(prod.attractor_addr)
        assert not prod.contains(prod.attractor_addr)
        assert prod.attractor_name in umbrella
        assert len(prod.host_addrs) == 24
        assert all(prod.contains(h) for h in prod.host_addrs)

    def test_zone_has_attractor(self):
        prod = ProductiveSubnet.build(Prefix.parse("3fff:2000::/48"),
                                      np.random.default_rng(0))
        addrs = prod.zone.aaaa_addresses()
        assert prod.attractor_addr in addrs

    def test_too_specific_prefix_rejected(self):
        with pytest.raises(ExperimentError):
            ProductiveSubnet.build(Prefix.parse("3fff:2000::/64"),
                                   np.random.default_rng(0))
