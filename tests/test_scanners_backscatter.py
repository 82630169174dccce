"""Tests for repro.scanners.backscatter (the §8 DDoS negative result)."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.net.prefix import Prefix
from repro.scanners.backscatter import (DDoSAttack, GLOBAL_UNICAST,
                                        expected_backscatter_captures,
                                        ipv4_equivalent_captures)
from repro.scanners.base import ScannerContext
from repro.sim.events import Simulator
from repro.telescope.capture import PacketCapture
from repro.telescope.telescope import (Telescope, TelescopeKind,
                                       prefix_router)

TELESCOPE_PREFIX = Prefix.parse("3fff:1000::/32")
VICTIM = Prefix.parse("2001:db8::/32").network | 0x80


@pytest.fixture
def world():
    telescope = Telescope(name="T", kind=TelescopeKind.PASSIVE,
                          prefixes=[TELESCOPE_PREFIX],
                          capture=PacketCapture())
    ctx = ScannerContext(simulator=Simulator(),
                         route=prefix_router([telescope]))
    return ctx, telescope


class TestDDoSAttack:
    def test_backscatter_misses_the_telescope(self, world):
        """The §8 claim: IPv6 telescopes capture no DDoS backscatter."""
        ctx, telescope = world
        attack = DDoSAttack(victim=VICTIM, packets=50_000,
                            rng=np.random.default_rng(0))
        captured = attack.run(ctx)
        assert captured == 0
        assert telescope.packet_count == 0
        assert attack.backscatter_sent == 50_000

    def test_spoofed_sources_inside_spoof_space(self):
        attack = DDoSAttack(victim=VICTIM, packets=1,
                            rng=np.random.default_rng(1))
        for _ in range(100):
            assert GLOBAL_UNICAST.contains_address(attack.spoofed_source())

    def test_narrow_spoof_space_gets_captured(self, world):
        """Sanity check: spoofing from inside the telescope does hit it."""
        ctx, telescope = world
        attack = DDoSAttack(victim=VICTIM, packets=100,
                            rng=np.random.default_rng(2),
                            spoof_space=TELESCOPE_PREFIX)
        captured = attack.run(ctx)
        assert captured == 100
        assert telescope.packet_count == 100

    def test_validation(self):
        with pytest.raises(ExperimentError):
            DDoSAttack(victim=VICTIM, packets=0,
                       rng=np.random.default_rng(0))
        with pytest.raises(ExperimentError):
            DDoSAttack(victim=VICTIM, packets=1,
                       rng=np.random.default_rng(0), duration=0)
        with pytest.raises(ExperimentError):
            DDoSAttack(victim=VICTIM, packets=1,
                       rng=np.random.default_rng(0), start=-1.0)
        with pytest.raises(ExperimentError):
            DDoSAttack(victim=VICTIM, packets=1,
                       rng=np.random.default_rng(0), reply_port=70000)


class TestAnalyticExpectation:
    def test_ipv6_expectation_negligible(self):
        expected = expected_backscatter_captures(
            [Prefix.parse("3fff:4000::/29")], packets=10 ** 9)
        # even a billion-packet attack and a /29 telescope: ~15 packets
        # expected from a 2^125 space -> a /32 sees ~2^-29 of the flood
        assert expected < 20

    def test_ipv4_equivalent_is_large(self):
        # the same flood against an IPv4 /8 darknet
        assert ipv4_equivalent_captures(8, 10 ** 9) == pytest.approx(
            10 ** 9 / 256)

    def test_prefix_outside_spoof_space_ignored(self):
        # the documentation prefix (outside 2000::/3) contributes nothing
        expected = expected_backscatter_captures(
            [Prefix.parse("fc00::/7")], packets=10 ** 9)
        assert expected == 0.0

    def test_validation(self):
        with pytest.raises(ExperimentError):
            expected_backscatter_captures([], packets=-1)
        with pytest.raises(ExperimentError):
            ipv4_equivalent_captures(40, 100)
