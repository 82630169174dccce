"""Tests for repro.scanners.base."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.net.prefix import Prefix
from repro.scanners.base import (Scanner, ScannerContext, SourceModel,
                                 TemporalBehavior, TemporalKind)
from repro.scanners.netselect import FixedPrefixPolicy
from repro.scanners.registry import ASRegistry, NetworkType
from repro.scanners.strategies import LowByteStrategy, ProtocolProfile
from repro.sim.clock import DAY, HOUR, WEEK
from repro.sim.events import Simulator
from repro.telescope.capture import PacketCapture
from repro.telescope.telescope import (Telescope, TelescopeKind,
                                       prefix_router)

TARGET = Prefix.parse("3fff:1000::/48")


@pytest.fixture
def registry():
    return ASRegistry()


def make_scanner(registry, temporal, **kwargs) -> Scanner:
    record = registry.allocate(NetworkType.HOSTING)
    defaults = dict(
        scanner_id=1, name="s", as_record=record, temporal=temporal,
        network_policy=FixedPrefixPolicy((TARGET,)),
        addr_strategy=LowByteStrategy(),
        protocol_profile=ProtocolProfile(icmpv6=1.0),
        rng=np.random.default_rng(5),
        packets_per_session=lambda rng: 4)
    defaults.update(kwargs)
    return Scanner(**defaults)


def make_context(window=4 * WEEK):
    telescope = Telescope(name="X", kind=TelescopeKind.PASSIVE,
                          prefixes=[TARGET], capture=PacketCapture())
    sim = Simulator()
    ctx = ScannerContext(simulator=sim, route=prefix_router([telescope]),
                         window_start=0.0, window_end=window)
    return ctx, telescope, sim


class TestTemporalBehavior:
    def test_one_off_single_time(self):
        behavior = TemporalBehavior(kind=TemporalKind.ONE_OFF)
        times = behavior.session_times(0.0, WEEK, np.random.default_rng(0))
        assert len(times) == 1
        assert 0.0 <= times[0] < WEEK

    def test_periodic_times(self):
        behavior = TemporalBehavior(kind=TemporalKind.PERIODIC,
                                    period=DAY, first_at=0.0)
        times = behavior.session_times(0.0, WEEK, np.random.default_rng(0))
        assert len(times) == 7
        gaps = np.diff(times)
        assert np.allclose(gaps, DAY)

    def test_periodic_needs_period(self):
        behavior = TemporalBehavior(kind=TemporalKind.PERIODIC)
        with pytest.raises(ExperimentError):
            behavior.session_times(0.0, WEEK, np.random.default_rng(0))

    def test_intermittent_irregular(self):
        behavior = TemporalBehavior(kind=TemporalKind.INTERMITTENT,
                                    mean_gap=DAY, first_at=0.0)
        times = behavior.session_times(0.0, 8 * WEEK,
                                       np.random.default_rng(0))
        assert len(times) >= 3
        gaps = np.diff(times)
        assert np.std(gaps) / np.mean(gaps) > 0.35

    def test_reactive_has_no_internal_schedule(self):
        behavior = TemporalBehavior(kind=TemporalKind.REACTIVE)
        assert behavior.session_times(0.0, WEEK,
                                      np.random.default_rng(0)) == []

    def test_empty_window(self):
        behavior = TemporalBehavior(kind=TemporalKind.ONE_OFF)
        assert behavior.session_times(5.0, 5.0,
                                      np.random.default_rng(0)) == []


class TestSourceAddresses:
    def test_fixed_source_stable(self, registry):
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF))
        assert scanner.source_address() == scanner.source_address(port=99)

    def test_source_inside_as_prefix(self, registry):
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF))
        assert scanner.as_record.source_prefix.contains_address(
            scanner.source_address())

    def test_per_session_rotation(self, registry):
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF),
            source_model=SourceModel.PER_SESSION)
        a = scanner.source_address(session_nonce=1)
        b = scanner.source_address(session_nonce=2)
        assert a != b
        assert a >> 64 == b >> 64  # same /64

    def test_per_port_rotation(self, registry):
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF),
            source_model=SourceModel.PER_PORT)
        a = scanner.source_address(port=80, session_nonce=1)
        b = scanner.source_address(port=443, session_nonce=1)
        assert a != b
        assert a >> 64 == b >> 64

    def test_pinned_fixed_iid(self, registry):
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF),
            fixed_iid=0x1234)
        assert scanner.source_address() & ((1 << 64) - 1) == 0x1234


class TestFiring:
    def test_one_off_fires_once(self, registry):
        ctx, telescope, sim = make_context()
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF))
        scanner.start(ctx)
        sim.run_until(ctx.window_end)
        assert scanner.sessions_fired == 1
        assert telescope.packet_count == 4

    def test_periodic_fires_repeatedly(self, registry):
        ctx, telescope, sim = make_context()
        scanner = make_scanner(
            registry,
            TemporalBehavior(kind=TemporalKind.PERIODIC, period=WEEK,
                             first_at=0.0))
        scanner.start(ctx)
        sim.run_until(ctx.window_end)
        assert scanner.sessions_fired == 4

    def test_active_window_respected(self, registry):
        ctx, telescope, sim = make_context()
        scanner = make_scanner(
            registry,
            TemporalBehavior(kind=TemporalKind.PERIODIC, period=DAY,
                             first_at=0.0),
            active_start=WEEK, active_end=WEEK + 2 * DAY)
        scanner.start(ctx)
        sim.run_until(ctx.window_end)
        times = telescope.capture.table().time.tolist()
        assert times
        assert min(times) >= WEEK
        assert max(times) < WEEK + 2 * DAY + HOUR

    def test_packets_carry_scanner_metadata(self, registry):
        ctx, telescope, sim = make_context()
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF),
            scanner_id=77)
        scanner.start(ctx)
        sim.run_until(ctx.window_end)
        table = telescope.capture.table()
        assert table.scanner_id[0] == 77
        assert table.src_asn[0] == scanner.as_record.asn

    def test_unrouted_counted(self, registry):
        ctx, telescope, sim = make_context()
        other = Prefix.parse("3fff:9999::/48")
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF),
            network_policy=FixedPrefixPolicy((other,)))
        scanner.start(ctx)
        sim.run_until(ctx.window_end)
        assert ctx.packets_unrouted == 4
        assert telescope.packet_count == 0

    def test_intra_session_gaps_below_timeout(self, registry):
        ctx, telescope, sim = make_context()
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF),
            packets_per_session=lambda rng: 200)
        scanner.start(ctx)
        sim.run_until(ctx.window_end)
        times = telescope.capture.table().time
        assert max(np.diff(times)) < HOUR

    def test_validate_rejects_session_splitting_gap(self, registry):
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF),
            mean_packet_gap=2 * HOUR)
        with pytest.raises(ExperimentError):
            scanner.validate()

    def test_payload_probability(self, registry):
        from repro.scanners.tools import YARRP6
        ctx, telescope, sim = make_context()
        scanner = make_scanner(
            registry, TemporalBehavior(kind=TemporalKind.ONE_OFF),
            tool=YARRP6, payload_probability=1.0,
            packets_per_session=lambda rng: 10)
        scanner.start(ctx)
        sim.run_until(ctx.window_end)
        table = telescope.capture.table()
        assert np.all(table.payload_id >= 0)
        assert all(table.payloads[i].startswith(YARRP6.magic)
                   for i in table.payload_id.tolist())
