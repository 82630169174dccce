"""Tests for repro.bgp.collector."""

import numpy as np
import pytest

from repro.bgp.collector import RouteCollector
from repro.bgp.messages import UpdateKind
from repro.bgp.speaker import BGPNetwork
from repro.bgp.topology import ASRelationship, ASTopology
from repro.net.prefix import Prefix
from repro.sim.events import Simulator

P = Prefix.parse("2001:db8::/32")


@pytest.fixture
def world():
    t = ASTopology()
    t.add_as(1, tier=1)
    t.add_as(2, tier=3)
    t.add_link(1, 2, ASRelationship.CUSTOMER)
    sim = Simulator()
    network = BGPNetwork(t, sim, np.random.default_rng(0),
                         min_link_delay=1.0, max_link_delay=1.5)
    collector = RouteCollector(network=network, simulator=sim,
                               feed_delay=30.0)
    return sim, network, collector


class TestJournal:
    def test_announcement_recorded_once(self, world):
        sim, network, collector = world
        network.speaker(2).originate(P)
        sim.run_until(60.0)
        announces = collector.announcements()
        assert len(announces) == 1
        assert announces[0].prefix == P
        assert collector.first_seen(P) is not None

    def test_withdraw_then_reannounce_journaled(self, world):
        sim, network, collector = world
        speaker = network.speaker(2)
        speaker.originate(P)
        sim.run_until(60.0)
        speaker.withdraw_origin(P)
        sim.run_until(120.0)
        speaker.originate(P)
        sim.run_until(180.0)
        kinds = [e.kind for e in collector.journal]
        assert kinds == [UpdateKind.ANNOUNCE, UpdateKind.WITHDRAW,
                         UpdateKind.ANNOUNCE]


class TestSubscription:
    def test_feed_delay_applied(self, world):
        sim, network, collector = world
        received = []
        collector.subscribe(lambda t, e: received.append((t, e)))
        network.speaker(2).originate(P)
        sim.run_until(300.0)
        assert len(received) == 1
        publish_time, entry = received[0]
        assert publish_time == pytest.approx(entry.time + 30.0)

    def test_peer_filter(self):
        t = ASTopology()
        t.add_as(1, tier=1)
        t.add_as(2, tier=3)
        t.add_link(1, 2, ASRelationship.CUSTOMER)
        sim = Simulator()
        network = BGPNetwork(t, sim, np.random.default_rng(0))
        collector = RouteCollector(network=network, simulator=sim,
                                   peers=frozenset({999}))
        network.speaker(2).originate(P)
        sim.run_until(60.0)
        assert collector.journal == []
