"""Tests for repro.bgp.topology."""

import hashlib

import numpy as np
import pytest

from repro.bgp.topology import (ASRelationship, ASTopology, attach_stub,
                                build_topology)
from repro.errors import RoutingError
from repro.experiment import ExperimentConfig
from repro.experiment.driver import deployment_for
from repro.sim.rng import RngStreams


@pytest.fixture
def topo():
    return build_topology(np.random.default_rng(1))


class TestASTopology:
    def test_add_as_duplicate_rejected(self):
        t = ASTopology()
        t.add_as(1, tier=1)
        with pytest.raises(RoutingError):
            t.add_as(1, tier=1)

    def test_self_loop_rejected(self):
        t = ASTopology()
        t.add_as(1, tier=1)
        with pytest.raises(RoutingError):
            t.add_link(1, 1, ASRelationship.PEER)

    def test_relationship_symmetry(self):
        t = ASTopology()
        t.add_as(1, tier=1)
        t.add_as(2, tier=2)
        t.add_link(1, 2, ASRelationship.CUSTOMER)
        assert t.relationship(1, 2) is ASRelationship.CUSTOMER
        assert t.relationship(2, 1) is ASRelationship.PROVIDER

    def test_peer_symmetry(self):
        t = ASTopology()
        t.add_as(1, tier=1)
        t.add_as(2, tier=1)
        t.add_link(1, 2, ASRelationship.PEER)
        assert t.relationship(1, 2) is ASRelationship.PEER
        assert t.relationship(2, 1) is ASRelationship.PEER

    def test_unknown_adjacency(self):
        t = ASTopology()
        t.add_as(1, tier=1)
        t.add_as(2, tier=1)
        with pytest.raises(RoutingError):
            t.relationship(1, 2)

    def test_customer_provider_views(self, topo):
        for asn in topo.ases():
            for customer in topo.customers(asn):
                assert asn in topo.providers(customer)


class TestBuildTopology:
    def test_counts(self, topo):
        tiers = [topo.info[a].tier for a in topo.ases()]
        assert tiers.count(1) == 4
        assert tiers.count(2) == 12
        assert tiers.count(3) == 60

    def test_tier1_clique(self, topo):
        tier1 = [a for a in topo.ases() if topo.info[a].tier == 1]
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                assert topo.relationship(a, b) is ASRelationship.PEER

    def test_every_stub_has_a_provider(self, topo):
        stubs = [a for a in topo.ases() if topo.info[a].tier == 3]
        for stub in stubs:
            assert topo.providers(stub)

    def test_tier2_multihomed(self, topo):
        tier2 = [a for a in topo.ases() if topo.info[a].tier == 2]
        for asn in tier2:
            assert len(topo.providers(asn)) == 2

    def test_invalid_parameters(self):
        with pytest.raises(RoutingError):
            build_topology(np.random.default_rng(0), num_tier1=1)


class TestAttachStub:
    def test_attach(self, topo):
        attach_stub(topo, 65000, np.random.default_rng(0), name="me")
        assert topo.info[65000].tier == 3
        assert len(topo.providers(65000)) == 2

    def test_attach_needs_tier2(self):
        t = ASTopology()
        t.add_as(1, tier=1)
        with pytest.raises(RoutingError):
            attach_stub(t, 65000, np.random.default_rng(0))


class TestLinks:
    def test_each_link_once_in_insertion_order(self):
        t = ASTopology()
        for asn in (3, 1, 2, 4):
            t.add_as(asn, tier=1)
        t.add_link(1, 2, ASRelationship.PEER)
        t.add_link(3, 4, ASRelationship.CUSTOMER)
        t.add_link(2, 3, ASRelationship.PROVIDER)
        t.add_link(4, 1, ASRelationship.PEER)
        assert list(t.links()) == [(3, 4), (3, 2), (1, 2), (1, 4)]
        assert t.has_link(2, 3) and t.has_link(3, 2)
        assert not t.has_link(1, 3) and not t.has_link(9, 1)

    #: link count and sha256 of ``repr(list(links()))``: ``BGPNetwork``
    #: draws the per-link delays in this order, so any other order moves
    #: every corpus digest.
    @pytest.mark.parametrize("config, count, digest", [
        (ExperimentConfig.tiny(), 45,
         "f5a92731c726be5910858bbbd4a9ecfe11e838f09f590d030a13c5d1f3ce5a25"),
        (ExperimentConfig(), 132,
         "a9036b683430cbf02f917c5e8dab2f26e01ff85f80044fd622ce38f4a9e42664"),
    ], ids=["tiny", "default"])
    def test_deployment_link_order_pinned(self, config, count, digest):
        topology = deployment_for(config, RngStreams(config.seed)).topology
        links = list(topology.links())
        assert len(links) == count
        assert hashlib.sha256(repr(links).encode()).hexdigest() == digest
