"""Property-based tests of the BGP substrate.

Hypothesis generates random small multi-tier topologies and checks the
protocol invariants that make the substrate a faithful stand-in for the
paper's control plane: loop-free AS paths, valley-free routing
(Gao-Rexford export), convergence, and clean withdrawal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.speaker import BGPNetwork
from repro.bgp.topology import ASRelationship, build_topology
from repro.net.prefix import Prefix
from repro.sim.events import Simulator

P = Prefix.parse("2001:db8::/32")


def make_network(seed: int, num_tier1: int, num_tier2: int,
                 num_stubs: int) -> BGPNetwork:
    topo = build_topology(np.random.default_rng(seed),
                          num_tier1=num_tier1, num_tier2=num_tier2,
                          num_stubs=num_stubs)
    return BGPNetwork(topo, Simulator(), np.random.default_rng(seed),
                      min_link_delay=1.0, max_link_delay=5.0)


def is_valley_free(path: tuple[int, ...], topo) -> bool:
    """A path is valley-free if it climbs customer->provider links, may
    cross at most one peer link, and then only descends."""
    if len(path) < 2:
        return True
    # walk from origin (last) toward receiver (first)
    hops = list(reversed(path))
    phase = "up"
    peer_used = False
    for a, b in zip(hops, hops[1:]):
        rel = topo.relationship(b, a)  # what a is to b
        if rel is ASRelationship.CUSTOMER:
            # b learned from its customer a: still climbing
            if phase == "down":
                return False
        elif rel is ASRelationship.PEER:
            if phase == "down" or peer_used:
                return False
            peer_used = True
            phase = "down"
        else:  # a is b's provider: descending
            phase = "down"
    return True


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       num_tier2=st.integers(min_value=2, max_value=6),
       num_stubs=st.integers(min_value=2, max_value=10))
def test_protocol_invariants(seed, num_tier2, num_stubs):
    network = make_network(seed, 3, num_tier2, num_stubs)
    stubs = [a for a, info in network.topology.info.items()
             if info.tier == 3]
    origin = stubs[seed % len(stubs)]
    network.speaker(origin).originate(P)
    network.simulator.run_until(600.0)

    for asn, speaker in network.speakers.items():
        if asn == origin:
            continue  # locally originated route (neighbor 0)
        route = speaker.loc_rib.best(P)
        if route is None:
            continue
        # (1) loop-free paths
        assert len(set(route.as_path)) == len(route.as_path), route
        # (2) the path actually ends at the origin and starts next door
        assert route.as_path[-1] == origin
        assert route.as_path[0] == route.neighbor
        # (3) consecutive path hops share an adjacency
        full_path = (asn, *route.as_path)
        for a, b in zip(full_path, full_path[1:]):
            assert network.topology.has_link(a, b)
        # (4) valley-free (Gao-Rexford export compliance)
        assert is_valley_free(full_path, network.topology), full_path

    # (5) withdrawal cleans every RIB
    network.speaker(origin).withdraw_origin(P)
    network.simulator.run_until(network.simulator.now + 600.0)
    for speaker in network.speakers.values():
        assert speaker.loc_rib.best(P) is None


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_full_visibility_from_any_stub(seed):
    """Any customer-attached origin becomes visible everywhere (the
    topology builder only produces transit-connected ASes)."""
    network = make_network(seed, 3, 4, 6)
    stubs = [a for a, info in network.topology.info.items()
             if info.tier == 3]
    network.speaker(stubs[0]).originate(P)
    network.simulator.run_until(600.0)
    assert network.visibility(P) == pytest.approx(1.0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       flaps=st.integers(min_value=1, max_value=3))
def test_flapping_converges(seed, flaps):
    """Announce/withdraw cycles always converge to the final state."""
    network = make_network(seed, 3, 4, 6)
    stubs = [a for a, info in network.topology.info.items()
             if info.tier == 3]
    speaker = network.speaker(stubs[0])
    for _ in range(flaps):
        speaker.originate(P)
        network.simulator.run_until(network.simulator.now + 400.0)
        speaker.withdraw_origin(P)
        network.simulator.run_until(network.simulator.now + 400.0)
    speaker.originate(P)
    network.simulator.run_until(network.simulator.now + 600.0)
    assert network.visibility(P) == pytest.approx(1.0)
