"""AS-level topology.

A synthetic but structurally realistic inter-domain graph: a clique of
tier-1 transit providers, a ring+providers layer of tier-2 networks that
also peer at an IXP, and stub ASes (content, hosting, ISP, education, ...)
multi-homed to the upper tiers. The telescope AS attaches exactly like the
paper's: one IXP peering layer plus upstream providers.

Edges carry Gao-Rexford relationships:

- ``provider->customer`` (transit), and
- ``peer<->peer`` (settlement-free, e.g. at the IXP).
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RoutingError


class ASRelationship(enum.Enum):
    """Business relationship on a BGP adjacency, from each side's view."""

    CUSTOMER = "customer"   # the neighbor is my customer
    PROVIDER = "provider"   # the neighbor is my provider
    PEER = "peer"           # settlement-free peer


@dataclass(slots=True)
class ASInfo:
    """Static attributes of one autonomous system."""

    asn: int
    tier: int
    name: str = ""
    country: str = ""


@dataclass
class ASTopology:
    """Inter-domain graph with relationship-labeled adjacencies."""

    info: dict[int, ASInfo] = field(default_factory=dict)
    #: ``adjacency[a][b]`` is what ``b`` is to ``a``; both dict levels
    #: keep insertion order, which fixes the order of :meth:`links`.
    adjacency: dict[int, dict[int, ASRelationship]] = field(
        default_factory=dict)

    def add_as(self, asn: int, tier: int, name: str = "",
               country: str = "") -> None:
        if asn in self.info:
            raise RoutingError(f"AS{asn} already exists")
        self.info[asn] = ASInfo(asn=asn, tier=tier, name=name, country=country)
        self.adjacency[asn] = {}

    def add_link(self, a: int, b: int,
                 rel_a: ASRelationship) -> None:
        """Connect ``a`` and ``b``; ``rel_a`` is what ``b`` is *to* ``a``.

        ``rel_a=CUSTOMER`` means b is a's customer (a provides transit).
        """
        for asn in (a, b):
            if asn not in self.info:
                raise RoutingError(f"unknown AS{asn}")
        if a == b:
            raise RoutingError(f"self-loop on AS{a}")
        if rel_a is ASRelationship.PEER:
            rel_b = ASRelationship.PEER
        elif rel_a is ASRelationship.CUSTOMER:
            rel_b = ASRelationship.PROVIDER
        else:
            rel_b = ASRelationship.CUSTOMER
        self.adjacency[a][b] = rel_a
        self.adjacency[b][a] = rel_b

    def has_link(self, a: int, b: int) -> bool:
        return b in self.adjacency.get(a, ())

    def links(self) -> Iterator[tuple[int, int]]:
        """Each adjacency once, as ``(a, b)``: every AS in insertion order,
        then each of its neighbours not yet yielded, in link order."""
        seen = set()
        for a, neighbors in self.adjacency.items():
            for b in neighbors:
                if b not in seen:
                    yield a, b
            seen.add(a)

    def relationship(self, asn: int, neighbor: int) -> ASRelationship:
        """What ``neighbor`` is to ``asn`` on their shared adjacency."""
        try:
            return self.adjacency[asn][neighbor]
        except KeyError:
            raise RoutingError(
                f"no adjacency AS{asn}-AS{neighbor}") from None

    def neighbors(self, asn: int) -> list[int]:
        return sorted(self.adjacency[asn])

    def ases(self) -> list[int]:
        return sorted(self.info)

    def customers(self, asn: int) -> list[int]:
        return [n for n in self.neighbors(asn)
                if self.relationship(asn, n) is ASRelationship.CUSTOMER]

    def providers(self, asn: int) -> list[int]:
        return [n for n in self.neighbors(asn)
                if self.relationship(asn, n) is ASRelationship.PROVIDER]


def build_topology(rng: np.random.Generator,
                   num_tier1: int = 4,
                   num_tier2: int = 12,
                   num_stubs: int = 60,
                   first_asn: int = 100) -> ASTopology:
    """Build the synthetic inter-domain topology.

    Structure:
      * tier-1 ASes form a full peering clique;
      * each tier-2 AS buys transit from two tier-1s and peers with two
        other tier-2s (the IXP fabric);
      * each stub AS buys transit from one or two tier-2s.

    ASNs are assigned sequentially from ``first_asn``; stubs come last, so
    callers can attach scanners and telescopes to the stub range.
    """
    if num_tier1 < 2 or num_tier2 < 2 or num_stubs < 1:
        raise RoutingError("topology needs >=2 tier-1, >=2 tier-2, >=1 stub")
    topo = ASTopology()
    asn = first_asn
    tier1 = []
    for i in range(num_tier1):
        topo.add_as(asn, tier=1, name=f"tier1-{i}")
        tier1.append(asn)
        asn += 1
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            topo.add_link(a, b, ASRelationship.PEER)

    tier2 = []
    for i in range(num_tier2):
        topo.add_as(asn, tier=2, name=f"tier2-{i}")
        tier2.append(asn)
        asn += 1
    for i, t2 in enumerate(tier2):
        upstreams = rng.choice(tier1, size=2, replace=False)
        for up in upstreams:
            topo.add_link(int(up), t2, ASRelationship.CUSTOMER)
        # IXP-style peering ring among tier-2s
        ring_peer = tier2[(i + 1) % num_tier2]
        if ring_peer != t2 and not topo.has_link(t2, ring_peer):
            topo.add_link(t2, ring_peer, ASRelationship.PEER)

    for i in range(num_stubs):
        topo.add_as(asn, tier=3, name=f"stub-{i}")
        degree = 2 if rng.random() < 0.4 else 1
        upstreams = rng.choice(tier2, size=degree, replace=False)
        for up in upstreams:
            topo.add_link(int(up), asn, ASRelationship.CUSTOMER)
        asn += 1
    return topo


def attach_stub(topo: ASTopology, asn: int, rng: np.random.Generator,
                name: str = "", country: str = "",
                num_providers: int = 2) -> None:
    """Attach a new stub AS (e.g. the telescope AS) below random tier-2s."""
    tier2 = [a for a, i in topo.info.items() if i.tier == 2]
    if len(tier2) < num_providers:
        raise RoutingError("not enough tier-2 ASes to attach a stub")
    topo.add_as(asn, tier=3, name=name, country=country)
    upstreams = rng.choice(tier2, size=num_providers, replace=False)
    for up in upstreams:
        topo.add_link(int(up), asn, ASRelationship.CUSTOMER)
