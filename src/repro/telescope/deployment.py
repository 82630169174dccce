"""The standard four-telescope deployment.

Wires together the complete measurement infrastructure of §3: AS topology,
BGP fabric, route collector, hitlist service, DNS, the four telescopes, and
the T1 split controller. Also provides the data-plane routing function that
decides which telescope (if any) captures a packet addressed to ``dst`` at
a given time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from repro import obs

from repro.bgp.collector import CollectorEntry, RouteCollector
from repro.bgp.controller import (AnnouncementCycle, SplitController,
                                  build_split_schedule)
from repro.bgp.lookingglass import LookingGlass
from repro.bgp.policy import IrrDatabase, Route6Object
from repro.bgp.speaker import BGPNetwork
from repro.bgp.topology import ASTopology, attach_stub, build_topology
from repro.dns.resolver import Resolver
from repro.dns.umbrella import UmbrellaList
from repro.dns.zone import Zone
from repro.hitlist.service import HitlistService
from repro.net.lpm import NO_MATCH, build_matcher
from repro.net.prefix import Prefix
from repro.sim.clock import WEEK
from repro.sim.events import Simulator
from repro.sim.rng import RngStreams
from repro.telescope.capture import CaptureFilter, PacketCapture
from repro.telescope.productive import ProductiveSubnet
from repro.telescope.reactive import ReactiveResponder
from repro.telescope.telescope import Telescope, TelescopeKind

#: Prefixes of the deployment (documentation-safe 3fff::/20 space).
T1_PREFIX = Prefix.parse("3fff:1000::/32")
T2_PREFIX = Prefix.parse("3fff:2000::/48")
COVERING_PREFIX = Prefix.parse("3fff:4000::/29")
T3_PREFIX = Prefix.parse("3fff:4000:3::/48")
T4_PREFIX = Prefix.parse("3fff:4000:4::/48")

#: ASNs of the measurement infrastructure.
TELESCOPE_ASN = 64500
COVERING_ASN = 64499

# splitmix64 finalizer constants for the delivery-loss hash coin.
_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)


def _loss_uniforms(dst_hi: np.ndarray, dst_lo: np.ndarray,
                   time: np.ndarray, seed: int) -> np.ndarray:
    """Per-packet uniform [0, 1) loss coins, as a pure function of packet.

    Keyed on ``(dst, time, seed)`` through a splitmix64-style finalizer,
    so the coin for a packet never depends on draw order: the scalar and
    batch routing paths and every sharded partition of the scanner
    population all flip the same coin for the same packet.
    """
    with np.errstate(over="ignore"):
        x = (np.ascontiguousarray(dst_hi, dtype=np.uint64)
             ^ (np.ascontiguousarray(dst_lo, dtype=np.uint64) * _MIX_A)
             ^ np.ascontiguousarray(time, dtype=np.float64).view(np.uint64)
             ^ np.uint64(seed & 0xFFFF_FFFF_FFFF_FFFF))
        x = (x ^ (x >> np.uint64(30))) * _MIX_B
        x = (x ^ (x >> np.uint64(27))) * _MIX_C
        x ^= x >> np.uint64(31)
    # top 53 bits -> float64 in [0, 1), the usual uint64-to-double map
    return (x >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


@dataclass
class Deployment:
    """All infrastructure pieces of the measurement setup."""

    simulator: Simulator
    streams: RngStreams
    topology: ASTopology
    network: BGPNetwork
    collector: RouteCollector
    hitlist: HitlistService
    resolver: Resolver
    umbrella: UmbrellaList
    irr: IrrDatabase
    looking_glass: LookingGlass
    telescopes: dict[str, Telescope]
    controller: SplitController
    productive: ProductiveSubnet
    rdns_zone: Zone
    baseline_weeks: int = 12
    #: set by :func:`build_deployment` when route-object creation is armed.
    route_object_created_at: float | None = None
    #: T1 data-plane outage windows [start, end) installed by the fault
    #: injector (BGP session flaps); packets to T1 are unrouted inside.
    t1_outages: list[tuple[float, float]] = field(default_factory=list)
    #: probabilistic substrate delivery loss (fault injection); a routed
    #: packet is dropped in flight with this probability. The coin for a
    #: packet is a pure hash of ``(dst, time, loss_seed)``, so the
    #: decision depends only on the packet itself — never on how many
    #: other packets were routed before it. That keeps faulted runs
    #: byte-identical between the scalar and batch paths and across any
    #: sharding of the scanner population.
    loss_rate: float = 0.0
    loss_seed: int = 0
    # routing-epoch machinery of route_batch, built lazily from the
    # controller schedule
    _epoch_boundaries: object = field(default=None, repr=False)
    _epoch_matchers: dict = field(default_factory=dict, repr=False)

    @property
    def t2(self) -> Telescope:
        return self.telescopes["T2"]

    # -- data plane ------------------------------------------------------------

    def add_t1_outage(self, start: float, end: float) -> None:
        """Register a T1 data-plane outage (fault injection).

        Invalidates the routing-epoch caches so :meth:`route_batch`
        re-derives its boundaries with the outage edges included.
        """
        self.t1_outages.append((float(start), float(end)))
        self._epoch_boundaries = None
        self._epoch_matchers.clear()

    def _t1_down(self, now: float) -> bool:
        return any(start <= now < end for start, end in self.t1_outages)

    def _lost(self, dst: int, now: float) -> bool:
        """One in-flight loss coin for the scalar routing path."""
        if self.loss_rate <= 0.0:
            return False
        coin = _loss_uniforms(
            np.array([dst >> 64], dtype=np.uint64),
            np.array([dst & 0xFFFF_FFFF_FFFF_FFFF], dtype=np.uint64),
            np.array([now], dtype=np.float64),
            self.loss_seed)
        if float(coin[0]) < self.loss_rate:
            obs.add("faults.packets_lost_total")
            return True
        return False

    def route(self, dst: int, now: float | None = None) -> Telescope | None:
        """Which telescope captures a packet to ``dst`` right now.

        T1 is reachable only while its covering announcement cycle is
        active (and not flapped down by a fault); T2 and the /29 (hence
        T3/T4) are stable. Packets into the /29 outside T3/T4 belong to
        the prefix owner and are invisible.
        """
        if now is None:
            now = self.simulator.now
        if T2_PREFIX.contains_address(dst):
            return None if self._lost(dst, now) else self.telescopes["T2"]
        if T3_PREFIX.contains_address(dst):
            return None if self._lost(dst, now) else self.telescopes["T3"]
        if T4_PREFIX.contains_address(dst):
            return None if self._lost(dst, now) else self.telescopes["T4"]
        if COVERING_PREFIX.contains_address(dst):
            return None
        if T1_PREFIX.contains_address(dst):
            if self.t1_outages and self._t1_down(now):
                return None
            cycle = self.controller.cycle_at(now)
            if cycle is None:
                return None
            for prefix in cycle.prefixes:
                if prefix.contains_address(dst):
                    return None if self._lost(dst, now) \
                        else self.telescopes["T1"]
        return None

    def _boundaries(self) -> np.ndarray:
        """Routing-epoch boundaries: every schedule announce/withdraw time.

        Between two consecutive boundaries the data plane is constant
        (:meth:`route` depends on time only through
        ``controller.cycle_at``, which is schedule-driven), so one prefix
        matcher per epoch reproduces :meth:`route` exactly.
        """
        if self._epoch_boundaries is None:
            times = set()
            for cycle in self.controller.schedule:
                times.add(cycle.announce_time)
                times.add(cycle.withdraw_time)
            for start, end in self.t1_outages:
                times.add(start)
                times.add(end)
            self._epoch_boundaries = np.array(sorted(times))
        return self._epoch_boundaries

    def _epoch_matcher(self, epoch: int):
        matcher = self._epoch_matchers.get(epoch)
        if matcher is None:
            boundaries = self._boundaries()
            probe = float("-inf") if epoch == 0 \
                else float(boundaries[epoch - 1])
            entries = [(T2_PREFIX, 1), (T3_PREFIX, 2), (T4_PREFIX, 3)]
            cycle = self.controller.cycle_at(probe)
            if cycle is not None and not (self.t1_outages
                                          and self._t1_down(probe)):
                entries.extend((prefix, 0) for prefix in cycle.prefixes)
            matcher = build_matcher(entries, default=NO_MATCH)
            self._epoch_matchers[epoch] = matcher
        return matcher

    def route_batch(self, dst_hi: np.ndarray, dst_lo: np.ndarray,
                    time: np.ndarray):
        """Vectorized, epoch-aware :meth:`route` over packet columns.

        Returns ``(slots, telescopes)`` where each row's slot indexes the
        telescope tuple, with ``-1`` for unrouted rows. Rows are grouped
        by routing epoch (``searchsorted`` over the schedule boundaries),
        so a session straddling an announce or withdraw still lands each
        packet on the table in force at its own timestamp.
        """
        epochs = np.searchsorted(self._boundaries(), time, side="right")
        first = int(epochs[0])
        telescopes = (self.telescopes["T1"], self.telescopes["T2"],
                      self.telescopes["T3"], self.telescopes["T4"])
        if epochs[0] == epochs[-1] and (epochs == first).all():
            slots = self._epoch_matcher(first).lookup(dst_hi, dst_lo)
        else:
            slots = np.empty(len(dst_hi), dtype=np.int16)
            for epoch in np.unique(epochs):
                rows = epochs == epoch
                slots[rows] = self._epoch_matcher(int(epoch)).lookup(
                    dst_hi[rows], dst_lo[rows])
        if self.loss_rate > 0.0:
            # one hash coin per *routed* row — the same coin the scalar
            # path computes for the same packet
            rows = np.flatnonzero(slots >= 0)
            if len(rows):
                coins = _loss_uniforms(dst_hi[rows], dst_lo[rows],
                                       time[rows], self.loss_seed)
                lost = coins < self.loss_rate
                n_lost = int(np.count_nonzero(lost))
                if n_lost:
                    slots = slots.copy() if slots.base is not None else slots
                    slots[rows[lost]] = -1
                    obs.add("faults.packets_lost_total", n_lost)
        return slots, telescopes

    def announced_t1_prefixes(self, now: float | None = None) \
            -> tuple[Prefix, ...]:
        if now is None:
            now = self.simulator.now
        return self.controller.announced_prefixes_at(now)

    def split_start(self) -> float:
        """Start time of the split (active) period."""
        return self.baseline_weeks * WEEK

    def cycles(self) -> list[AnnouncementCycle]:
        return list(self.controller.schedule)

    # -- scheduled setup callbacks (picklable event actions) -----------------

    def _announce_stable(self) -> None:
        self.network.speaker(TELESCOPE_ASN).originate(T2_PREFIX)
        self.network.speaker(COVERING_ASN).originate(COVERING_PREFIX)

    def _create_route_object(self, when: float) -> None:
        stable_33 = T1_PREFIX.split()[0]
        self.irr.register(Route6Object(prefix=stable_33,
                                       origin=TELESCOPE_ASN), time=when)
        self.route_object_created_at = when


def build_deployment(streams: RngStreams,
                     simulator: Simulator | None = None,
                     baseline_weeks: int = 12,
                     cycle_weeks: int = 2,
                     num_cycles: int = 16,
                     num_tier1: int = 4,
                     num_tier2: int = 12,
                     num_stubs: int = 60,
                     feed_delay: float = 60.0,
                     create_route_object_after_weeks: int = 16,
                     replay_feed: "Sequence[CollectorEntry] | None" = None,
                     ) -> Deployment:
    """Assemble the four-telescope deployment of the paper.

    The returned deployment has the T1 schedule armed but the simulator not
    yet run; drive it through :class:`repro.experiment.driver`.

    ``replay_feed`` switches the deployment into recorded-timeline mode
    (shard workers, DESIGN §8): no BGP origination events are armed —
    neither the stable announcements nor the split schedule runs through
    the fabric — and the collector replays the given journal instead.
    Everything corpus-visible is unaffected: the data plane
    (:meth:`Deployment.route` / :meth:`Deployment.route_batch`) is
    driven by the static announcement schedule, not by RIB state, and
    scanners observe routing only through the collector feed, which the
    replay reproduces publication-for-publication.
    """
    if simulator is None:
        simulator = Simulator()
    topo_rng = streams.get("topology")
    topology = build_topology(topo_rng, num_tier1=num_tier1,
                              num_tier2=num_tier2, num_stubs=num_stubs)
    attach_stub(topology, TELESCOPE_ASN, topo_rng, name="telescope-as")
    attach_stub(topology, COVERING_ASN, topo_rng, name="covering-as")
    irr = IrrDatabase()
    network = BGPNetwork(topology, simulator, streams.get("bgp.delay"),
                         irr=irr)
    collector = RouteCollector(network=network, simulator=simulator,
                               feed_delay=feed_delay)
    hitlist = HitlistService(simulator=simulator)
    hitlist.attach(collector)
    hitlist.seed(T2_PREFIX)
    hitlist.seed(COVERING_PREFIX)

    umbrella = UmbrellaList()
    resolver = Resolver()
    rdns_zone = Zone(origin="rdns.")
    resolver.add_zone(rdns_zone)

    productive = ProductiveSubnet.build(T2_PREFIX,
                                        streams.get("productive"),
                                        umbrella=umbrella)
    resolver.add_zone(productive.zone)

    telescopes = {
        "T1": Telescope(name="T1", kind=TelescopeKind.PASSIVE,
                        prefixes=[T1_PREFIX],
                        capture=PacketCapture(name="T1")),
        "T2": Telescope(
            name="T2", kind=TelescopeKind.TRACEABLE,
            prefixes=[T2_PREFIX],
            capture=PacketCapture(
                name="T2",
                capture_filter=CaptureFilter(
                    exclude_dst_prefixes=productive.excluded_prefixes,
                    exclude_src_prefixes=productive.excluded_prefixes)),
            dns_exposed={productive.attractor_addr}),
        "T3": Telescope(name="T3", kind=TelescopeKind.PASSIVE,
                        prefixes=[T3_PREFIX],
                        capture=PacketCapture(name="T3")),
        "T4": Telescope(name="T4", kind=TelescopeKind.ACTIVE,
                        prefixes=[T4_PREFIX],
                        capture=PacketCapture(name="T4"),
                        responder=ReactiveResponder()),
    }

    # stable announcements: T2's /48 and the borrowed covering /29
    schedule = build_split_schedule(T1_PREFIX, baseline_weeks=baseline_weeks,
                                    cycle_weeks=cycle_weeks,
                                    num_cycles=num_cycles)
    controller = SplitController(speaker=network.speaker(TELESCOPE_ASN),
                                 simulator=simulator, schedule=schedule)
    deployment = Deployment(
        simulator=simulator, streams=streams, topology=topology,
        network=network, collector=collector, hitlist=hitlist,
        resolver=resolver, umbrella=umbrella, irr=irr,
        looking_glass=LookingGlass(network), telescopes=telescopes,
        controller=controller, productive=productive, rdns_zone=rdns_zone,
        baseline_weeks=baseline_weeks)

    if replay_feed is None:
        simulator.schedule_at(0.0, deployment._announce_stable,
                              label="stable:announce")
        controller.start()
    else:
        collector.arm_replay(replay_feed)

    if create_route_object_after_weeks is not None:
        when = create_route_object_after_weeks * WEEK
        simulator.schedule_at(when,
                              partial(deployment._create_route_object, when),
                              label="irr:create-route6")
    return deployment
