"""Path-vector BGP speakers and the network fabric connecting them.

Each AS runs one :class:`BGPSpeaker`. Updates travel between speakers as
simulator events with per-link propagation delays, so announcement
visibility converges over (simulated) seconds-to-minutes — the signal that
BGP-reactive scanners in the paper latch onto.

Export policy is Gao-Rexford:

- routes learned from a *customer* are exported to everyone;
- routes learned from a *peer* or *provider* are exported to customers only;
- locally originated routes are exported to everyone.

Import policy optionally validates routes against the IRR database
(:mod:`repro.bgp.policy`), mirroring the route6-object experiment in §3.2.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.bgp.messages import Announcement, Withdrawal
from repro.bgp.rib import LOCAL_PREF, AdjRibIn, LocRib, Route
from repro.bgp.topology import ASRelationship, ASTopology
from repro.errors import RoutingError
from repro.net.prefix import Prefix
from repro.sim.events import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.bgp.policy import IrrDatabase

#: Listener signature: (time, asn, update) for every accepted update.
UpdateListener = Callable[[float, int, Announcement | Withdrawal], None]


class BGPSpeaker:
    """The BGP router of a single AS."""

    def __init__(self, asn: int, network: "BGPNetwork") -> None:
        self.asn = asn
        self._network = network
        self.adj_rib_in: dict[int, AdjRibIn] = {}
        self.loc_rib = LocRib()
        self._originated: set[Prefix] = set()
        #: per-prefix set of neighbors currently holding our announcement
        #: (Adj-RIB-Out); needed to send withdraws when the export set
        #: shrinks after a best-path change.
        self._announced_to: dict[Prefix, set[int]] = {}
        #: when True, routes from peers lacking an IRR route6 object are
        #: rejected on import (the upstream-validation behavior of §3.2).
        self.validate_irr = False
        #: caches over the (static-after-wiring) neighbor set and
        #: topology; rebuilt lazily and invalidated by
        #: :meth:`add_neighbor`.
        self._neighbors: list[int] | None = None
        self._customers: list[int] | None = None
        self._rel: dict[int, ASRelationship] = {}
        #: per first-hop neighbor (0 = locally originated): the export
        #: target set and its sorted order — pure functions of the
        #: static topology, recomputed per export otherwise.
        self._export_cache: dict[int, tuple[set[int], list[int]]] = {}
        #: interned Route per (prefix, as_path, neighbor) — announcement
        #: cycles re-deliver value-identical routes every flap.
        self._route_cache: dict[
            tuple[Prefix, tuple[int, ...], int], Route] = {}

    # -- wiring ------------------------------------------------------------

    def add_neighbor(self, asn: int) -> None:
        self.adj_rib_in.setdefault(asn, AdjRibIn())
        self._neighbors = None
        self._customers = None
        self._rel = {}
        self._export_cache = {}
        self._route_cache = {}

    def _relationship(self, neighbor: int) -> ASRelationship:
        rel = self._rel.get(neighbor)
        if rel is None:
            rel = self._network.topology.relationship(self.asn, neighbor)
            self._rel[neighbor] = rel
        return rel

    @property
    def neighbors(self) -> list[int]:
        if self._neighbors is None:
            self._neighbors = sorted(self.adj_rib_in)
        return self._neighbors

    # -- origination --------------------------------------------------------

    def originate(self, prefix: Prefix) -> None:
        """Announce ``prefix`` as locally originated."""
        if prefix in self._originated:
            return
        self._originated.add(prefix)
        route = Route(prefix=prefix, as_path=(self.asn,), neighbor=0,
                      local_pref=max(LOCAL_PREF.values()) + 100)
        self.loc_rib.install(route)
        self._export(route)

    def withdraw_origin(self, prefix: Prefix) -> None:
        """Withdraw a locally originated prefix."""
        if prefix not in self._originated:
            return
        self._originated.discard(prefix)
        self.loc_rib.uninstall(prefix)
        replacement = self._select_best(prefix)
        if replacement is not None:
            self.loc_rib.install(replacement)
            self._export(replacement)
        else:
            self._export_withdraw(prefix)

    @property
    def originated(self) -> set[Prefix]:
        return set(self._originated)

    # -- update processing ----------------------------------------------------

    def receive(self, neighbor: int, update: Announcement | Withdrawal) -> None:
        """Process one update from ``neighbor`` (called by the fabric)."""
        rib_in = self.adj_rib_in.get(neighbor)
        if rib_in is None:
            raise RoutingError(f"AS{self.asn}: update from unknown AS{neighbor}")
        if isinstance(update, Announcement):
            if update.contains_loop(self.asn):
                return
            if self.validate_irr and not self._import_accepts(neighbor,
                                                              update):
                return
            # routes are value-identical across announcement cycles (same
            # prefix, path, and neighbor every flap), so the interned
            # Route is reused instead of rebuilt 64 times per campaign
            key = (update.prefix, update.as_path, neighbor)
            route = self._route_cache.get(key)
            if route is None:
                rel = self._relationship(neighbor)
                route = Route(prefix=update.prefix, as_path=update.as_path,
                              neighbor=neighbor,
                              local_pref=LOCAL_PREF[rel.value])
                self._route_cache[key] = route
            rib_in.put(route)
            # incremental decision: against a best route from a *different*
            # neighbor, the new candidate either loses outright (best
            # unchanged, nothing to export) or wins outright (no need to
            # scan the other Adj-RIBs-In) — both outcomes are exactly what
            # the full reselect would compute, minus the scan. With no
            # current best the new route is the *sole* candidate (every
            # reselect installs the best candidate whenever one exists,
            # so an empty Loc-RIB entry means empty Adj-RIBs-In too) and
            # installs directly. A replacement from the best route's own
            # neighbor that is at least as preferred also still wins:
            # preference keys embed the neighbor ASN so keys never tie
            # across neighbors, and every other candidate already lost
            # to the old key. Only a same-neighbor *downgrade* needs the
            # full pass.
            if update.prefix not in self._originated:
                old = self.loc_rib.best(update.prefix)
                if old is None:
                    self.loc_rib.install(route)
                    self._export(route)
                    return
                if neighbor != old.neighbor:
                    if route.pref_key >= old.pref_key:
                        return
                    self.loc_rib.install(route)
                    self._export(route)
                    return
                if route.pref_key <= old.pref_key:
                    if route is old or route == old:
                        return  # duplicate announcement, nothing changed
                    self.loc_rib.install(route)
                    self._export(route)
                    return
            self._reselect(update.prefix)
        else:
            removed = rib_in.remove(update.prefix)
            if removed is not None:
                if update.prefix not in self._originated:
                    old = self.loc_rib.best(update.prefix)
                    if old is not None and removed.neighbor != old.neighbor:
                        return  # a route that was never selected vanished
                self._reselect(update.prefix)

    def _import_accepts(self, neighbor: int,
                        update: Announcement) -> bool:
        if not self.validate_irr:
            return True
        irr = self._network.irr
        if irr is None:
            return True
        rel = self._relationship(neighbor)
        if rel is not ASRelationship.PEER:
            return True
        return irr.is_valid(update.prefix, update.origin) is not False

    def _reselect(self, prefix: Prefix) -> None:
        if prefix in self._originated:
            return  # own origination always wins
        old = self.loc_rib.best(prefix)
        new = self._select_best(prefix)
        if old is new or old == new:
            return
        if new is None:
            self.loc_rib.uninstall(prefix)
            self._export_withdraw(prefix)
        else:
            self.loc_rib.install(new)
            self._export(new)

    def _select_best(self, prefix: Prefix) -> Route | None:
        best: Route | None = None
        for rib_in in self.adj_rib_in.values():
            route = rib_in.get(prefix)
            if route is not None and (
                    best is None or route.pref_key < best.pref_key):
                best = route
        return best

    # -- export -----------------------------------------------------------------

    def _export_targets(self, route: Route) -> list[int]:
        if route.neighbor == 0:
            return self.neighbors
        if self._relationship(route.neighbor) is ASRelationship.CUSTOMER:
            return [n for n in self.neighbors if n != route.neighbor]
        if self._customers is None:
            self._customers = [
                n for n in self.neighbors
                if self._relationship(n) is ASRelationship.CUSTOMER]
        return self._customers

    def _export(self, route: Route) -> None:
        if route.neighbor == 0:
            as_path: tuple[int, ...] = (self.asn,)
        else:
            as_path = (self.asn, *route.as_path)
        update = Announcement(prefix=route.prefix, as_path=as_path)
        cached = self._export_cache.get(route.neighbor)
        if cached is None:
            ordered = sorted(self._export_targets(route))
            cached = (set(ordered), ordered)
            self._export_cache[route.neighbor] = cached
        targets, ordered = cached
        previously = self._announced_to.get(route.prefix)
        # the cached target set is shared across prefixes and exports and
        # never mutated, so an identity hit means "same audience as last
        # time" without a set comparison
        if previously is not None and previously is not targets:
            withdraw = Withdrawal(prefix=route.prefix)
            for neighbor in sorted(previously - targets):
                self._network.deliver(self.asn, neighbor, withdraw)
        self._announced_to[route.prefix] = targets
        for neighbor in ordered:
            self._network.deliver(self.asn, neighbor, update)
        self._network.notify(self.asn, update)

    def _export_withdraw(self, prefix: Prefix) -> None:
        update = Withdrawal(prefix=prefix)
        previously = self._announced_to.pop(prefix, set(self.neighbors))
        for neighbor in sorted(previously):
            self._network.deliver(self.asn, neighbor, update)
        self._network.notify(self.asn, update)

    def has_route(self, addr: int) -> bool:
        """Data-plane reachability check for an address from this AS."""
        return self.loc_rib.resolve(addr) is not None


class BGPNetwork:
    """Owns all speakers and moves updates between them with delay."""

    def __init__(self, topology: ASTopology, simulator: Simulator,
                 rng: np.random.Generator,
                 min_link_delay: float = 1.0,
                 max_link_delay: float = 15.0,
                 irr: "IrrDatabase | None" = None) -> None:
        if min_link_delay <= 0 or max_link_delay < min_link_delay:
            raise RoutingError("invalid link delay range")
        self.topology = topology
        self.simulator = simulator
        self.irr = irr
        self._rng = rng
        self.speakers: dict[int, BGPSpeaker] = {}
        #: per directed link: (delay, event label) — the label is pure
        #: function of the link, not worth an f-string per message
        self._link_delay: dict[tuple[int, int], tuple[float, str]] = {}
        #: last scheduled arrival per directed link; BGP sessions run over
        #: TCP, so updates must never overtake each other on a link.
        self._last_arrival: dict[tuple[int, int], float] = {}
        #: block-buffered jitter draws — ``uniform(size=n)`` consumes the
        #: underlying bit stream exactly like ``n`` scalar draws, so the
        #: jitter sequence is unchanged while the per-message numpy call
        #: overhead is amortized over the block.
        self._jitter_buf = None
        self._jitter_next = 0
        self._listeners: list[UpdateListener] = []
        for asn in topology.ases():
            self.speakers[asn] = BGPSpeaker(asn, self)
        for a, b in topology.links():
            self.speakers[a].add_neighbor(b)
            self.speakers[b].add_neighbor(a)
            delay = float(rng.uniform(min_link_delay, max_link_delay))
            self._link_delay[(a, b)] = (delay, f"bgp:{a}->{b}")
            self._link_delay[(b, a)] = (delay, f"bgp:{b}->{a}")

    def speaker(self, asn: int) -> BGPSpeaker:
        try:
            return self.speakers[asn]
        except KeyError:
            raise RoutingError(f"no speaker for AS{asn}") from None

    def add_listener(self, listener: UpdateListener) -> None:
        """Register a callback for every exported update (collector tap)."""
        self._listeners.append(listener)

    def notify(self, asn: int, update: Announcement | Withdrawal) -> None:
        now = self.simulator.now
        for listener in self._listeners:
            listener(now, asn, update)

    def deliver(self, sender: int, receiver: int,
                update: Announcement | Withdrawal) -> None:
        """Schedule delivery of ``update`` over the (sender, receiver) link."""
        link = (sender, receiver)
        entry = self._link_delay.get(link)
        if entry is None:
            raise RoutingError(f"no link AS{sender}-AS{receiver}")
        delay, label = entry
        buf, i = self._jitter_buf, self._jitter_next
        if buf is None or i >= len(buf):
            buf = self._jitter_buf = self._rng.uniform(0.0, 1.0, size=512)
            i = 0
        self._jitter_next = i + 1
        arrival = self.simulator.now + delay + float(buf[i])
        previous = self._last_arrival.get(link)
        if previous is not None and arrival <= previous:
            arrival = previous + 1e-6  # FIFO: never overtake on a link
        self._last_arrival[link] = arrival
        # straight to the queue: arrival >= now by construction (positive
        # link delay), so schedule_at's not-in-the-past check is redundant
        # on the fabric's hottest call site
        self.simulator.queue.schedule(
            arrival,
            partial(self._arrive, receiver, sender, update),
            label=label,
        )

    def _arrive(self, receiver: int, sender: int,
                update: Announcement | Withdrawal) -> None:
        """Deliver a propagated update (picklable event callback)."""
        self.speakers[receiver].receive(sender, update)

    def visibility(self, prefix: Prefix) -> float:
        """Fraction of ASes whose Loc-RIB holds an exact route to ``prefix``."""
        if not self.speakers:
            return 0.0
        seen = sum(1 for s in self.speakers.values()
                   if s.loc_rib.best(prefix) is not None
                   or prefix in s.originated)
        return seen / len(self.speakers)
