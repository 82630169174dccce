"""RIS-like route collector.

Real BGP-reactive scanners watch public route-collector feeds (RIPE RIS,
RouteViews). Our collector taps the export stream of the simulated fabric
and keeps a timestamped journal that scanner agents subscribe to, with a
configurable publication delay modeling feed latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from repro.bgp.messages import Announcement, UpdateKind, Withdrawal
from repro.bgp.speaker import BGPNetwork
from repro.net.prefix import Prefix
from repro.sim.events import Simulator

#: Subscriber signature: (publication time, entry).
FeedSubscriber = Callable[[float, "CollectorEntry"], None]


@dataclass(frozen=True, slots=True)
class CollectorEntry:
    """One journal line of the collector feed."""

    time: float
    kind: UpdateKind
    prefix: Prefix
    origin: int | None
    seen_by: int


@dataclass
class RouteCollector:
    """Collects updates from peered ASes and republishes them to subscribers.

    Attributes:
        peers: ASNs whose exports the collector receives; empty = all ASes
            (a full-feed collector, the default and fastest signal).
        feed_delay: seconds between an export and its publication.
    """

    network: BGPNetwork
    simulator: Simulator
    peers: frozenset[int] = frozenset()
    feed_delay: float = 60.0
    journal: list[CollectorEntry] = field(default_factory=list)
    _subscribers: list[FeedSubscriber] = field(default_factory=list)
    _state: dict[Prefix, UpdateKind] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.network.add_listener(self._on_export)

    def subscribe(self, subscriber: FeedSubscriber) -> None:
        self._subscribers.append(subscriber)

    def _on_export(self, time: float, asn: int,
                   update: Announcement | Withdrawal) -> None:
        if self.peers and asn not in self.peers:
            return
        if self._state.get(update.prefix) is update.kind:
            return  # re-export of an already-journaled prefix state
        self._state[update.prefix] = update.kind
        origin = update.origin if isinstance(update, Announcement) else None
        entry = CollectorEntry(time=time, kind=update.kind,
                               prefix=update.prefix, origin=origin,
                               seen_by=asn)
        self.journal.append(entry)
        publish_at = time + self.feed_delay
        self.simulator.schedule_at(
            max(publish_at, self.simulator.now),
            partial(self._publish, publish_at, entry),
            label=f"collector:{update.kind.value}:{update.prefix}",
        )

    def _publish(self, time: float, entry: CollectorEntry) -> None:
        for subscriber in self._subscribers:
            subscriber(time, entry)

    # -- recorded-timeline replay ----------------------------------------------

    def arm_replay(self, feed: "Sequence[CollectorEntry]") -> None:
        """Schedule a recorded journal for replay instead of a live tap.

        ``feed`` is the journal of a collector that watched the real
        fabric (the coordinator's recording pass in a sharded build,
        DESIGN §8). Subscribers couple to the collector only through
        :meth:`_publish` callbacks, so replaying publications alone —
        one event per entry at ``entry.time + feed_delay``, armed in
        journal order so equal-time publications keep their recorded
        order — is indistinguishable from a live feed. The journal and
        prefix-state queries of a replaying collector are *not*
        maintained during the run; they are post-run surfaces and shard
        workers are discarded after spilling their segments.
        """
        for entry in feed:
            publish_at = entry.time + self.feed_delay
            self.simulator.schedule_at(
                max(publish_at, self.simulator.now),
                partial(self._publish, publish_at, entry),
                label="collector:replay",
            )

    # -- query interface -------------------------------------------------------

    def announcements(self) -> list[CollectorEntry]:
        return [e for e in self.journal if e.kind is UpdateKind.ANNOUNCE]

    def first_seen(self, prefix: Prefix) -> float | None:
        """Time the collector first journaled an announcement of ``prefix``."""
        for entry in self.journal:
            if entry.kind is UpdateKind.ANNOUNCE and entry.prefix == prefix:
                return entry.time
        return None
