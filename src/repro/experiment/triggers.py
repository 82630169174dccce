"""Trigger experiments (§8 outlook, item i).

"Future measurements and analyses shall quantify the effect of further
triggers that attract traffic to IPv6 network telescopes."

This module provides a controlled A/B harness for exactly that: a
*trigger* exposes some telescope addresses through a channel (DNS
publication, a fresh BGP announcement) at a chosen time, a reactive
scanner cohort consumes the exposure, and the experiment compares the
attention received by exposed addresses against unexposed *control*
addresses in the same address space — the Zhao-et-al.-style methodology
generalized to arbitrary triggers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol as TypingProtocol

import numpy as np

from repro.core.columnar import distinct_rows
from repro.errors import ExperimentError
from repro.net.prefix import Prefix
from repro.scanners.base import (Scanner, ScannerContext, TemporalBehavior,
                                 TemporalKind)
from repro.scanners.netselect import FixedPrefixPolicy
from repro.scanners.registry import ASRegistry, NetworkType
from repro.scanners.strategies import (FixedTargetsStrategy,
                                       ProtocolProfile)
from repro.sim.clock import DAY, WEEK
from repro.sim.events import Simulator
from repro.sim.rng import RngStreams
from repro.telescope.capture import PacketCapture
from repro.telescope.telescope import Telescope, TelescopeKind, prefix_router

_MASK64 = (1 << 64) - 1


class Trigger(TypingProtocol):
    """Exposes a set of addresses through some channel at a given time."""

    name: str
    expose_at: float

    def exposed_addresses(self, prefix: Prefix,
                          rng: np.random.Generator) -> list[int]:
        ...  # pragma: no cover

    def cohort_size(self, base: int) -> int:
        ...  # pragma: no cover


@dataclass
class DnsExposureTrigger:
    """Publishes AAAA records for telescope addresses (Zhao et al.).

    Attributes:
        num_addresses: how many addresses receive a DNS name.
        attraction: relative pull of the channel (scales the cohort).
    """

    expose_at: float = 2 * WEEK
    num_addresses: int = 8
    attraction: float = 1.0
    name: str = "dns-exposure"

    def exposed_addresses(self, prefix: Prefix,
                          rng: np.random.Generator) -> list[int]:
        subnets = rng.choice(256, size=self.num_addresses, replace=False)
        return [prefix.subnet(64, int(s) << 8).network | 0x50
                for s in subnets]

    def cohort_size(self, base: int) -> int:
        return max(1, round(base * self.attraction))


@dataclass
class BgpAnnouncementTrigger:
    """Announces the telescope prefix freshly in BGP at ``expose_at``.

    Exposure is network-wide (every address in the prefix becomes
    reachable/visible), so the exposed set is a sample of low-byte
    addresses that BGP-reactive scanners would probe.
    """

    expose_at: float = 2 * WEEK
    num_addresses: int = 8
    attraction: float = 1.4
    name: str = "bgp-announcement"

    def exposed_addresses(self, prefix: Prefix,
                          rng: np.random.Generator) -> list[int]:
        subnets = rng.choice(256, size=self.num_addresses, replace=False)
        return [prefix.subnet(64, int(s) << 8).low_byte_address
                for s in subnets]

    def cohort_size(self, base: int) -> int:
        return max(1, round(base * self.attraction))


@dataclass(frozen=True, slots=True)
class TriggerResult:
    """Outcome of one trigger experiment."""

    trigger_name: str
    expose_at: float
    exposed_packets_before: int
    exposed_packets_after: int
    control_packets_before: int
    control_packets_after: int
    reacting_sources: int

    @property
    def attraction_factor(self) -> float:
        """Post-exposure attention on exposed vs control addresses.

        Uses the after-window only; background noise hits exposed and
        control addresses alike, reactions only the exposed ones.
        """
        control = max(self.control_packets_after, 1)
        return self.exposed_packets_after / control

    @property
    def effective(self) -> bool:
        """True when the trigger measurably attracted scanners."""
        return self.exposed_packets_after \
            > 3 * max(self.control_packets_after, 1) \
            and self.reacting_sources > 0

    def render(self) -> str:
        return (f"trigger {self.trigger_name!r} @ day "
                f"{self.expose_at / DAY:.0f}: exposed "
                f"{self.exposed_packets_before}->"
                f"{self.exposed_packets_after} pkts, control "
                f"{self.control_packets_before}->"
                f"{self.control_packets_after}, "
                f"{self.reacting_sources} reacting sources, "
                f"attraction {self.attraction_factor:.1f}x")


@dataclass
class TriggerExperiment:
    """A/B harness around one telescope prefix and one trigger."""

    trigger: Trigger
    prefix: Prefix = Prefix.parse("3fff:aaaa::/48")
    duration: float = 6 * WEEK
    base_cohort: int = 24
    background_scanners: int = 6
    seed: int = 7
    _registry: ASRegistry = field(default_factory=ASRegistry)

    def run(self) -> TriggerResult:
        """Run the experiment and compare exposed vs control attention."""
        if self.trigger.expose_at >= self.duration:
            raise ExperimentError("exposure must happen inside the run")
        streams = RngStreams(self.seed)
        rng = streams.get("trigger.assign")
        simulator = Simulator()
        telescope = Telescope(name="TX", kind=TelescopeKind.PASSIVE,
                              prefixes=[self.prefix],
                              capture=PacketCapture(name="TX"))
        ctx = ScannerContext(simulator=simulator,
                             route=prefix_router([telescope]),
                             window_start=0.0, window_end=self.duration)

        exposed = self.trigger.exposed_addresses(self.prefix, rng)
        control = [addr ^ (1 << 16) for addr in exposed]
        # interleave so short background sessions hit both groups equally
        background_pool = tuple(
            addr for pair in zip(exposed, control) for addr in pair)

        # background scanners probe the whole prefix throughout
        for index in range(self.background_scanners):
            record = self._registry.allocate(NetworkType.HOSTING)
            scanner = Scanner(
                scanner_id=index, name=f"background-{index}",
                as_record=record,
                temporal=TemporalBehavior(
                    kind=TemporalKind.PERIODIC,
                    period=float(rng.uniform(2 * DAY, 5 * DAY))),
                network_policy=FixedPrefixPolicy((self.prefix,)),
                addr_strategy=FixedTargetsStrategy(background_pool),
                protocol_profile=ProtocolProfile(icmpv6=1.0),
                rng=streams.fresh(f"trigger.bg.{index}"),
                packets_per_session=lambda r: int(r.integers(4, 10)))
            scanner.start(ctx)

        # the reacting cohort arrives only after the exposure and probes
        # exclusively the exposed addresses
        cohort = self.trigger.cohort_size(self.base_cohort)
        reacting_ids = set()
        for index in range(cohort):
            record = self._registry.allocate(NetworkType.ISP)
            scanner_id = 1000 + index
            reacting_ids.add(record.asn)
            scanner = Scanner(
                scanner_id=scanner_id, name=f"reactor-{index}",
                as_record=record,
                temporal=TemporalBehavior(
                    kind=TemporalKind.INTERMITTENT,
                    mean_gap=float(rng.uniform(5 * DAY, 10 * DAY))),
                network_policy=FixedPrefixPolicy((self.prefix,)),
                addr_strategy=FixedTargetsStrategy(tuple(exposed)),
                protocol_profile=ProtocolProfile(icmpv6=0.6, tcp=0.4),
                rng=streams.fresh(f"trigger.react.{index}"),
                packets_per_session=lambda r: int(r.integers(6, 14)),
                active_start=self.trigger.expose_at,
                active_end=self.duration)
            scanner.start(ctx)

        simulator.run_until(self.duration)

        table = telescope.capture.table()
        after = table.time >= self.trigger.expose_at
        to_exposed = _address_mask(table, exposed)
        to_control = _address_mask(table, control) & ~to_exposed
        reacting = to_exposed & after \
            & np.isin(table.src_asn, list(reacting_ids))
        return TriggerResult(
            trigger_name=self.trigger.name,
            expose_at=self.trigger.expose_at,
            exposed_packets_before=_count(to_exposed & ~after),
            exposed_packets_after=_count(to_exposed & after),
            control_packets_before=_count(to_control & ~after),
            control_packets_after=_count(to_control & after),
            reacting_sources=len(distinct_rows(table.src_hi[reacting],
                                               table.src_lo[reacting])[0]))


def _count(mask: np.ndarray) -> int:
    return int(np.count_nonzero(mask))

def _address_mask(table, addresses: list[int]) -> np.ndarray:
    """Mask of the rows sent to any of the 128-bit ``addresses``."""
    mask = np.zeros(len(table), dtype=bool)
    for addr in set(addresses):
        mask |= (table.dst_hi == np.uint64(addr >> 64)) \
            & (table.dst_lo == np.uint64(addr & _MASK64))
    return mask


def compare_triggers(triggers: list[Trigger], seed: int = 7,
                     **kwargs) -> list[TriggerResult]:
    """Run several triggers under identical conditions and rank them."""
    results = [TriggerExperiment(trigger=t, seed=seed, **kwargs).run()
               for t in triggers]
    results.sort(key=lambda r: -r.attraction_factor)
    return results
