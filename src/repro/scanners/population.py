"""Calibrated scanner population.

Assembles the complete ecosystem the four telescopes observe, sized by a
single ``scale`` knob. Component counts and behavior mixes target the
paper's reported marginals (see DESIGN.md §5); tests and benchmarks verify
the resulting *shapes* rather than absolute counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.bgp.controller import AnnouncementCycle
from repro.errors import ExperimentError
from repro.net.addr import random_bits
from repro.net.prefix import Prefix
from repro.scanners.atlas import build_atlas_fleet
from repro.scanners.base import (Scanner, SourceModel, TemporalBehavior,
                                 TemporalKind, UniformDelay, UniformPackets)
from repro.scanners.heavyhitter import build_heavy_hitters
from repro.scanners.netselect import (AllAnnouncedPolicy, AlternatingPolicy,
                                      AnnouncedProvider, CombinedPolicy,
                                      FixedPrefixPolicy,
                                      SingleAnnouncedPolicy,
                                      SizeDependentPolicy, SwitchingPolicy)
from repro.scanners.registry import ASRegistry, NetworkType
from repro.scanners.strategies import (FixedTargetsStrategy, LowByteStrategy,
                                       MixStrategy, ProtocolProfile,
                                       RandomStrategy,
                                       StructuredSweepStrategy,
                                       TypeMixStrategy)
from repro.scanners.tools import (ALPHA_STRIKE, CAIDA_ARK, HTRACE6, SIX_SCAN,
                                  SIX_SEEKS, TRACEROUTE, YARRP6,
                                  ToolSignature)
from repro.sim.clock import DAY, HOUR, WEEK
from repro.sim.rng import RngStreams


def uniform_packets(low: int, high: int) \
        -> Callable[[np.random.Generator], int]:
    """Session-size sampler: uniform integer in [low, high] (picklable)."""
    if low < 1 or high < low:
        raise ExperimentError(f"invalid session size range [{low}, {high}]")
    return UniformPackets(low, high)


@dataclass
class PopulationConfig:
    """Component counts at ``scale=1.0`` plus behavior knobs."""

    scale: float = 1.0
    #: one-off fleets per announcement cycle (T1)
    atlas_per_prefix: int = 18
    atlas_baseline: int = 50
    alpha_strike_per_prefix: int = 6
    misc_oneoff_per_cycle: int = 10
    #: recurring scanner pools (T1-centric)
    periodic_research: int = 300
    intermittent_pool: int = 340
    inconsistent: int = 16
    size_dependent: int = 6
    live_monitors: int = 18
    #: other telescopes
    t2_dns_scanners: int = 1300
    t2_general_scanners: int = 400
    t4_feedback_scanners: int = 36
    t4_campaign_sources: int = 50
    t3_stray_sources: int = 3
    tga_scanners: int = 4
    global_sweepers: int = 9
    #: heavy-hitter burst size (the packet-volume lever)
    heavy_hitter_burst: int = 110_000

    def scaled(self, value: int, minimum: int = 1) -> int:
        return max(minimum, round(value * self.scale))


@dataclass
class PopulationInputs:
    """Everything the builder needs to know about the deployment."""

    schedule: list[AnnouncementCycle]
    announced: AnnouncedProvider
    t1_prefix: Prefix
    t2_prefix: Prefix
    t3_prefix: Prefix
    t4_prefix: Prefix
    attractor_addr: int
    duration: float
    #: the /29 covering T3/T4 (search space for dynamic TGA scanners);
    #: derived from the T4 prefix when omitted.
    covering_prefix: Prefix | None = None

    def covering(self) -> Prefix:
        if self.covering_prefix is not None:
            return self.covering_prefix
        return Prefix(self.t4_prefix.network, 29)

    @property
    def split_start(self) -> float:
        if len(self.schedule) < 2:
            return self.schedule[0].withdraw_time
        return self.schedule[1].announce_time


@dataclass
class _Builder:
    config: PopulationConfig
    inputs: PopulationInputs
    registry: ASRegistry
    streams: RngStreams
    scanners: list[Scanner] = field(default_factory=list)
    _next_id: int = 0

    @property
    def rng(self) -> np.random.Generator:
        return self.streams.get("population.assign")

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def add(self, scanner: Scanner) -> Scanner:
        scanner.validate()
        self.scanners.append(scanner)
        return scanner

    # -- component factories -----------------------------------------------

    def alpha_strike(self) -> None:
        """Commercial single-prefix research scanning (§7.2).

        One hosting AS, fresh one-off sources per announced prefix and
        cycle, small TCP-heavy structured scans.
        """
        company = self.registry.allocate(NetworkType.HOSTING,
                                         name="alpha-strike-labs")
        per_prefix = self.config.scaled(self.config.alpha_strike_per_prefix)
        index = 0
        for cycle in self.inputs.schedule:
            if cycle.index == 0:
                continue
            for prefix in cycle.prefixes:
                for _ in range(per_prefix):
                    index += 1
                    self.add(Scanner(
                        scanner_id=self.new_id(),
                        name=f"alphastrike-{index}",
                        as_record=company,
                        temporal=TemporalBehavior(
                            kind=TemporalKind.ONE_OFF,
                            first_at=min(
                                float(self.rng.exponential(3 * DAY)),
                                cycle.withdraw_time
                                - cycle.announce_time - 1.0)),
                        network_policy=FixedPrefixPolicy((prefix,)),
                        addr_strategy=LowByteStrategy(
                            hosts=(1, 2, 0x80, 0x443), anycast_share=0.1),
                        protocol_profile=ProtocolProfile(icmpv6=0.2, tcp=0.8),
                        rng=self.streams.fresh(f"scanner.alpha.{index}"),
                        packets_per_session=uniform_packets(3, 10),
                        tool=ALPHA_STRIKE, payload_probability=0.7,
                        rdns_name=ALPHA_STRIKE.rdns_for(index),
                        truth_network_class="single-prefix",
                        source_subnet_index=index,
                        active_start=cycle.announce_time,
                        active_end=cycle.withdraw_time))

    def misc_oneoffs(self) -> None:
        """Unattributed one-off visitors (no payload, no RDNS).

        Their number grows with the announced prefix count, mirroring the
        per-announcement attention growth of §7.1.
        """
        per_cycle = self.config.scaled(self.config.misc_oneoff_per_cycle)
        index = 0
        for cycle in self.inputs.schedule:
            batch = max(per_cycle, per_cycle * len(cycle.prefixes) // 3)
            for _ in range(batch):
                index += 1
                record = self.registry.allocate(
                    NetworkType.HOSTING if self.rng.random() < 0.75
                    else NetworkType.BUSINESS)
                strategy = LowByteStrategy() if self.rng.random() < 0.7 \
                    else TypeMixStrategy()
                self.add(Scanner(
                    scanner_id=self.new_id(),
                    name=f"oneoff-{index}",
                    as_record=record,
                    temporal=TemporalBehavior(
                        kind=TemporalKind.ONE_OFF,
                        first_at=float(self.rng.uniform(
                            0.0, cycle.withdraw_time
                            - cycle.announce_time - 1.0))),
                    network_policy=SingleAnnouncedPolicy(
                        self.inputs.announced),
                    addr_strategy=strategy,
                    protocol_profile=ProtocolProfile(icmpv6=0.5, tcp=0.4,
                                                     udp=0.1),
                    rng=self.streams.fresh(f"scanner.misc.{index}"),
                    packets_per_session=uniform_packets(5, 40),
                    truth_network_class="single-prefix",
                    active_start=cycle.announce_time,
                    active_end=cycle.withdraw_time))

    def research_periodic(self) -> None:
        """The recurring research-scanner pool (Yarrp6, traceroute, ...).

        Tool counts follow Table 7 proportions; the unnamed remainder sends
        random-byte payloads or none at all.
        """
        count = self.config.scaled(self.config.periodic_research)
        tool_quota: list[tuple[ToolSignature | None, int]] = [
            (YARRP6, self.config.scaled(22)),
            (TRACEROUTE, self.config.scaled(19)),
            (HTRACE6, self.config.scaled(9)),
            (SIX_SEEKS, self.config.scaled(5)),
            (SIX_SCAN, self.config.scaled(3)),
            (CAIDA_ARK, self.config.scaled(2)),
        ]
        tools: list[ToolSignature | None] = []
        for tool, quota in tool_quota:
            tools.extend([tool] * quota)
        tools.extend([None] * max(0, count - len(tools)))
        # the pool is never truncated below the per-tool quotas
        for index, tool in enumerate(tools):
            record = self.registry.allocate(
                NetworkType.EDUCATION if self.rng.random() < 0.10
                else NetworkType.HOSTING)
            if self.rng.random() < 0.5:
                policy, truth = (AllAnnouncedPolicy(self.inputs.announced),
                                 "size-independent")
            else:
                policy, truth = (SingleAnnouncedPolicy(self.inputs.announced),
                                 "single-prefix")
            # about half of the recurring research scanners also probe the
            # long-announced T2 /48 in the same campaigns, producing the
            # T1/T2 source and ASN overlap of Fig. 8 and Fig. 16(b)
            if self.rng.random() < 0.45:
                policy = CombinedPolicy((
                    policy,
                    FixedPrefixPolicy((self.inputs.t2_prefix,),
                                      weights=(0.8,))))
            if tool in (YARRP6, CAIDA_ARK, TRACEROUTE):
                profile = ProtocolProfile(icmpv6=0.25, udp=0.75)
                strategy: object = RandomStrategy(
                    structured_subnets=self.rng.random() < 0.5)
                addr_truth = "random"
            else:
                profile = ProtocolProfile(icmpv6=0.8, tcp=0.15, udp=0.05)
                if self.rng.random() < 0.6:
                    strategy = MixStrategy(parts=(
                        (0.7, LowByteStrategy(anycast_share=0.08)),
                        (0.3, StructuredSweepStrategy())))
                    addr_truth = "structured"
                else:
                    strategy = RandomStrategy()
                    addr_truth = "random"
            # periods range from hours to months (§5.1); long-period
            # scanners do not show up in every announcement cycle, which
            # keeps the per-cycle source count dominated by the growing
            # one-off fleets
            if self.rng.random() < 0.5:
                period = float(self.rng.uniform(2 * DAY, 10 * DAY))
            else:
                period = float(self.rng.uniform(2 * WEEK, 8 * WEEK))
            if tool is CAIDA_ARK:
                period = float(self.rng.uniform(6 * HOUR, 12 * HOUR))
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"research-{index}",
                as_record=record,
                temporal=TemporalBehavior(kind=TemporalKind.PERIODIC,
                                          period=period,
                                          jitter=period * 0.04),
                network_policy=policy,
                addr_strategy=strategy,
                protocol_profile=profile,
                rng=self.streams.fresh(f"scanner.research.{index}"),
                packets_per_session=uniform_packets(4, 16),
                tool=tool,
                payload_probability=0.85 if tool else 0.1,
                rdns_name=tool.rdns_for(index) if tool else "",
                truth_network_class=truth,
                truth_address_class=addr_truth,
                spread_prefix_sessions=truth == "size-independent"))

    def intermittent(self) -> None:
        """Recurring scanners without a stable period."""
        count = self.config.scaled(self.config.intermittent_pool)
        for index in range(count):
            record = self.registry.allocate(
                NetworkType.HOSTING if self.rng.random() < 0.55
                else NetworkType.ISP)
            if self.rng.random() < 0.35:
                policy, truth = (AllAnnouncedPolicy(self.inputs.announced),
                                 "size-independent")
            else:
                policy, truth = (SingleAnnouncedPolicy(self.inputs.announced),
                                 "single-prefix")
            strategy = LowByteStrategy() if self.rng.random() < 0.65 \
                else TypeMixStrategy()
            if self.rng.random() < 0.35:
                policy = AlternatingPolicy(
                    policies=(policy,
                              FixedPrefixPolicy((self.inputs.t2_prefix,))),
                    weights=(0.6, 0.4))
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"intermittent-{index}",
                as_record=record,
                temporal=TemporalBehavior(
                    kind=TemporalKind.INTERMITTENT,
                    mean_gap=float(self.rng.uniform(2 * WEEK, 6 * WEEK))),
                network_policy=policy,
                addr_strategy=strategy,
                protocol_profile=ProtocolProfile(icmpv6=0.55, tcp=0.35,
                                                 udp=0.10),
                rng=self.streams.fresh(f"scanner.intermittent.{index}"),
                packets_per_session=uniform_packets(4, 20),
                truth_network_class=truth,
                source_subnet_index=index,
                spread_prefix_sessions=truth == "size-independent"))

    def inconsistent_scanners(self) -> None:
        """Few sources, huge session counts, behavior switching mid-way."""
        count = self.config.scaled(self.config.inconsistent)
        switch = self.inputs.split_start \
            + (self.inputs.duration - self.inputs.split_start) * 0.6
        for index in range(count):
            record = self.registry.allocate(NetworkType.HOSTING)
            policy = SwitchingPolicy(
                before=SizeDependentPolicy(self.inputs.announced),
                after=AllAnnouncedPolicy(self.inputs.announced),
                switch_time=switch)
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"inconsistent-{index}",
                as_record=record,
                temporal=TemporalBehavior(
                    kind=TemporalKind.PERIODIC,
                    period=float(self.rng.uniform(8 * HOUR, 20 * HOUR)),
                    jitter=1800.0),
                network_policy=policy,
                addr_strategy=LowByteStrategy(hosts=(1,)),
                protocol_profile=ProtocolProfile(icmpv6=0.65, tcp=0.35),
                rng=self.streams.fresh(f"scanner.inconsistent.{index}"),
                packets_per_session=uniform_packets(3, 8),
                truth_network_class="inconsistent",
                spread_prefix_sessions=True))

    def size_dependent_scanners(self) -> None:
        """Rare scanners probing proportionally to prefix size (§7.1)."""
        count = self.config.scaled(self.config.size_dependent)
        for index in range(count):
            record = self.registry.allocate(NetworkType.EDUCATION)
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"sizedep-{index}",
                as_record=record,
                temporal=TemporalBehavior(
                    kind=TemporalKind.PERIODIC,
                    period=float(self.rng.uniform(1 * DAY, 3 * DAY)),
                    jitter=3600.0),
                network_policy=SizeDependentPolicy(self.inputs.announced),
                addr_strategy=StructuredSweepStrategy(),
                protocol_profile=ProtocolProfile(icmpv6=1.0),
                rng=self.streams.fresh(f"scanner.sizedep.{index}"),
                packets_per_session=uniform_packets(16, 48),
                truth_network_class="size-dependent"))

    def live_bgp_monitors(self) -> None:
        """The 18 sources reacting within 30 minutes of announcements."""
        count = self.config.scaled(self.config.live_monitors, minimum=2)
        for index in range(count):
            record = self.registry.allocate(NetworkType.HOSTING)
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"bgpmon-{index}",
                as_record=record,
                temporal=TemporalBehavior(kind=TemporalKind.REACTIVE),
                network_policy=SingleAnnouncedPolicy(self.inputs.announced),
                addr_strategy=LowByteStrategy(hosts=(1, 2), anycast_share=0.15),
                protocol_profile=ProtocolProfile(icmpv6=0.7, tcp=0.3),
                rng=self.streams.fresh(f"scanner.bgpmon.{index}"),
                packets_per_session=uniform_packets(4, 12),
                reaction_delay=UniformDelay(120.0, 1700.0),
                truth_network_class="single-prefix"))

    def t2_dns_attractor(self) -> None:
        """Scanners drawn by the Umbrella-listed name; 50% of T2 scanners.

        Most rotate source addresses inside their /64 (3x as many /128 as
        /64 sources in T2, §6) and probe TCP 80/443 on the one address.
        """
        count = self.config.scaled(self.config.t2_dns_scanners)
        target = FixedTargetsStrategy((self.inputs.attractor_addr,))
        for index in range(count):
            record = self.registry.allocate(
                NetworkType.HOSTING if self.rng.random() < 0.5
                else NetworkType.ISP)
            draw = self.rng.random()
            if draw < 0.35:
                temporal = TemporalBehavior(kind=TemporalKind.ONE_OFF)
            elif draw < 0.75:
                temporal = TemporalBehavior(
                    kind=TemporalKind.INTERMITTENT,
                    mean_gap=float(self.rng.uniform(1 * WEEK, 4 * WEEK)))
            else:
                temporal = TemporalBehavior(
                    kind=TemporalKind.PERIODIC,
                    period=float(self.rng.uniform(2 * DAY, 7 * DAY)),
                    jitter=HOUR)
            rotation_draw = self.rng.random()
            if rotation_draw < 0.30:
                source_model = SourceModel.FIXED
                packets = uniform_packets(2, 6)
            elif rotation_draw < 0.55:
                source_model = SourceModel.PER_SESSION
                packets = uniform_packets(2, 6)
            else:
                # vertical scans rotating the source IID per destination
                # port: one /64 session shatters into several /128
                # sessions, driving the Fig. 4 session divergence
                source_model = SourceModel.PER_PORT
                packets = uniform_packets(5, 14)
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"t2dns-{index}",
                as_record=record,
                temporal=temporal,
                network_policy=FixedPrefixPolicy((self.inputs.t2_prefix,)),
                addr_strategy=target,
                protocol_profile=ProtocolProfile(icmpv6=0.35, tcp=0.57,
                                                 udp=0.08),
                rng=self.streams.fresh(f"scanner.t2dns.{index}"),
                packets_per_session=packets,
                source_model=source_model,
                source_subnet_index=index,
                truth_network_class="single-prefix"))

    def t2_general(self) -> None:
        """Scanners exploring T2's /48 beyond the DNS name."""
        count = self.config.scaled(self.config.t2_general_scanners)
        for index in range(count):
            record = self.registry.allocate(
                NetworkType.ISP if self.rng.random() < 0.45
                else NetworkType.HOSTING)
            if self.rng.random() < 0.5:
                temporal = TemporalBehavior(
                    kind=TemporalKind.INTERMITTENT,
                    mean_gap=float(self.rng.uniform(3 * WEEK, 9 * WEEK)))
            else:
                temporal = TemporalBehavior(kind=TemporalKind.ONE_OFF)
            strategy = MixStrategy(parts=(
                (0.6, LowByteStrategy(anycast_share=0.06)),
                (0.25, TypeMixStrategy()),
                (0.15, RandomStrategy())))
            policy: object = FixedPrefixPolicy((self.inputs.t2_prefix,))
            if self.rng.random() < 0.5:
                # occasionally drifts to a newly announced T1 prefix in a
                # separate session -> different-day T1/T2 source overlap
                # (the Fig. 16b decline); few, widely spaced sessions make
                # a same-day coincidence unlikely
                policy = AlternatingPolicy(
                    policies=(FixedPrefixPolicy((self.inputs.t2_prefix,)),
                              SingleAnnouncedPolicy(self.inputs.announced)),
                    weights=(0.55, 0.45))
                temporal = TemporalBehavior(
                    kind=TemporalKind.INTERMITTENT,
                    mean_gap=float(self.rng.uniform(8 * WEEK, 18 * WEEK)))
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"t2gen-{index}",
                as_record=record,
                temporal=temporal,
                network_policy=policy,
                addr_strategy=strategy,
                protocol_profile=ProtocolProfile(icmpv6=0.45, tcp=0.45,
                                                 udp=0.10),
                rng=self.streams.fresh(f"scanner.t2gen.{index}"),
                packets_per_session=uniform_packets(3, 25),
                source_subnet_index=index,
                truth_network_class="single-prefix"))

    def t4_feedback(self) -> None:
        """Scanners returning to the reactive /48 (plus one campaign peak)."""
        count = self.config.scaled(self.config.t4_feedback_scanners)
        for index in range(count):
            record = self.registry.allocate(NetworkType.HOSTING)
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"t4fb-{index}",
                as_record=record,
                temporal=TemporalBehavior(
                    kind=TemporalKind.INTERMITTENT,
                    mean_gap=float(self.rng.uniform(4 * WEEK, 12 * WEEK))),
                network_policy=FixedPrefixPolicy((self.inputs.t4_prefix,)),
                addr_strategy=LowByteStrategy(),
                protocol_profile=ProtocolProfile(icmpv6=0.97, tcp=0.03),
                rng=self.streams.fresh(f"scanner.t4fb.{index}"),
                packets_per_session=uniform_packets(2, 10),
                truth_network_class="single-prefix"))
        # the single October campaign peak (§6, Fig. 9)
        campaign = self.config.scaled(self.config.t4_campaign_sources)
        campaign_as = self.registry.allocate(NetworkType.HOSTING,
                                             name="t4-campaign-hoster")
        campaign_start = 9 * WEEK
        for index in range(campaign):
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"t4campaign-{index}",
                as_record=campaign_as,
                temporal=TemporalBehavior(kind=TemporalKind.ONE_OFF),
                network_policy=FixedPrefixPolicy((self.inputs.t4_prefix,)),
                addr_strategy=LowByteStrategy(hosts=(1, 2, 3)),
                protocol_profile=ProtocolProfile(icmpv6=1.0),
                rng=self.streams.fresh(f"scanner.t4campaign.{index}"),
                packets_per_session=uniform_packets(5, 15),
                source_subnet_index=index,
                active_start=campaign_start,
                active_end=campaign_start + 3 * DAY,
                truth_network_class="single-prefix"))

    def dynamic_tga(self) -> None:
        """Feedback-driven TGA scanners (6Tree-style, §2).

        Seeded with an address inside the reactive T4 (collected by a
        prior wide campaign — T4 answers every probe), they converge on
        T4 and explain why a reactive subnet attracts orders of
        magnitude more traffic than a silent one (§6).
        """
        from repro.scanners.tga import DynamicTGAScanner
        count = self.config.scaled(self.config.tga_scanners)
        covering = self.inputs.covering()
        tga_rng = self.streams.get("population.tga")
        for index in range(count):
            record = self.registry.allocate(
                NetworkType.EDUCATION if self.rng.random() < 0.5
                else NetworkType.HOSTING)
            seed = self.inputs.t4_prefix.network \
                | random_bits(tga_rng, 64)
            tool = SIX_SCAN if index % 2 == 0 else SIX_SEEKS
            self.add(DynamicTGAScanner(
                scanner_id=self.new_id(),
                name=f"tga-{index}",
                as_record=record,
                rng=self.streams.fresh(f"scanner.tga.{index}"),
                space=covering,
                period=float(self.rng.uniform(2 * DAY, 5 * DAY)),
                seeds=(seed,),
                probes_per_round=24,
                probes_per_node=4,
                tool=tool,
                payload_probability=0.6,
                truth_network_class="size-dependent"))

    def t3_strays(self) -> None:
        """The handful of sources that find the silent /48 at all."""
        count = self.config.scaled(self.config.t3_stray_sources)
        for index in range(count):
            record = self.registry.allocate(NetworkType.HOSTING)
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"t3stray-{index}",
                as_record=record,
                temporal=TemporalBehavior(kind=TemporalKind.ONE_OFF),
                network_policy=FixedPrefixPolicy((self.inputs.t3_prefix,)),
                addr_strategy=LowByteStrategy(),
                protocol_profile=ProtocolProfile(icmpv6=1.0),
                rng=self.streams.fresh(f"scanner.t3stray.{index}"),
                packets_per_session=uniform_packets(2, 8),
                truth_network_class="single-prefix"))

    def global_sweepers(self) -> None:
        """Sources observed at every telescope (§7.2, Fig. 16a).

        Each probes all four telescopes with T1/T2 absorbing ~98% of the
        packets. One special source scans all four with a Yarrp6 signature
        in early autumn and returns to T2 in November from the *same
        address* with a different signature.
        """
        count = self.config.scaled(self.config.global_sweepers, minimum=2)
        all_policy = CombinedPolicy((
            AllAnnouncedPolicy(self.inputs.announced),
            FixedPrefixPolicy((self.inputs.t2_prefix,), weights=(14.0,)),
            FixedPrefixPolicy((self.inputs.t3_prefix,), weights=(0.2,)),
            FixedPrefixPolicy((self.inputs.t4_prefix,), weights=(0.3,)),
        ))
        for index in range(count):
            hosted = self.rng.random() < 0.6
            record = self.registry.allocate(
                NetworkType.HOSTING if hosted else NetworkType.EDUCATION)
            self.add(Scanner(
                scanner_id=self.new_id(),
                name=f"sweeper-{index}",
                as_record=record,
                temporal=TemporalBehavior(
                    kind=TemporalKind.INTERMITTENT,
                    mean_gap=float(self.rng.uniform(3 * WEEK, 10 * WEEK))),
                network_policy=all_policy,
                addr_strategy=MixStrategy(parts=(
                    (0.6, LowByteStrategy()),
                    (0.4, RandomStrategy(structured_subnets=True)))),
                protocol_profile=ProtocolProfile(icmpv6=0.6, tcp=0.25,
                                                 udp=0.15),
                rng=self.streams.fresh(f"scanner.sweeper.{index}"),
                packets_per_session=uniform_packets(30, 120),
                truth_network_class="size-independent"))
        # the special shared-address pair
        shared_as = self.registry.allocate(NetworkType.HOSTING)
        shared_iid = 0x1DEA2B42C0FFEE01
        self.add(Scanner(
            scanner_id=self.new_id(),
            name="sweeper-yarrp-autumn",
            as_record=shared_as,
            temporal=TemporalBehavior(kind=TemporalKind.ONE_OFF),
            network_policy=all_policy,
            addr_strategy=RandomStrategy(structured_subnets=True),
            protocol_profile=ProtocolProfile(icmpv6=0.3, udp=0.7),
            rng=self.streams.fresh("scanner.sweeper.special.a"),
            packets_per_session=uniform_packets(120, 260),
            tool=YARRP6, payload_probability=0.9,
            fixed_iid=shared_iid,
            active_start=8 * WEEK, active_end=10 * WEEK,
            truth_network_class="size-independent"))
        self.add(Scanner(
            scanner_id=self.new_id(),
            name="sweeper-yarrp-november",
            as_record=shared_as,
            temporal=TemporalBehavior(kind=TemporalKind.ONE_OFF),
            network_policy=FixedPrefixPolicy((self.inputs.t2_prefix,)),
            addr_strategy=LowByteStrategy(),
            protocol_profile=ProtocolProfile(icmpv6=1.0),
            rng=self.streams.fresh("scanner.sweeper.special.b"),
            packets_per_session=uniform_packets(40, 90),
            fixed_iid=shared_iid,
            active_start=14 * WEEK, active_end=15 * WEEK,
            truth_network_class="single-prefix"))


def build_population(config: PopulationConfig, inputs: PopulationInputs,
                     registry: ASRegistry,
                     streams: RngStreams) -> list[Scanner]:
    """Create the complete calibrated scanner population."""
    if config.scale <= 0:
        raise ExperimentError(f"population scale must be > 0: {config.scale}")
    builder = _Builder(config=config, inputs=inputs, registry=registry,
                       streams=streams)
    atlas = build_atlas_fleet(
        schedule=inputs.schedule, registry=registry, streams=streams,
        sources_per_new_prefix=config.scaled(config.atlas_per_prefix),
        baseline_sources=config.scaled(config.atlas_baseline),
        first_scanner_id=1_000_000)
    builder.scanners.extend(atlas)
    builder.alpha_strike()
    builder.misc_oneoffs()
    builder.research_periodic()
    builder.intermittent()
    builder.inconsistent_scanners()
    builder.size_dependent_scanners()
    builder.live_bgp_monitors()
    builder.t2_dns_attractor()
    builder.t2_general()
    builder.t4_feedback()
    builder.dynamic_tga()
    builder.t3_strays()
    builder.global_sweepers()
    heavy = build_heavy_hitters(
        announced=inputs.announced, t2_prefix=inputs.t2_prefix,
        t4_prefix=inputs.t4_prefix, registry=registry, streams=streams,
        split_start=inputs.split_start, duration=inputs.duration,
        burst_packets=config.scaled(config.heavy_hitter_burst, minimum=200),
        first_scanner_id=2_000_000)
    builder.scanners.extend(heavy)
    return builder.scanners
