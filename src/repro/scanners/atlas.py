"""The RIPE-Atlas-like distributed probe fleet.

§7.2: RIPE Atlas probes are 55% of all T1 scan sources, almost exclusively
one-off, always targeting the ``::1`` address of each (new) prefix — a
distributed measurement platform where each probe source does very little
work. We model the fleet as per-announcement batches of one-off sources in
ISP (and some hosting) ASes, firing within days of each announcement.
"""

from __future__ import annotations

from repro.bgp.controller import AnnouncementCycle
from repro.net.prefix import Prefix
from repro.scanners.base import (Scanner, SourceModel, TemporalBehavior,
                                 TemporalKind, UniformPackets)
from repro.scanners.netselect import FixedPrefixPolicy
from repro.scanners.registry import ASRegistry, NetworkType
from repro.scanners.strategies import FixedTargetsStrategy, ProtocolProfile
from repro.scanners.tools import RIPE_ATLAS
from repro.sim.clock import DAY
from repro.sim.rng import RngStreams


def build_atlas_fleet(schedule: list[AnnouncementCycle],
                      registry: ASRegistry,
                      streams: RngStreams,
                      sources_per_new_prefix: int,
                      baseline_sources: int,
                      extra_targets: tuple[Prefix, ...] = (),
                      first_scanner_id: int = 0,
                      arrival_mean_days: float = 4.0) -> list[Scanner]:
    """Create the whole fleet for a given announcement schedule.

    For every cycle and every newly announced prefix, a fresh batch of
    one-off probe sources targets its ``::1`` with a handful of ICMPv6
    packets; arrival times decay exponentially after the announcement
    (the Fig. 3 pattern). ``baseline_sources`` additionally probe the
    initial prefix and any ``extra_targets`` during cycle 0.
    """
    rng = streams.get("atlas.assign")
    scanners: list[Scanner] = []
    scanner_id = first_scanner_id
    probe_index = 0
    as_pool: list = []

    def _one_probe(prefix: Prefix, window_start: float,
                   window_end: float) -> Scanner:
        nonlocal scanner_id, probe_index
        probe_index += 1
        # probes are spread over many ISP ASes, a few per AS on average
        if as_pool and rng.random() < 0.67:
            record = as_pool[int(rng.integers(0, len(as_pool)))]
        else:
            network_type = NetworkType.ISP if rng.random() < 0.75 \
                else NetworkType.HOSTING
            record = registry.allocate(
                network_type, rdns_domain=RIPE_ATLAS.rdns_for(probe_index))
            as_pool.append(record)
        span = max(window_end - window_start, DAY)
        offset = min(float(rng.exponential(arrival_mean_days * DAY)),
                     span - 1.0)
        scanner = Scanner(
            scanner_id=scanner_id,
            name=f"atlas-{probe_index}",
            as_record=record,
            temporal=TemporalBehavior(kind=TemporalKind.ONE_OFF,
                                      first_at=offset),
            network_policy=FixedPrefixPolicy((prefix,)),
            addr_strategy=FixedTargetsStrategy((prefix.low_byte_address,)),
            protocol_profile=ProtocolProfile(icmpv6=1.0),
            rng=streams.fresh(f"scanner.atlas.{probe_index}"),
            packets_per_session=UniformPackets(1, 3),
            tool=RIPE_ATLAS,
            payload_probability=0.95,
            rdns_name=RIPE_ATLAS.rdns_for(probe_index),
            truth_network_class="single-prefix",
            truth_address_class="structured",
            source_model=SourceModel.FIXED,
            source_subnet_index=probe_index,
            active_start=window_start,
            active_end=window_end,
        )
        scanner_id += 1
        return scanner

    for cycle in schedule:
        if cycle.index == 0:
            for target in (cycle.prefixes[0], *extra_targets):
                for _ in range(baseline_sources):
                    scanners.append(_one_probe(target, cycle.announce_time,
                                               cycle.withdraw_time))
            continue
        # every re-announced prefix triggers a fresh probe batch, so the
        # number of one-off sources grows with the announced prefix count
        # (the +275% weekly source growth of §7.1); newly split prefixes
        # draw a slightly larger batch.
        for prefix in cycle.prefixes:
            batch = sources_per_new_prefix
            if prefix not in cycle.new_prefixes:
                batch = max(1, sources_per_new_prefix * 3 // 4)
            for _ in range(batch):
                scanners.append(_one_probe(prefix, cycle.announce_time,
                                           cycle.withdraw_time))
    return scanners
