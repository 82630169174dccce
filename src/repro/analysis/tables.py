"""Table generators (Tables 2-8 of the paper).

Each ``tableN`` function returns a result object holding the raw numbers
(for tests and EXPERIMENTS.md) and a :class:`repro.analysis.report.Table`
for printing. Table 1 is a literature survey and has no generator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.context import CorpusAnalysis
from repro.obs import traced
from repro.analysis.report import Table, format_count, format_share
from repro.core.aggregation import AggregationLevel
from repro.core.columnar import distinct_rows, pair_counts
from repro.core.heavy import find_heavy_hitters
from repro.core.netclass import NetworkClass
from repro.core.payloads import identify_tools
from repro.core.protocols import (TRACEROUTE_BUCKET, protocol_stats,
                                  top_ports)
from repro.core.temporal import TemporalClass
from repro.experiment.phases import Phase
from repro.net.addrtypes import AddressType, TYPE_ORDER, classify_iids
from repro.scanners.registry import NetworkType
from repro.telescope.packet import Protocol

TELESCOPES = ("T1", "T2", "T3", "T4")


# -- Table 2 -----------------------------------------------------------------


@dataclass
class Table2Result:
    """Packets, sessions, and /128 sources per transport protocol."""

    packets: dict[Protocol, int]
    packet_shares: dict[Protocol, float]
    sessions: dict[Protocol, int]
    session_shares: dict[Protocol, float]
    sources: dict[Protocol, int]
    source_shares: dict[Protocol, float]
    table: Table


@traced("analysis.table2")
def table2(analysis: CorpusAnalysis, phase: Phase = Phase.FULL) \
        -> Table2Result:
    """Table 2: per-protocol traffic across all telescopes."""
    stats = protocol_stats(
        [analysis.corpus.phase_table(t, phase) for t in TELESCOPES],
        [analysis.sessions(t, AggregationLevel.ADDR, phase)
         for t in TELESCOPES])
    table = Table(
        title="Table 2: packets, sessions, and sources per protocol",
        columns=["Protocol", "Packets", "Pkt%", "Sessions", "Sess%",
                 "Sources", "Src%"])
    order = (Protocol.ICMPV6, Protocol.UDP, Protocol.TCP)
    for protocol in order:
        table.add_row(
            protocol.name,
            format_count(stats.packets.get(protocol, 0)),
            format_share(stats.packet_share(protocol)),
            format_count(stats.sessions.get(protocol, 0)),
            format_share(stats.session_share(protocol)),
            format_count(stats.sources.get(protocol, 0)),
            format_share(stats.source_share(protocol)))
    return Table2Result(
        packets=stats.packets,
        packet_shares={p: stats.packet_share(p) for p in order},
        sessions=stats.sessions,
        session_shares={p: stats.session_share(p) for p in order},
        sources=stats.sources,
        source_shares={p: stats.source_share(p) for p in order},
        table=table)


# -- Table 3 --------------------------------------------------------------------


@dataclass
class Table3Result:
    """Distribution of target address types."""

    packets: dict[AddressType, int]
    packet_shares: dict[AddressType, float]
    sources: dict[AddressType, int]
    source_shares: dict[AddressType, float]
    table: Table


@traced("analysis.table3")
def table3(analysis: CorpusAnalysis, phase: Phase = Phase.FULL) \
        -> Table3Result:
    """Table 3: addr6 target-type distribution (packets and sources).

    Runs columnar: targets classify once per *unique* IID through the
    vectorized classifier, and per-source type sets reduce to the
    distinct (src_hi, src_lo, type) rows.
    """
    parts = [analysis.corpus.phase_table(t, phase) for t in TELESCOPES]
    dst_lo = np.concatenate([t.dst_lo for t in parts])
    src_hi = np.concatenate([t.src_hi for t in parts])
    src_lo = np.concatenate([t.src_lo for t in parts])
    total_packets = len(dst_lo)

    uniq, inverse = np.unique(dst_lo, return_inverse=True)
    codes = classify_iids(uniq)[inverse]
    per_code = np.bincount(codes, minlength=len(TYPE_ORDER))
    packet_counts: Counter = Counter({
        TYPE_ORDER[i]: int(c) for i, c in enumerate(per_code) if c})

    hi, lo, code = distinct_rows(src_hi, src_lo, codes)
    total_sources = len(distinct_rows(hi, lo)[0])
    per_source_code = np.bincount(code, minlength=len(TYPE_ORDER))
    source_counts: Counter = Counter({
        TYPE_ORDER[i]: int(c) for i, c in enumerate(per_source_code) if c})
    table = Table(
        title="Table 3: distribution of target address types",
        columns=["Address Type", "Packets", "Pkt%", "Sources", "Src%"])
    for addr_type, count in packet_counts.most_common():
        table.add_row(
            addr_type.value,
            format_count(count),
            format_share(count / total_packets, 2),
            format_count(source_counts.get(addr_type, 0)),
            format_share(source_counts.get(addr_type, 0)
                         / max(total_sources, 1), 2))
    table.add_note("source shares may exceed 100% (multi-type scanners)")
    return Table3Result(
        packets=dict(packet_counts),
        packet_shares={t: c / total_packets
                       for t, c in packet_counts.items()},
        sources=dict(source_counts),
        source_shares={t: c / max(total_sources, 1)
                       for t, c in source_counts.items()},
        table=table)


# -- Table 4 ------------------------------------------------------------------------


@dataclass
class Table4Result:
    """Top-5 TCP and UDP ports on /64-aggregated sessions."""

    tcp: list[tuple[int, int, float]]
    udp: list[tuple[int, int, float]]
    table: Table


@traced("analysis.table4")
def table4(analysis: CorpusAnalysis, phase: Phase = Phase.FULL,
           n: int = 5) -> Table4Result:
    """Table 4: top target ports per session (/64 source aggregation)."""
    sessions = [analysis.sessions(t, AggregationLevel.SUBNET, phase)
                for t in TELESCOPES]
    tcp = top_ports(sessions, Protocol.TCP, n)
    udp = top_ports(sessions, Protocol.UDP, n)
    table = Table(
        title="Table 4: top 5 ports targeted by sessions (/64 aggregation)",
        columns=["Rank", "TCP Port", "TCP #", "TCP %",
                 "UDP Port", "UDP #", "UDP %"])

    def port_name(port: int) -> str:
        return "Traceroute" if port == TRACEROUTE_BUCKET else str(port)

    for rank in range(max(len(tcp), len(udp))):
        tcp_row = tcp[rank] if rank < len(tcp) else ("-", 0, 0.0)
        udp_row = udp[rank] if rank < len(udp) else ("-", 0, 0.0)
        table.add_row(
            f"#{rank + 1}",
            port_name(tcp_row[0]) if tcp_row[0] != "-" else "-",
            format_count(tcp_row[1]),
            format_share(tcp_row[2]),
            port_name(udp_row[0]) if udp_row[0] != "-" else "-",
            format_count(udp_row[1]),
            format_share(udp_row[2]))
    return Table4Result(tcp=tcp, udp=udp, table=table)


# -- Table 5 -----------------------------------------------------------------------------


@dataclass
class Table5Result:
    """Per-telescope comparison during the initial period (5a + 5b)."""

    sources_128: dict[str, int]
    sources_64: dict[str, int]
    asns: dict[str, int]
    destinations: dict[str, int]
    packets: dict[str, int]
    protocol_sources: dict[str, dict[Protocol, int]]
    table_a: Table
    table_b: Table
    #: fraction of the initial period each capture was up (1.0 = gapless)
    coverage: dict[str, float] = field(default_factory=dict)
    #: raw packet counts scaled to full-coverage equivalents
    packets_normalized: dict[str, float] = field(default_factory=dict)


@traced("analysis.table5")
def table5(analysis: CorpusAnalysis) -> Table5Result:
    """Table 5: telescope comparison before the split period."""
    degraded = analysis.warn_if_degraded("table5")
    sources_128: dict[str, int] = {}
    sources_64: dict[str, int] = {}
    asns: dict[str, int] = {}
    destinations: dict[str, int] = {}
    packets: dict[str, int] = {}
    protocol_sources: dict[str, dict[Protocol, int]] = {}
    for telescope in TELESCOPES:
        table = analysis.corpus.phase_table(telescope, Phase.INITIAL)
        packets[telescope] = len(table)
        sources_128[telescope] = len(
            distinct_rows(table.src_hi, table.src_lo)[0])
        sources_64[telescope] = len(np.unique(table.src_hi))
        asns[telescope] = len(np.unique(table.src_asn[table.src_asn != 0]))
        destinations[telescope] = len(
            distinct_rows(table.dst_hi, table.dst_lo)[0])
        protocol_sources[telescope] = {}
        for protocol in Protocol:
            rows = table.protocol == protocol
            if rows.any():
                protocol_sources[telescope][protocol] = len(
                    distinct_rows(table.src_hi[rows], table.src_lo[rows])[0])

    table_a = Table(
        title="Table 5(a): telescope comparison, initial period",
        columns=["Metric", "T1", "T2", "T3", "T4"])
    for label, data in (("/128 source addr.", sources_128),
                        ("/64 source addr.", sources_64),
                        ("ASN", asns),
                        ("Destination addr.", destinations),
                        ("Packets", packets)):
        table_a.add_row(label, *(format_count(data[t]) for t in TELESCOPES))

    coverage = {t: analysis.covered_fraction(t, Phase.INITIAL)
                for t in TELESCOPES}
    packets_normalized = {
        t: packets[t] / coverage[t] if coverage[t] > 0.0 else 0.0
        for t in TELESCOPES}
    if degraded:
        # gap-aware rows so partial captures stay comparable
        table_a.add_row("Covered time",
                        *(format_share(coverage[t]) for t in TELESCOPES))
        table_a.add_row("Packets (normalized)",
                        *(format_count(int(round(packets_normalized[t])))
                          for t in TELESCOPES))

    table_b = Table(
        title="Table 5(b): distinct sources per protocol, initial period",
        columns=["Protocol", "T1 #", "T1 %", "T2 #", "T2 %",
                 "T3 #", "T3 %", "T4 #", "T4 %"])
    for protocol in (Protocol.ICMPV6, Protocol.TCP, Protocol.UDP):
        cells = []
        for telescope in TELESCOPES:
            count = protocol_sources[telescope].get(protocol, 0)
            total = max(sources_128[telescope], 1)
            cells.extend([format_count(count),
                          format_share(count / total)])
        table_b.add_row(protocol.name, *cells)
    return Table5Result(
        sources_128=sources_128, sources_64=sources_64, asns=asns,
        destinations=destinations, packets=packets,
        protocol_sources=protocol_sources,
        table_a=table_a, table_b=table_b,
        coverage=coverage, packets_normalized=packets_normalized)


# -- Table 6 ---------------------------------------------------------------------------------


@dataclass
class Table6Result:
    """Taxonomy classification of T1 split-period scanners."""

    temporal_scanners: dict[TemporalClass, int]
    temporal_sessions: dict[TemporalClass, int]
    network_scanners: dict[NetworkClass, int]
    network_sessions: dict[NetworkClass, int]
    table: Table


@traced("analysis.table6")
def table6(analysis: CorpusAnalysis) -> Table6Result:
    """Table 6: temporal and network-selection classes (T1, split)."""
    session_set = analysis.split_sessions_t1()
    temporal = analysis.temporal_classes("T1", AggregationLevel.ADDR,
                                         Phase.SPLIT)
    network = analysis.network_classes()
    temporal_scanners: Counter = Counter(temporal.values())
    temporal_sessions: Counter = Counter()
    network_scanners: Counter = Counter(network.values())
    network_sessions: Counter = Counter()
    for source, count in zip(session_set.source_keys(),
                             session_set.sessions_per_source().tolist()):
        temporal_sessions[temporal[source]] += count
        cls = network.get(source)
        if cls is not None:
            network_sessions[cls] += count

    total_scanners = sum(temporal_scanners.values())
    total_sessions = sum(temporal_sessions.values())
    net_total_scanners = sum(network_scanners.values())
    net_total_sessions = sum(network_sessions.values())
    table = Table(
        title="Table 6: taxonomy classification (T1, split period)",
        columns=["Classification", "Scanners", "Scan%", "Sessions", "Sess%"])
    for cls in (TemporalClass.ONE_OFF, TemporalClass.INTERMITTENT,
                TemporalClass.PERIODIC):
        table.add_row(
            f"Temporal: {cls.value}",
            format_count(temporal_scanners.get(cls, 0)),
            format_share(temporal_scanners.get(cls, 0)
                         / max(total_scanners, 1), 2),
            format_count(temporal_sessions.get(cls, 0)),
            format_share(temporal_sessions.get(cls, 0)
                         / max(total_sessions, 1), 2))
    for cls in (NetworkClass.SINGLE_PREFIX, NetworkClass.SIZE_INDEPENDENT,
                NetworkClass.INCONSISTENT, NetworkClass.SIZE_DEPENDENT):
        table.add_row(
            f"Network: {cls.value}",
            format_count(network_scanners.get(cls, 0)),
            format_share(network_scanners.get(cls, 0)
                         / max(net_total_scanners, 1), 2),
            format_count(network_sessions.get(cls, 0)),
            format_share(network_sessions.get(cls, 0)
                         / max(net_total_sessions, 1), 2))
    return Table6Result(
        temporal_scanners=dict(temporal_scanners),
        temporal_sessions=dict(temporal_sessions),
        network_scanners=dict(network_scanners),
        network_sessions=dict(network_sessions),
        table=table)


# -- Table 7 ----------------------------------------------------------------------------------


@dataclass
class Table7Result:
    """Identified scan tools among T1 split-period sources."""

    per_tool: dict[str, tuple[int, int]]
    total_scanners: int
    total_sessions: int
    table: Table


@traced("analysis.table7")
def table7(analysis: CorpusAnalysis) -> Table7Result:
    """Table 7: public scan tools identified via payloads and RDNS."""
    session_set = analysis.split_sessions_t1()
    report = identify_tools(session_set, resolver=analysis.corpus.resolver)
    total_scanners = len(session_set.source_keys())
    total_sessions = len(session_set)
    table = Table(
        title="Table 7: identified scan tools (T1, split period)",
        columns=["Scan Tool", "Scanners", "Scan%", "Sessions", "Sess%"])
    ranked = sorted(report.per_tool.items(),
                    key=lambda kv: (-kv[1][0], kv[0]))
    for tool, (scanners, sessions) in ranked:
        table.add_row(
            tool,
            format_count(scanners),
            format_share(scanners / max(total_scanners, 1), 2),
            format_count(sessions),
            format_share(sessions / max(total_sessions, 1), 2))
    return Table7Result(per_tool=report.per_tool,
                        total_scanners=total_scanners,
                        total_sessions=total_sessions, table=table)


# -- Table 8 -------------------------------------------------------------------------------------


@dataclass
class Table8Result:
    """Network types of T1 split-period scan sources."""

    scanners: dict[NetworkType, int]
    sessions: dict[NetworkType, int]
    packets: dict[NetworkType, int]
    packets_without_hitters: dict[NetworkType, int]
    table: Table


@traced("analysis.table8")
def table8(analysis: CorpusAnalysis) -> Table8Result:
    """Table 8: scanner origins by network type, with/without hitters."""
    registry = analysis.corpus.registry
    session_set = analysis.split_sessions_t1()
    table = analysis.corpus.phase_table("T1", Phase.SPLIT)
    hitters = {h.source for h in find_heavy_hitters({"T1": table})}

    scanners: Counter = Counter()
    sessions: Counter = Counter()
    for source, count in zip(session_set.source_keys(),
                             session_set.sessions_per_source().tolist()):
        network_type = registry.network_type_of(source)
        scanners[network_type] += 1
        sessions[network_type] += count
    # one registry lookup per source, in order of its first packet
    packet_counts: Counter = Counter()
    packets_wo: Counter = Counter()
    hi, lo, counts, first = pair_counts(table.src_hi, table.src_lo)
    for i in np.argsort(first).tolist():
        source = (int(hi[i]) << 64) | int(lo[i])
        network_type = registry.network_type_of(source)
        packet_counts[network_type] += int(counts[i])
        if source not in hitters:
            packets_wo[network_type] += int(counts[i])

    total_scanners = sum(scanners.values())
    total_sessions = sum(sessions.values())
    total_packets = sum(packet_counts.values())
    table = Table(
        title="Table 8: network types of scan sources (T1, split period)",
        columns=["Network", "Scanners", "Scan%", "Sessions", "Sess%",
                 "Packets", "Pkt%"])
    order = (NetworkType.HOSTING, NetworkType.ISP, NetworkType.EDUCATION,
             NetworkType.BUSINESS, NetworkType.GOVERNMENT,
             NetworkType.UNKNOWN)
    for network_type in order:
        table.add_row(
            network_type.value,
            format_count(scanners.get(network_type, 0)),
            format_share(scanners.get(network_type, 0)
                         / max(total_scanners, 1), 2),
            format_count(sessions.get(network_type, 0)),
            format_share(sessions.get(network_type, 0)
                         / max(total_sessions, 1), 2),
            format_count(packet_counts.get(network_type, 0)),
            format_share(packet_counts.get(network_type, 0)
                         / max(total_packets, 1), 2))
        if network_type in (NetworkType.HOSTING, NetworkType.EDUCATION):
            table.add_row(
                f"{network_type.value} w/o Hit.",
                format_count(scanners.get(network_type, 0)),
                format_share(scanners.get(network_type, 0)
                             / max(total_scanners, 1), 2),
                format_count(sessions.get(network_type, 0)),
                format_share(sessions.get(network_type, 0)
                             / max(total_sessions, 1), 2),
                format_count(packets_wo.get(network_type, 0)),
                format_share(packets_wo.get(network_type, 0)
                             / max(total_packets, 1), 2))
    return Table8Result(
        scanners=dict(scanners), sessions=dict(sessions),
        packets=dict(packet_counts),
        packets_without_hitters=dict(packets_wo), table=table)
