"""Payload clustering and scan-tool identification (§5.4).

Probe payloads are clustered with DBSCAN over their leading bytes; each
cluster is then labeled by matching against the known public-tool
signatures and by the sources' reverse-DNS entries. Clusters matching
nothing are labeled by payload characteristics ("random-bytes" etc.).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.dbscan import NOISE, dbscan
from repro.core.sessions import Session
from repro.dns.resolver import Resolver
from repro.scanners.tools import TOOL_SIGNATURES, ToolSignature

#: Leading bytes compared when clustering payloads.
PREFIX_BYTES = 8

#: Maximum differing leading bytes inside one cluster.
DEFAULT_EPS = 2.0

#: RDNS substrings mapped to tool/operator labels.
RDNS_HINTS = (
    ("atlas.ripe.net", "RIPEAtlasProbe"),
    ("caida.org", "CAIDA Ark"),
    ("6sense", "6Sense"),
    ("alphastrike", "AlphaStrike"),
)


def payload_prefix(payload: bytes) -> bytes:
    """Fixed-length leading-byte vector used as the clustering feature."""
    return payload[:PREFIX_BYTES].ljust(PREFIX_BYTES, b"\x00")


@dataclass
class PayloadCluster:
    """One DBSCAN cluster of payloads with its attribution."""

    label: int
    size: int
    representative: bytes
    tool: ToolSignature | None = None
    rdns_label: str = ""
    category: str = "unknown"


@dataclass
class ToolReport:
    """Tool attribution for a set of sessions."""

    clusters: list[PayloadCluster] = field(default_factory=list)
    #: source -> tool/operator name
    source_tools: dict[int, str] = field(default_factory=dict)
    #: tool name -> (num sources, num sessions)
    per_tool: dict[str, tuple[int, int]] = field(default_factory=dict)


def cluster_payloads(payloads: list[bytes], eps: float = DEFAULT_EPS,
                     min_samples: int = 2) -> list[int]:
    """Cluster payloads by leading-byte distance; returns labels.

    The distance counts differing prefix bytes, summed one byte column
    at a time into an n x n ``uint8`` matrix (an n x n x 8 broadcast
    would hold eight times that)."""
    n = len(payloads)
    prefixes = np.frombuffer(b"".join(payload_prefix(p) for p in payloads),
                             dtype=np.uint8).reshape(n, PREFIX_BYTES)
    distances = np.zeros((n, n), dtype=np.uint8)
    for column in prefixes.T:
        distances += column[:, None] != column[None, :]
    return dbscan(distances, eps=eps, min_samples=min_samples,
                  metric="precomputed")


def _match_tool(payload: bytes) -> ToolSignature | None:
    for signature in TOOL_SIGNATURES:
        if signature.matches(payload):
            return signature
    return None


def _rdns_label(name: str) -> str:
    lowered = name.lower()
    for needle, label in RDNS_HINTS:
        if needle in lowered:
            return label
    return ""


def identify_tools(sessions: list[Session],
                   resolver: Resolver | None = None,
                   eps: float = DEFAULT_EPS,
                   max_payloads_per_session: int = 3,
                   max_cluster_samples: int = 1500) -> ToolReport:
    """Run the full §5.4 pipeline over a session list.

    Per-source attribution scans every session's payloads (linear).
    DBSCAN clustering is quadratic in the sample count, so at most
    ``max_cluster_samples`` payload samples enter the clustering — which
    matches the paper's manual per-cluster analysis of representative
    payloads. A source's tool is the majority label over its payload
    samples, with RDNS hints as tie-breaker and fallback.
    """
    samples: list[bytes] = []
    votes: dict[int, Counter] = {}
    for session in sessions:
        taken = 0
        for packet in session.packets:
            if not packet.payload:
                continue
            tool = _match_tool(packet.payload)
            if tool is not None:
                votes.setdefault(session.source, Counter())[tool.name] += 1
            if len(samples) < max_cluster_samples:
                samples.append(packet.payload)
            taken += 1
            if taken >= max_payloads_per_session:
                break
    report = ToolReport()
    for source, counter in votes.items():
        report.source_tools[source] = counter.most_common(1)[0][0]
    if samples:
        labels = cluster_payloads(samples, eps=eps)
        by_label: dict[int, list[int]] = {}
        for i, label in enumerate(labels):
            by_label.setdefault(label, []).append(i)
        for label, members in sorted(by_label.items()):
            if label == NOISE:
                continue
            representative = samples[members[0]]
            tool = _match_tool(representative)
            category = "random-bytes" if tool is None else "tool"
            report.clusters.append(PayloadCluster(
                label=label, size=len(members),
                representative=payload_prefix(representative),
                tool=tool, category=category))

    # RDNS fallback/augmentation for sources without payload matches
    if resolver is not None:
        for session in sessions:
            if session.source in report.source_tools:
                continue
            name = resolver.reverse(session.source)
            if name:
                label = _rdns_label(name)
                if label:
                    report.source_tools[session.source] = label

    # per-tool source/session tallies
    session_tools: dict[int, str] = {}
    for index, session in enumerate(sessions):
        tool = report.source_tools.get(session.source)
        if tool:
            session_tools[index] = tool
    per_tool_sources: dict[str, set[int]] = {}
    per_tool_sessions: dict[str, int] = {}
    for source, tool in report.source_tools.items():
        per_tool_sources.setdefault(tool, set()).add(source)
    for index, tool in session_tools.items():
        per_tool_sessions[tool] = per_tool_sessions.get(tool, 0) + 1
    report.per_tool = {
        tool: (len(sources), per_tool_sessions.get(tool, 0))
        for tool, sources in per_tool_sources.items()}
    return report
