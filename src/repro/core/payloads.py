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

from repro.core.columnar import NO_PAYLOAD
from repro.core.dbscan import NOISE, dbscan
from repro.core.sessions import SessionSet
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


def identify_tools(session_set: SessionSet,
                   resolver: Resolver | None = None,
                   eps: float = DEFAULT_EPS,
                   max_payloads_per_session: int = 3,
                   max_cluster_samples: int = 1500) -> ToolReport:
    """Run the full §5.4 pipeline over a session set.

    Per-source attribution reads the first ``max_payloads_per_session``
    payloads of every session, matching each distinct payload once.
    DBSCAN clustering is quadratic in the sample count, so at most
    ``max_cluster_samples`` of those payloads (in session order) enter
    the clustering — which matches the paper's manual per-cluster
    analysis of representative payloads. A source's tool is the majority
    label over its payload samples (ties: the label seen first), with
    RDNS hints as fallback.
    """
    report = ToolReport()
    table = session_set.table
    rows, _ = session_set.session_rows()
    sources = session_set.source_keys()
    codes = session_set.source_codes()
    payload_id = table.payload_id[rows]
    with_payload = payload_id != NO_PAYLOAD
    empty = [i for i in np.unique(payload_id[with_payload]).tolist()
             if not table.payloads[i]]
    if empty:
        with_payload &= ~np.isin(payload_id, empty)
    with_payload = np.flatnonzero(with_payload)
    session_of = session_set.row_sessions()[with_payload]
    # rank of each payload within its session: rows are session-ordered
    rank = np.arange(len(session_of)) \
        - np.searchsorted(session_of, session_of, side="left")
    taken = rank < max_payloads_per_session
    sample_ids = payload_id[with_payload[taken]]
    distinct_ids = np.unique(sample_ids)
    tools = [_match_tool(table.payloads[i]) for i in distinct_ids.tolist()]
    names = sorted({tool.name for tool in tools if tool is not None})
    width = max(len(names), 1)
    tool_code = np.array([names.index(tool.name) if tool else -1
                          for tool in tools], dtype=np.int64)[
        np.searchsorted(distinct_ids, sample_ids)]

    # votes per (source, tool), counted in order of each pair's first vote
    voted = tool_code >= 0
    keys, first, counts = np.unique(
        codes[session_of[taken][voted]] * width + tool_code[voted],
        return_index=True, return_counts=True)
    votes: dict[int, Counter] = {}
    for i in np.argsort(first).tolist():
        code, tool = divmod(int(keys[i]), width)
        votes.setdefault(sources[code], Counter())[names[tool]] = \
            int(counts[i])
    for source, counter in votes.items():
        report.source_tools[source] = counter.most_common(1)[0][0]

    samples = [table.payloads[i]
               for i in sample_ids[:max_cluster_samples].tolist()]
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
        unattributed = [source for source in sources
                        if source not in report.source_tools]
        resolved = resolver.reverse_batch(unattributed)
        for source in unattributed:
            label = _rdns_label(resolved[source]) \
                if source in resolved else ""
            if label:
                report.source_tools[source] = label

    # per-tool source/session tallies
    sessions_of = dict(zip(sources,
                           session_set.sessions_per_source().tolist()))
    per_tool_sources: dict[str, set[int]] = {}
    per_tool_sessions: dict[str, int] = {}
    for source, tool in report.source_tools.items():
        per_tool_sources.setdefault(tool, set()).add(source)
        per_tool_sessions[tool] = per_tool_sessions.get(tool, 0) \
            + sessions_of[source]
    report.per_tool = {
        tool: (len(tool_sources), per_tool_sessions[tool])
        for tool, tool_sources in per_tool_sources.items()}
    return report
