"""Protocol and port statistics (§4.2, Tables 2 and 4)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.columnar import PacketTable, distinct_rows
from repro.core.sessions import (PROTOCOL_BIT, SessionSet,
                                 protocol_session_counts)
from repro.errors import AnalysisError
from repro.telescope.packet import Protocol, TRACEROUTE_PORT_RANGE

#: Pseudo-port bucketing the whole default traceroute range, as the paper
#: aggregates "Traceroute¹" into a single Table 4 row.
TRACEROUTE_BUCKET = -1


@dataclass(frozen=True, slots=True)
class ProtocolStats:
    """Packets / sessions / sources per transport protocol (Table 2)."""

    packets: dict[Protocol, int]
    sessions: dict[Protocol, int]
    sources: dict[Protocol, int]
    total_packets: int
    total_sessions: int
    total_sources: int

    def packet_share(self, protocol: Protocol) -> float:
        return self.packets.get(protocol, 0) / self.total_packets \
            if self.total_packets else 0.0

    def session_share(self, protocol: Protocol) -> float:
        return self.sessions.get(protocol, 0) / self.total_sessions \
            if self.total_sessions else 0.0

    def source_share(self, protocol: Protocol) -> float:
        return self.sources.get(protocol, 0) / self.total_sources \
            if self.total_sources else 0.0


def protocol_stats(tables: Sequence[PacketTable],
                   session_sets: Sequence[SessionSet]) -> ProtocolStats:
    """Compute the Table 2 statistics over packet tables and the session
    sets cut from them.

    Session/source shares may exceed 100% in total because multi-protocol
    scanners count once per protocol, as in the paper. A source seen at
    several telescopes counts once.
    """
    per_number = sum((np.bincount(t.protocol, minlength=256)
                      for t in tables), np.zeros(256, dtype=np.int64))
    total_packets = int(per_number.sum())
    if not total_packets:
        raise AnalysisError("no packets")
    packets = {protocol: int(per_number[protocol]) for protocol in Protocol
               if per_number[protocol]}
    masks = np.concatenate([s.protocol_masks() for s in session_sets])
    hi = np.concatenate([s.source_columns()[0] for s in session_sets])
    lo = np.concatenate([s.source_columns()[1] for s in session_sets])
    sessions = protocol_session_counts(masks)
    sources = {}
    for protocol in sessions:
        hit = (masks & PROTOCOL_BIT[protocol]) != 0
        sources[protocol] = len(distinct_rows(hi[hit], lo[hit])[0])
    return ProtocolStats(
        packets=packets,
        sessions=sessions,
        sources=sources,
        total_packets=total_packets,
        total_sessions=len(masks),
        total_sources=len(distinct_rows(hi, lo)[0]))


def bucket_ports(protocol: Protocol, ports: np.ndarray) -> np.ndarray:
    """Collapse UDP traceroute ports into one bucket (Table 4 footnote)."""
    bucketed = ports.astype(np.int64)
    if protocol is Protocol.UDP:
        low, high = TRACEROUTE_PORT_RANGE
        bucketed[(bucketed >= low) & (bucketed <= high)] = TRACEROUTE_BUCKET
    return bucketed


def top_ports(session_sets: Sequence[SessionSet], protocol: Protocol,
              n: int = 5) -> list[tuple[int, int, float]]:
    """Top destination ports by session count (Table 4).

    Each port counts once per session in which it occurs, over the
    sessions of all ``session_sets`` in turn. Returns
    ``(port, session_count, share_of_protocol_sessions)``; the traceroute
    range appears as :data:`TRACEROUTE_BUCKET`. Equal counts rank in
    the order a pass over the sessions, each one's ports taken as a
    Python ``set``, first meets the ports.
    """
    sessions, ports = [], []
    offset = 0
    for session_set in session_sets:
        rows, _ = session_set.session_rows()
        table = session_set.table
        keep = table.protocol[rows] == int(protocol)
        sessions.append(session_set.row_sessions()[keep] + offset)
        ports.append(bucket_ports(protocol, table.dst_port[rows[keep]]))
        offset += len(session_set)
    if not offset:
        return []
    session_of = np.concatenate(sessions)
    port_of = np.concatenate(ports)
    # distinct (session, port) pairs, sorted by session then port, each
    # with the position of its first packet
    pair_key = session_of * 0x10001 + (port_of + 1)
    pair_key, first_row = np.unique(pair_key, return_index=True)
    pair_session, pair_port = np.divmod(pair_key, 0x10001)
    pair_port -= 1
    if not len(pair_key):
        return []
    protocol_sessions = 1 + int(np.count_nonzero(np.diff(pair_session)))
    distinct, first_pair, counts = np.unique(
        pair_port, return_index=True, return_counts=True)
    # Counter insertion order: by the session that first has the port;
    # ports a session introduces together follow its port set's order
    by_session = np.argsort(pair_session[first_pair], kind="stable")
    introducer = pair_session[first_pair][by_session]
    groups = np.flatnonzero(np.diff(introducer)) + 1
    port_sessions: Counter = Counter()
    for session, members in zip(
            introducer[np.concatenate(([0], groups))].tolist(),
            np.split(by_session, groups)):
        if len(members) == 1:
            port_sessions[int(distinct[members[0]])] = int(
                counts[members[0]])
            continue
        count_of = dict(zip(distinct[members].tolist(),
                            counts[members].tolist()))
        lo, hi = np.searchsorted(pair_session, (session, session + 1))
        in_arrival = pair_port[lo:hi][np.argsort(first_row[lo:hi])]
        for port in set(in_arrival.tolist()):
            if port in count_of:
                port_sessions[port] = count_of[port]
    return [(port, count, count / protocol_sessions)
            for port, count in port_sessions.most_common(n)]
