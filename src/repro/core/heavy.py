"""Heavy-hitter detection (§4.2).

A heavy hitter is an individual source contributing more than 10% of the
scan packets at one telescope. The paper found ten across the four
telescopes; together they carry 73% of all packets but only 0.04% of all
sessions, which is why the analyses are session-centric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.columnar import PacketTable, pair_counts
from repro.core.sessions import SessionSet
from repro.errors import AnalysisError

#: Paper threshold: >10% of one telescope's packets.
DEFAULT_THRESHOLD = 0.10


@dataclass(frozen=True, slots=True)
class HeavyHitter:
    """One heavy-hitter source at one telescope."""

    source: int
    telescope: str
    packets: int
    share: float


def find_heavy_hitters(tables_by_telescope: dict[str, PacketTable],
                       threshold: float = DEFAULT_THRESHOLD) \
        -> list[HeavyHitter]:
    """All (source, telescope) pairs above the packet-share threshold.

    Sources with equal packet counts rank in order of their first packet.
    """
    if not 0 < threshold < 1:
        raise AnalysisError(f"threshold must be in (0,1), got {threshold}")
    hitters: list[HeavyHitter] = []
    for telescope, table in tables_by_telescope.items():
        total = len(table)
        if total == 0:
            continue
        hi, lo, counts, first = pair_counts(table.src_hi, table.src_lo)
        for i in np.lexsort((first, -counts)).tolist():
            count = int(counts[i])
            share = count / total
            if share <= threshold:
                break
            hitters.append(HeavyHitter(
                source=(int(hi[i]) << 64) | int(lo[i]), telescope=telescope,
                packets=count, share=share))
    hitters.sort(key=lambda h: (-h.packets, h.telescope))
    return hitters


@dataclass(frozen=True, slots=True)
class HeavyHitterImpact:
    """Aggregate contribution of heavy hitters (the 73% / 0.04% numbers)."""

    num_hitters: int
    packet_share: float
    session_share: float


def heavy_hitter_impact(tables_by_telescope: dict[str, PacketTable],
                        session_sets: dict[str, SessionSet],
                        threshold: float = DEFAULT_THRESHOLD) \
        -> HeavyHitterImpact:
    """Packet vs session share of all heavy hitters combined."""
    hitters = find_heavy_hitters(tables_by_telescope, threshold)
    hitter_sources = {h.source for h in hitters}
    total_packets = sum(len(t) for t in tables_by_telescope.values())
    total_sessions = sum(len(s) for s in session_sets.values())
    if total_packets == 0 or total_sessions == 0:
        raise AnalysisError("empty corpus")
    hh_packets = sum(
        int(np.count_nonzero(table.source_mask(hitter_sources)))
        for table in tables_by_telescope.values())
    hh_sessions = sum(
        count for session_set in session_sets.values()
        for source, count in zip(session_set.source_keys(),
                                 session_set.sessions_per_source().tolist())
        if source in hitter_sources)
    return HeavyHitterImpact(
        num_hitters=len({(h.source, h.telescope) for h in hitters}),
        packet_share=hh_packets / total_packets,
        session_share=hh_sessions / total_sessions)
