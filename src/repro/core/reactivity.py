"""BGP reactivity metrics (§7.1).

Quantifies how scanners react to announcement changes in T1:

- packets/sessions per most-specific announced prefix over time (Fig. 10),
- the split-/33 vs stable-/33 packet ratio (the +286% headline),
- per-cycle source/session growth (Fig. 11, +275% / +555%),
- live BGP monitors: sources first seen within minutes of an announcement,
- new-prefix discovery decay after an announcement (Fig. 3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bgp.controller import AnnouncementCycle
from repro.core.columnar import (PacketTable, distinct_rows,
                                 first_arrivals, join_halves, row_changes)
from repro.core.sessions import SessionSet
from repro.errors import AnalysisError
from repro.net.lpm import NO_MATCH, build_matcher, contains_mask
from repro.net.prefix import Prefix
from repro.sim.clock import DAY


def most_specific_slots(cycle: AnnouncementCycle, dst_hi: np.ndarray,
                        dst_lo: np.ndarray) -> np.ndarray:
    """Per address, the index into ``cycle.prefixes`` of the most-specific
    prefix covering it, or :data:`~repro.net.lpm.NO_MATCH`."""
    matcher = build_matcher([(prefix, slot)
                             for slot, prefix in enumerate(cycle.prefixes)])
    return matcher.lookup(dst_hi, dst_lo)


def cycle_sessions(session_set: SessionSet,
                   cycle: AnnouncementCycle) -> tuple[int, int]:
    """The range ``[lo, hi)`` of a set's sessions that start in the cycle:
    sessions are ordered by start, so they are one slice."""
    lo, hi = np.searchsorted(session_set.starts(),
                             (cycle.announce_time, cycle.withdraw_time))
    return int(lo), int(hi)


def prefix_hits(session_set: SessionSet, cycle: AnnouncementCycle) \
        -> tuple[np.ndarray, np.ndarray]:
    """(sessions, slots): each session starting in the cycle, paired with
    each announced prefix (an index into ``cycle.prefixes``) that is the
    most-specific match of one of its targets; sorted by session, then
    slot."""
    first, last = cycle_sessions(session_set, cycle)
    rows, offsets = session_set.session_rows()
    span = rows[offsets[first]:offsets[last]]
    table = session_set.table
    slots = most_specific_slots(cycle, table.dst_hi[span],
                                table.dst_lo[span]).astype(np.int64)
    matched = slots != NO_MATCH
    sessions = session_set.row_sessions()[offsets[first]:offsets[last]]
    keys = np.unique(sessions[matched] * len(cycle.prefixes)
                     + slots[matched])
    return np.divmod(keys, len(cycle.prefixes))


def _touched_in_set_order(session_set: SessionSet, session: int,
                          cycle: AnnouncementCycle) -> list[Prefix]:
    """The prefixes one session touched in the cycle, in the order a
    Python ``set`` of them iterates when it is filled target by target
    from the ``set`` of the session's targets."""
    rows, offsets = session_set.session_rows()
    rows = rows[offsets[session]:offsets[session + 1]]
    table = session_set.table
    slots = most_specific_slots(cycle, table.dst_hi[rows],
                                table.dst_lo[rows]).tolist()
    targets = [(hi << 64) | lo for hi, lo in zip(table.dst_hi[rows].tolist(),
                                                table.dst_lo[rows].tolist())]
    slot_of = dict(zip(targets, slots))
    touched: set[Prefix] = set()
    for dst in set(targets):
        if slot_of[dst] != NO_MATCH:
            touched.add(cycle.prefixes[slot_of[dst]])
    return list(touched)


def sessions_per_prefix_cumulative(session_set: SessionSet,
                                   cycles: list[AnnouncementCycle]) \
        -> dict[Prefix, list[int]]:
    """Per-prefix cumulative session counts per cycle (Fig. 10 series).

    A session counts for the most-specific prefix covering any of its
    targets during the cycle that contains its start. Prefixes are keyed
    in the order a pass over the cycles, then their sessions, then each
    session's set of touched prefixes first meets them; only the first
    session to touch two or more new prefixes is looked at row by row.
    """
    per_cycle: dict[Prefix, Counter] = {}
    for cycle in cycles:
        sessions, slots = prefix_hits(session_set, cycle)
        if not len(slots):
            continue
        counts = np.bincount(slots, minlength=len(cycle.prefixes))
        first = np.full(len(cycle.prefixes), len(session_set))
        np.minimum.at(first, slots, sessions)
        introduced: dict[int, list[int]] = {}
        for slot in np.argsort(first, kind="stable").tolist():
            if counts[slot] and cycle.prefixes[slot] not in per_cycle:
                introduced.setdefault(int(first[slot]), []).append(slot)
        for session, group in introduced.items():
            if len(group) == 1:
                per_cycle[cycle.prefixes[group[0]]] = Counter()
                continue
            members = {cycle.prefixes[slot] for slot in group}
            for prefix in _touched_in_set_order(session_set, session, cycle):
                if prefix in members:
                    per_cycle[prefix] = Counter()
        for slot in np.flatnonzero(counts).tolist():
            per_cycle[cycle.prefixes[slot]][cycle.index] += int(counts[slot])
    result: dict[Prefix, list[int]] = {}
    indices = [c.index for c in cycles]
    for prefix, counter in per_cycle.items():
        running = 0
        series = []
        for index in indices:
            running += counter.get(index, 0)
            series.append(running)
        result[prefix] = series
    return result


@dataclass(frozen=True, slots=True)
class SplitHalfComparison:
    """Packets into the iteratively split /33 vs the stable companion /33."""

    stable_packets: int
    split_packets: int

    @property
    def increase(self) -> float:
        """Relative increase of the split half (+2.86 == +286%)."""
        if self.stable_packets == 0:
            raise AnalysisError("no packets in the stable /33")
        return self.split_packets / self.stable_packets - 1.0


def split_half_comparison(table: PacketTable, t1_prefix: Prefix,
                          cycles: list[AnnouncementCycle]) \
        -> SplitHalfComparison:
    """The +286% comparison: split /33 segment vs stable companion /33.

    Only split-period packets count; the stable companion is the half of
    the original /32 containing its low-byte address.
    """
    stable_half, split_half = t1_prefix.split()
    split_cycles = [c for c in cycles if c.index > 0]
    if not split_cycles:
        raise AnalysisError("no split cycles")
    start = split_cycles[0].announce_time
    end = split_cycles[-1].withdraw_time
    inside = (table.time >= start) & (table.time < end)
    dst_hi, dst_lo = table.dst_hi[inside], table.dst_lo[inside]
    return SplitHalfComparison(
        stable_packets=int(np.count_nonzero(
            contains_mask(stable_half, dst_hi, dst_lo))),
        split_packets=int(np.count_nonzero(
            contains_mask(split_half, dst_hi, dst_lo))))


@dataclass(frozen=True, slots=True)
class CycleActivity:
    """Sources and sessions of one announcement cycle (Fig. 11 point)."""

    cycle_index: int
    sources: int
    sessions: int


def cycle_activity(session_sets: Sequence[SessionSet],
                   cycles: list[AnnouncementCycle]) -> list[CycleActivity]:
    """Per-cycle distinct sources and session counts over all the sets;
    a source seen at several telescopes counts once."""
    result = []
    for cycle in cycles:
        his, los = [], []
        for session_set in session_sets:
            lo, hi = cycle_sessions(session_set, cycle)
            source_hi, source_lo = session_set.source_columns()
            his.append(source_hi[lo:hi])
            los.append(source_lo[lo:hi])
        hi, lo = np.concatenate(his), np.concatenate(los)
        result.append(CycleActivity(
            cycle_index=cycle.index,
            sources=len(distinct_rows(hi, lo)[0]),
            sessions=len(hi)))
    return result


def baseline_split_growth(session_set: SessionSet,
                          cycles: list[AnnouncementCycle],
                          attr: str = "sources") -> float:
    """Average weekly activity in the split period vs the baseline.

    This is the §7.1 headline metric ("weekly increase in the average
    number of observed scan sources by 275% and 555% in ... sessions"):
    the average weekly count of distinct sources (or sessions) during the
    split period relative to the initial observation period.
    """
    if not cycles or cycles[0].index != 0:
        raise AnalysisError("need a schedule starting with the baseline")
    baseline = cycles[0]
    split = [c for c in cycles if c.index > 0]
    if not split:
        raise AnalysisError("no split cycles")
    starts = session_set.starts()
    codes = session_set.source_codes()

    def weekly_rate(start: float, end: float) -> float:
        weeks = max((end - start) / (7 * DAY), 1e-9)
        lo, hi = np.searchsorted(starts, (start, end))
        if attr == "sources":
            value = len(np.unique(codes[lo:hi]))
        else:
            value = int(hi - lo)
        return value / weeks

    base_rate = weekly_rate(baseline.announce_time, baseline.withdraw_time)
    split_rates = [weekly_rate(c.announce_time, c.withdraw_time)
                   for c in split]
    if base_rate <= 0:
        raise AnalysisError("no baseline activity")
    return sum(split_rates) / len(split_rates) / base_rate - 1.0


def live_monitors(table: PacketTable, cycles: list[AnnouncementCycle],
                  within: float = 1800.0) -> set[int]:
    """Sources reliably arriving within ``within`` seconds of announcements.

    A source qualifies if its first packet of *every* cycle in which it
    appears lands within the reaction window, and it appears in at least
    two cycles (the paper's "reliably observe" criterion).
    """
    his, los, delays = [], [], []
    for cycle in cycles:
        if cycle.index == 0:
            continue
        inside = (table.time >= cycle.announce_time) \
            & (table.time < cycle.withdraw_time)
        src_hi, src_lo = table.src_hi[inside], table.src_lo[inside]
        # one (source, cycle) pair per source: its first arrival
        firsts = first_arrivals(src_hi, src_lo, table.time[inside])
        hi, lo = distinct_rows(src_hi, src_lo)
        his.append(hi)
        los.append(lo)
        delays.append(firsts - cycle.announce_time)
    if not his:
        return set()
    hi, lo = np.concatenate(his), np.concatenate(los)
    delay = np.concatenate(delays)
    order = np.lexsort((lo, hi))
    hi, lo, delay = hi[order], lo[order], delay[order]
    starts = np.flatnonzero(row_changes(hi, lo))
    cycles_seen = np.diff(starts, append=len(hi))
    slowest = np.maximum.reduceat(delay, starts) if len(starts) \
        else delay[:0]
    monitors = (cycles_seen >= 2) & (slowest <= within)
    return set(join_halves(hi[starts][monitors], lo[starts][monitors]))


def new_source_prefixes_per_day(tables: Sequence[PacketTable],
                                start: float, end: float,
                                prefix_shift: int = 80) -> list[int]:
    """Daily count of newly seen source /48 prefixes (Fig. 3 series).

    A prefix (the source address shifted right by ``prefix_shift``
    bits) counts on the day of its first packet inside ``[start, end)``.
    """
    if end <= start:
        raise AnalysisError("empty observation window")
    days = int((end - start) / DAY) + 1
    series = [0] * days
    if not tables:
        return series
    time = np.concatenate([t.time for t in tables])
    inside = (time >= start) & (time < end)
    src_hi = np.concatenate([t.src_hi for t in tables])[inside]
    src_lo = np.concatenate([t.src_lo for t in tables])[inside]
    time = time[inside]
    if prefix_shift >= 64:
        key_hi = np.zeros_like(src_hi)
        key_lo = src_hi >> np.uint64(prefix_shift - 64)
    elif prefix_shift:
        key_hi = src_hi >> np.uint64(prefix_shift)
        key_lo = (src_lo >> np.uint64(prefix_shift)) \
            | (src_hi << np.uint64(64 - prefix_shift))
    else:
        key_hi, key_lo = src_hi, src_lo
    for t in first_arrivals(key_hi, key_lo, time).tolist():
        series[int((t - start) / DAY)] += 1
    return series
