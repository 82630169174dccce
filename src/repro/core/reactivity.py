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

from repro.bgp.controller import AnnouncementCycle
from repro.core.sessions import Session
from repro.errors import AnalysisError
from repro.net.prefix import Prefix
from repro.sim.clock import DAY
from repro.telescope.packet import Packet


def most_specific_for(dst: int, cycle: AnnouncementCycle) -> Prefix | None:
    """Most-specific prefix of a cycle covering ``dst``."""
    best: Prefix | None = None
    for prefix in cycle.prefixes:
        if prefix.contains_address(dst):
            if best is None or prefix.length > best.length:
                best = prefix
    return best


def sessions_per_prefix_cumulative(sessions: list[Session],
                                   cycles: list[AnnouncementCycle]) \
        -> dict[Prefix, list[int]]:
    """Per-prefix cumulative session counts per cycle (Fig. 10 series).

    A session counts for the most-specific prefix covering any of its
    targets during the cycle that contains its start.
    """
    per_cycle: dict[Prefix, Counter] = {}
    for cycle in cycles:
        for session in sessions:
            if not (cycle.announce_time <= session.start
                    < cycle.withdraw_time):
                continue
            touched: set[Prefix] = set()
            for dst in session.distinct_targets():
                prefix = most_specific_for(dst, cycle)
                if prefix is not None:
                    touched.add(prefix)
            for prefix in touched:
                per_cycle.setdefault(prefix, Counter())[cycle.index] += 1
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


def split_half_comparison(packets: list[Packet], t1_prefix: Prefix,
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
    stable = split_count = 0
    for p in packets:
        if not start <= p.time < end:
            continue
        if stable_half.contains_address(p.dst):
            stable += 1
        elif split_half.contains_address(p.dst):
            split_count += 1
    return SplitHalfComparison(stable_packets=stable,
                               split_packets=split_count)


@dataclass(frozen=True, slots=True)
class CycleActivity:
    """Sources and sessions of one announcement cycle (Fig. 11 point)."""

    cycle_index: int
    sources: int
    sessions: int


def cycle_activity(sessions: list[Session],
                   cycles: list[AnnouncementCycle]) -> list[CycleActivity]:
    """Per-cycle distinct sources and session counts."""
    result = []
    for cycle in cycles:
        in_cycle = [s for s in sessions
                    if cycle.announce_time <= s.start < cycle.withdraw_time]
        result.append(CycleActivity(
            cycle_index=cycle.index,
            sources=len({s.source for s in in_cycle}),
            sessions=len(in_cycle)))
    return result


def growth_factor(activity: list[CycleActivity],
                  attr: str = "sources") -> float:
    """Average relative growth from the first to the last active cycle.

    Compares the mean of the last quarter of cycles against the first
    active cycle (+2.75 == +275%).
    """
    values = [getattr(a, attr) for a in activity if a.cycle_index > 0]
    values = [v for v in values if v > 0]
    if len(values) < 2:
        raise AnalysisError("not enough active cycles for a growth factor")
    baseline = values[0]
    tail = values[-max(1, len(values) // 4):]
    return sum(tail) / len(tail) / baseline - 1.0


def baseline_split_growth(sessions: list[Session],
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

    def weekly_rate(start: float, end: float) -> float:
        weeks = max((end - start) / (7 * DAY), 1e-9)
        in_window = [s for s in sessions if start <= s.start < end]
        if attr == "sources":
            value = len({s.source for s in in_window})
        else:
            value = len(in_window)
        return value / weeks

    base_rate = weekly_rate(baseline.announce_time, baseline.withdraw_time)
    split_rates = [weekly_rate(c.announce_time, c.withdraw_time)
                   for c in split]
    if base_rate <= 0:
        raise AnalysisError("no baseline activity")
    return sum(split_rates) / len(split_rates) / base_rate - 1.0


def live_monitors(packets: list[Packet], cycles: list[AnnouncementCycle],
                  within: float = 1800.0) -> set[int]:
    """Sources reliably arriving within ``within`` seconds of announcements.

    A source qualifies if its first packet of *every* cycle in which it
    appears lands within the reaction window, and it appears in at least
    two cycles (the paper's "reliably observe" criterion).
    """
    first_arrival: dict[tuple[int, int], float] = {}
    for cycle in cycles:
        if cycle.index == 0:
            continue
        for p in packets:
            if cycle.announce_time <= p.time < cycle.withdraw_time:
                key = (p.src, cycle.index)
                if key not in first_arrival or p.time < first_arrival[key]:
                    first_arrival[key] = p.time
    per_source: dict[int, list[float]] = {}
    announce_at = {c.index: c.announce_time for c in cycles}
    for (src, index), t in first_arrival.items():
        per_source.setdefault(src, []).append(t - announce_at[index])
    return {src for src, delays in per_source.items()
            if len(delays) >= 2 and all(d <= within for d in delays)}


def new_source_prefixes_per_day(packets: list[Packet],
                                start: float, end: float,
                                prefix_shift: int = 80) \
        -> list[int]:
    """Daily count of newly seen source /48 prefixes (Fig. 3 series)."""
    if end <= start:
        raise AnalysisError("empty observation window")
    days = int((end - start) / DAY) + 1
    seen: set[int] = set()
    series = [0] * days
    for p in sorted(packets, key=lambda q: q.time):
        if not start <= p.time < end:
            continue
        key = p.src >> prefix_shift
        if key not in seen:
            seen.add(key)
            series[int((p.time - start) / DAY)] += 1
    return series
