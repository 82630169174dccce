"""Cross-telescope overlap analysis (§6 Fig. 8, §7.2 Fig. 16).

Computes the UpSet-style exclusive intersections of source sets (ASNs or
/128 sources) across the four telescopes, plus the same-day/different-day
source overlap between the separately announced telescopes T1 and T2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.columnar import PacketTable, row_changes
from repro.errors import AnalysisError
from repro.sim.clock import DAY


@dataclass(frozen=True, slots=True)
class UpSetData:
    """Exclusive-intersection layout of one item universe."""

    #: per-telescope (non-exclusive) set sizes
    set_sizes: dict[str, int]
    #: exclusive combination -> count, keyed by a sorted tuple of names
    intersections: dict[tuple[str, ...], int]

    def exclusive(self, *names: str) -> int:
        """Items seen at exactly the given telescopes."""
        return self.intersections.get(tuple(sorted(names)), 0)


def upset(sets: dict[str, set]) -> UpSetData:
    """Exclusive intersections over named sets (UpSet plot data)."""
    if not sets:
        raise AnalysisError("upset needs at least one set")
    names = sorted(sets)
    intersections: dict[tuple[str, ...], int] = {}
    for r in range(1, len(names) + 1):
        for combo in itertools.combinations(names, r):
            inside = set.intersection(*(sets[n] for n in combo))
            outside = set().union(*(sets[n] for n in names
                                    if n not in combo)) if r < len(names) \
                else set()
            exclusive = inside - outside
            if exclusive:
                intersections[tuple(combo)] = len(exclusive)
    return UpSetData(
        set_sizes={n: len(sets[n]) for n in names},
        intersections=intersections)


def sources_everywhere(sets: dict[str, set]) -> set:
    """Items observed at *every* telescope (§7.2: ten /128 sources)."""
    if not sets:
        raise AnalysisError("need at least one set")
    return set.intersection(*sets.values())


@dataclass(frozen=True, slots=True)
class DayOverlap:
    """Same-day vs different-day overlap between two telescopes (Fig 16b)."""

    same_day: int
    different_day: int

    @property
    def total(self) -> int:
        return self.same_day + self.different_day

    @property
    def same_day_share(self) -> float:
        return self.same_day / self.total if self.total else 0.0


@dataclass(frozen=True, slots=True)
class SourceDays:
    """The distinct (source, day) pairs of one capture, sorted by source
    then day, with each pair's first arrival time and packet count."""

    src_hi: np.ndarray
    src_lo: np.ndarray
    day: np.ndarray
    first_time: np.ndarray
    packets: np.ndarray


def source_days(table: PacketTable) -> SourceDays:
    """Group a capture's packets by source and calendar day.

    Runs of rows from one source on one day collapse first, so the sort
    sees one entry per burst rather than per packet."""
    hi, lo, time = table.src_hi, table.src_lo, table.time
    day = np.floor_divide(time, DAY).astype(np.int64)
    if not len(time):
        return SourceDays(src_hi=hi, src_lo=lo, day=day, first_time=time,
                          packets=day)
    firsts = np.flatnonzero(row_changes(hi, lo, day))
    run_time = np.minimum.reduceat(time, firsts)
    run_packets = np.diff(firsts, append=len(time))
    hi, lo, day = hi[firsts], lo[firsts], day[firsts]
    order = np.lexsort((day, lo, hi))
    hi, lo, day = hi[order], lo[order], day[order]
    starts = np.flatnonzero(row_changes(hi, lo, day))
    return SourceDays(
        src_hi=hi[starts], src_lo=lo[starts], day=day[starts],
        first_time=np.minimum.reduceat(run_time[order], starts),
        packets=np.add.reduceat(run_packets[order], starts))


def _matched(keys_a: tuple, keys_b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Indices (into a, into b) of the keys both distinct key sets hold."""
    n_a = len(keys_a[0])
    merged = [np.concatenate((a, b)) for a, b in zip(keys_a, keys_b)]
    side = np.repeat((0, 1), (n_a, len(keys_b[0])))
    order = np.lexsort((side, *reversed(merged)))
    # each side's keys are distinct: an unchanged key is an (a, b) pair
    pairs = np.flatnonzero(~row_changes(*(c[order] for c in merged))) - 1
    return order[pairs], order[pairs + 1] - n_a


def _per_source(hi: np.ndarray, lo: np.ndarray, values: np.ndarray) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(hi, lo, minimum of ``values``) per source of rows sorted by
    source."""
    starts = np.flatnonzero(row_changes(hi, lo))
    if not len(starts):
        return hi, lo, values
    return hi[starts], lo[starts], np.minimum.reduceat(values, starts)


def day_overlap(table_a: PacketTable, table_b: PacketTable,
                cutoffs: Sequence[float] = (np.inf,)) -> list[DayOverlap]:
    """Overlapping sources between two telescopes, split by day alignment,
    counting only packets before each cutoff: one result per cutoff.

    A source counts as *same-day* if it appeared at both telescopes on at
    least one common calendar day. It is shared by a cutoff once it has
    reached both telescopes, and same-day once both reached it on one
    common day: each is a time per source, so one pass per capture
    serves every cutoff.
    """
    days_a, days_b = source_days(table_a), source_days(table_b)
    first_a = _per_source(days_a.src_hi, days_a.src_lo, days_a.first_time)
    first_b = _per_source(days_b.src_hi, days_b.src_lo, days_b.first_time)
    in_a, in_b = _matched(first_a[:2], first_b[:2])
    shared_at = np.sort(np.maximum(first_a[2][in_a], first_b[2][in_b]))
    in_a, in_b = _matched((days_a.src_hi, days_a.src_lo, days_a.day),
                          (days_b.src_hi, days_b.src_lo, days_b.day))
    same_at = np.sort(_per_source(
        days_a.src_hi[in_a], days_a.src_lo[in_a],
        np.maximum(days_a.first_time[in_a], days_b.first_time[in_b]))[2])
    result = []
    for cutoff in cutoffs:
        shared = int(np.searchsorted(shared_at, cutoff, side="left"))
        same = int(np.searchsorted(same_at, cutoff, side="left"))
        result.append(DayOverlap(same_day=same, different_day=shared - same))
    return result
