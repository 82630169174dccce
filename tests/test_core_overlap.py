"""Tests for repro.core.overlap."""

import pytest

from repro.core.columnar import PacketTable
from repro.core.overlap import (day_overlap, sources_everywhere, upset)
from repro.errors import AnalysisError
from repro.sim.clock import DAY
from repro.telescope.packet import ICMPV6, Packet


def packet(time: float, src: int) -> Packet:
    return Packet(time=time, src=src, dst=2, protocol=ICMPV6)


def table(*packets: Packet) -> PacketTable:
    return PacketTable.from_packets(list(packets))


class TestUpset:
    def test_exclusive_intersections(self):
        sets = {"A": {1, 2, 3}, "B": {3, 4}, "C": {5}}
        data = upset(sets)
        assert data.exclusive("A") == 2          # 1, 2
        assert data.exclusive("A", "B") == 1     # 3
        assert data.exclusive("C") == 1          # 5
        assert data.exclusive("B", "C") == 0

    def test_set_sizes_non_exclusive(self):
        data = upset({"A": {1, 2}, "B": {2}})
        assert data.set_sizes == {"A": 2, "B": 1}

    def test_counts_partition_universe(self):
        sets = {"A": {1, 2, 3, 4}, "B": {3, 4, 5}, "C": {4, 5, 6}}
        data = upset(sets)
        universe = set().union(*sets.values())
        assert sum(data.intersections.values()) == len(universe)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            upset({})


class TestSourcesEverywhere:
    def test_intersection(self):
        sets = {"A": {1, 2}, "B": {1, 3}, "C": {1}}
        assert sources_everywhere(sets) == {1}

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            sources_everywhere({})


class TestDayOverlap:
    def test_same_day(self):
        a = table(packet(0.5 * DAY, src=1))
        b = table(packet(0.7 * DAY, src=1))
        overlap, = day_overlap(a, b)
        assert overlap.same_day == 1
        assert overlap.different_day == 0
        assert overlap.same_day_share == 1.0

    def test_different_day(self):
        a = table(packet(0.5 * DAY, src=1))
        b = table(packet(1.5 * DAY, src=1))
        overlap, = day_overlap(a, b)
        assert overlap.same_day == 0
        assert overlap.different_day == 1

    def test_non_overlapping_sources_ignored(self):
        a = table(packet(0.0, src=1))
        b = table(packet(0.0, src=2))
        overlap, = day_overlap(a, b)
        assert overlap.total == 0
        assert overlap.same_day_share == 0.0

    def test_until_cutoff(self):
        a = table(packet(0.5 * DAY, src=1), packet(5 * DAY, src=2))
        b = table(packet(0.6 * DAY, src=1), packet(5.1 * DAY, src=2))
        overlap, = day_overlap(a, b, [2 * DAY])
        assert overlap.total == 1

    def test_series_matches_each_cutoff(self):
        """One pass per capture gives every cutoff's overlap, the common
        day counting only once both of its first packets precede it."""
        a = [packet(0.5 * DAY, src=1), packet(3.2 * DAY, src=1),
             packet(2.5 * DAY, src=2), packet(2.1 * DAY, src=3),
             packet(9.0 * DAY, src=1 << 64)]
        b = [packet(3.1 * DAY, src=1), packet(2.9 * DAY, src=2),
             packet(4.0 * DAY, src=3), packet(9.5 * DAY, src=1 << 64)]
        cutoffs = [DAY, 2.6 * DAY, 3.0 * DAY, 3.15 * DAY, 3.3 * DAY,
                   10 * DAY]
        series = day_overlap(table(*a), table(*b), cutoffs)
        assert [(o.same_day, o.different_day) for o in series] == [
            (0, 0), (0, 0), (1, 0), (1, 1), (2, 0), (3, 1)]
        assert [(o.same_day, o.different_day) for o in series] \
            == [reference_overlap(a, b, c) for c in cutoffs]


def reference_overlap(packets_a, packets_b, until):
    """The per-packet implementation the column kernel replaced."""
    def days_per_source(packets):
        days = {}
        for p in packets:
            if p.time < until:
                days.setdefault(p.src, set()).add(int(p.time // DAY))
        return days

    days_a, days_b = days_per_source(packets_a), days_per_source(packets_b)
    shared = set(days_a) & set(days_b)
    same = sum(1 for src in shared if days_a[src] & days_b[src])
    return same, len(shared) - same
