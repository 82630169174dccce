"""Tests for repro.core.netclass."""

import pytest

from repro.bgp.controller import build_split_schedule
from repro.core.columnar import PacketTable, sessionize_table
from repro.core.netclass import (NetworkClass, classify_all, classify_cycle,
                                 classify_scanner, sessions_per_prefix)
from repro.errors import ClassificationError
from repro.net.prefix import Prefix
from repro.telescope.packet import ICMPV6, Packet

T1 = Prefix.parse("3fff:1000::/32")
SCHEDULE = build_split_schedule(T1, baseline_weeks=2, num_cycles=4)


def session(start: float, targets: list[int], src: int = 1) -> list[Packet]:
    """One session's packets, a second apart from ``start``."""
    return [Packet(time=start + i, src=src, dst=t, protocol=ICMPV6)
            for i, t in enumerate(targets)]


def session_set(sessions: list[list[Packet]]):
    return sessionize_table(PacketTable.from_packets(
        sorted((p for packets in sessions for p in packets),
               key=lambda p: p.time)), telescope="T1")


class TestSessionsPerPrefix:
    def test_counts_most_specific(self):
        cycle = SCHEDULE[2]  # three prefixes
        target = cycle.prefixes[-1].low_byte_address
        s = session(cycle.announce_time + 10, [target])
        counts = sessions_per_prefix(session_set([s]), cycle)[0]
        touched = [p for p, c in zip(cycle.prefixes, counts) if c]
        assert touched == [cycle.prefixes[-1]]

    def test_outside_cycle_ignored(self):
        cycle = SCHEDULE[2]
        s = session(cycle.withdraw_time + 10,
                    [cycle.prefixes[0].low_byte_address])
        assert sessions_per_prefix(session_set([s]), cycle).sum() == 0

    def test_multi_prefix_session_counts_each(self):
        cycle = SCHEDULE[2]
        targets = [p.low_byte_address for p in cycle.prefixes]
        counts = sessions_per_prefix(
            session_set([session(cycle.announce_time, targets)]), cycle)
        assert counts.tolist() == [[1] * len(cycle.prefixes)]


class TestClassifyCycle:
    def test_inactive_returns_none(self):
        cycle = SCHEDULE[2]
        counts = {p: 0 for p in cycle.prefixes}
        assert classify_cycle(counts) is None

    def test_single_prefix(self):
        cycle = SCHEDULE[2]
        counts = {p: 0 for p in cycle.prefixes}
        counts[cycle.prefixes[0]] = 5
        assert classify_cycle(counts) is NetworkClass.SINGLE_PREFIX

    def test_size_independent(self):
        cycle = SCHEDULE[4]  # five prefixes of very different sizes
        counts = {p: 10 for p in cycle.prefixes}
        assert classify_cycle(counts) is NetworkClass.SIZE_INDEPENDENT

    def test_size_independent_with_noise(self):
        cycle = SCHEDULE[4]
        counts = {p: 10 + (i % 2) for i, p in enumerate(cycle.prefixes)}
        assert classify_cycle(counts) is NetworkClass.SIZE_INDEPENDENT

    def test_size_dependent(self):
        cycle = SCHEDULE[4]
        counts = {p: max(1, 2 ** (40 - p.length)) for p in cycle.prefixes}
        assert classify_cycle(counts) is NetworkClass.SIZE_DEPENDENT

    def test_erratic_is_inconsistent(self):
        cycle = SCHEDULE[4]
        prefixes = sorted(cycle.prefixes)
        counts = {p: 0 for p in prefixes}
        counts[prefixes[-1]] = 50   # most specific gets the most
        counts[prefixes[0]] = 1
        counts[prefixes[1]] = 49
        assert classify_cycle(counts) in (NetworkClass.INCONSISTENT,
                                          NetworkClass.SIZE_DEPENDENT)


class TestClassifyScanner:
    def _sessions_for_cycles(self, per_cycle_targets):
        sessions = []
        for cycle, target_lists in per_cycle_targets.items():
            for i, targets in enumerate(target_lists):
                sessions.append(session(cycle.announce_time + i * 7200,
                                        targets))
        return session_set(sessions)

    def test_consistent_single_prefix(self):
        per_cycle = {}
        for cycle in SCHEDULE[1:3]:
            per_cycle[cycle] = [[cycle.prefixes[0].low_byte_address]]
        sessions = self._sessions_for_cycles(per_cycle)
        assert classify_all(sessions, list(SCHEDULE))[1] \
            is NetworkClass.SINGLE_PREFIX

    def test_consistent_independent(self):
        per_cycle = {}
        for cycle in SCHEDULE[1:4]:
            all_targets = [p.low_byte_address for p in cycle.prefixes]
            per_cycle[cycle] = [all_targets, all_targets]
        sessions = self._sessions_for_cycles(per_cycle)
        assert classify_all(sessions, list(SCHEDULE))[1] \
            is NetworkClass.SIZE_INDEPENDENT

    def test_mixed_is_inconsistent(self):
        cycle_a, cycle_b = SCHEDULE[1], SCHEDULE[2]
        per_cycle = {
            cycle_a: [[cycle_a.prefixes[0].low_byte_address]],
            cycle_b: [[p.low_byte_address for p in cycle_b.prefixes],
                      [p.low_byte_address for p in cycle_b.prefixes]],
        }
        sessions = self._sessions_for_cycles(per_cycle)
        assert classify_all(sessions, list(SCHEDULE))[1] \
            is NetworkClass.INCONSISTENT

    def test_no_sessions_rejected(self):
        with pytest.raises(ClassificationError):
            classify_scanner([])
        with pytest.raises(ClassificationError):
            classify_scanner([None, None])

    def test_majority_of_active_cycles(self):
        single, independent = (NetworkClass.SINGLE_PREFIX,
                               NetworkClass.SIZE_INDEPENDENT)
        assert classify_scanner([single] * 7 + [independent] * 3 + [None]) \
            is single
        assert classify_scanner([single] * 6 + [independent] * 4) \
            is NetworkClass.INCONSISTENT

    def test_classify_all_per_source(self):
        """Each source of a set gets its own class; sources active in no
        split cycle are left out."""
        sessions = []
        for cycle in SCHEDULE[1:3]:
            sessions.append(session(cycle.announce_time,
                                    [cycle.prefixes[0].low_byte_address],
                                    src=7))
            sessions.append(session(
                cycle.announce_time + 100,
                [p.low_byte_address for p in cycle.prefixes], src=9))
        sessions.append(session(0.0, [T1.low_byte_address], src=11))
        classes = classify_all(session_set(sessions), list(SCHEDULE))
        assert classes == {7: NetworkClass.SINGLE_PREFIX,
                           9: NetworkClass.SIZE_INDEPENDENT}


class TestPartialCoverage:
    def test_one_silent_prefix_does_not_veto_independence(self):
        """Equal coverage of most prefixes with one unprobed prefix is
        still size-independent (reviewed bug: the zero count forced the
        scanner into the correlation branch)."""
        cycle = SCHEDULE[4]  # five prefixes
        counts = {p: 10 for p in cycle.prefixes}
        silent = sorted(cycle.prefixes)[-1]
        counts[silent] = 0
        assert classify_cycle(counts) is NetworkClass.SIZE_INDEPENDENT
