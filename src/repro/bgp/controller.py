"""The bi-weekly asymmetric prefix-split announcement schedule (Fig. 2).

T1 starts as a single /32. After a 12-week baseline, every two weeks the
controller (i) withdraws everything for one day, then (ii) announces a new
set formed by splitting one previously announced prefix into its two
more-specifics and keeping all other prefixes. The covering prefix of the
split pair is dropped, so the announced count grows by one per cycle until
17 prefixes are reachable and the most-specific is a /48.

Split rule (paper §3.1): among the most-specific announced prefixes, split
the one that does *not* contain the low-byte address of the covering /32
("if possible"), preferring the highest network so new low-byte addresses
never byte-wise match previously announced ones. Starting from a /32 this
yields the asymmetric ladder /33, /34, ..., /47, 2×/48.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro import obs
from repro.bgp.speaker import BGPSpeaker
from repro.errors import ExperimentError
from repro.net.prefix import Prefix
from repro.sim.clock import DAY, WEEK
from repro.sim.events import Simulator


@dataclass(frozen=True, slots=True)
class AnnouncementCycle:
    """One announcement period of the experiment.

    Attributes:
        index: 0 = the initial baseline announcement, 1.. = split cycles.
        announce_time: when the set is announced.
        withdraw_time: when the whole set is withdrawn (one silent day
            precedes the next cycle's announcement).
        prefixes: the announced set, sorted.
        new_prefixes: the pair (or single, for cycle 0) first announced in
            this cycle.
    """

    index: int
    announce_time: float
    withdraw_time: float
    prefixes: tuple[Prefix, ...]
    new_prefixes: tuple[Prefix, ...]


def choose_split_target(prefixes: set[Prefix], low_byte_addr: int) -> Prefix:
    """Pick the prefix to split next per the paper's rule.

    Most-specific first; among equals prefer prefixes *not* containing the
    covering prefix's low-byte address, then the highest network (fresh
    low-byte addresses).
    """
    if not prefixes:
        raise ExperimentError("cannot split an empty announcement set")
    max_len = max(p.length for p in prefixes)
    candidates = [p for p in prefixes if p.length == max_len]
    avoiding = [p for p in candidates
                if not p.contains_address(low_byte_addr)]
    pool = avoiding or candidates
    return max(pool, key=lambda p: p.network)


def build_split_schedule(origin_prefix: Prefix,
                         baseline_weeks: int = 12,
                         cycle_weeks: int = 2,
                         num_cycles: int = 16,
                         gap_days: int = 1,
                         start_time: float = 0.0) -> list[AnnouncementCycle]:
    """Compute the full announcement plan.

    With the defaults this reproduces the paper's schedule: 12 baseline
    weeks with the /32, then 16 bi-weekly split cycles ending with 17
    announced prefixes, the most-specific a /48.
    """
    if num_cycles < 0 or baseline_weeks <= 0 or cycle_weeks <= 0:
        raise ExperimentError("invalid schedule parameters")
    if gap_days * DAY >= cycle_weeks * WEEK:
        raise ExperimentError("withdrawal gap longer than the cycle itself")
    low_byte = origin_prefix.low_byte_address
    cycles: list[AnnouncementCycle] = []
    current: set[Prefix] = {origin_prefix}
    announce_at = start_time
    period = baseline_weeks * WEEK
    for index in range(num_cycles + 1):
        withdraw_at = announce_at + period - gap_days * DAY
        if index == 0:
            new: tuple[Prefix, ...] = (origin_prefix,)
        else:
            target = choose_split_target(current, low_byte)
            low, high = target.split()
            current.discard(target)
            current.add(low)
            current.add(high)
            new = (low, high)
        cycles.append(AnnouncementCycle(
            index=index,
            announce_time=announce_at,
            withdraw_time=withdraw_at,
            prefixes=tuple(sorted(current)),
            new_prefixes=new,
        ))
        announce_at += period
        period = cycle_weeks * WEEK
    return cycles


@dataclass
class SplitController:
    """Drives a speaker through a precomputed announcement schedule.

    The controller schedules announce/withdraw events on the simulator;
    analyses use :meth:`cycle_at` to bucket packets into announcement
    periods.
    """

    speaker: BGPSpeaker
    simulator: Simulator
    schedule: list[AnnouncementCycle]
    on_announce: Callable[[AnnouncementCycle], None] | None = None

    def start(self) -> None:
        """Arm all announce/withdraw events of the schedule."""
        if not self.schedule:
            raise ExperimentError("empty announcement schedule")
        for cycle in self.schedule:
            self.simulator.schedule_at(
                cycle.announce_time,
                partial(self._announce, cycle),
                label=f"split:announce:{cycle.index}",
            )
            self.simulator.schedule_at(
                cycle.withdraw_time,
                partial(self._withdraw, cycle),
                label=f"split:withdraw:{cycle.index}",
            )

    def _announce(self, cycle: AnnouncementCycle) -> None:
        for prefix in cycle.prefixes:
            self.speaker.originate(prefix)
        obs.add("bgp.announcements_total", len(cycle.prefixes))
        obs.add("bgp.announce_cycles_total")
        if self.on_announce is not None:
            self.on_announce(cycle)

    def _withdraw(self, cycle: AnnouncementCycle) -> None:
        for prefix in cycle.prefixes:
            self.speaker.withdraw_origin(prefix)
        obs.add("bgp.withdrawals_total", len(cycle.prefixes))

    def cycle_at(self, time: float) -> AnnouncementCycle | None:
        """The cycle whose announcement window contains ``time``.

        Returns ``None`` during the one-day withdrawal gaps and outside the
        experiment.
        """
        for cycle in self.schedule:
            if cycle.announce_time <= time < cycle.withdraw_time:
                return cycle
        return None

    def announced_prefixes_at(self, time: float) -> tuple[Prefix, ...]:
        cycle = self.cycle_at(time)
        return cycle.prefixes if cycle is not None else ()
