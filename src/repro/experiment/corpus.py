"""The packet corpus: everything an analysis needs from one run.

The corpus exposes the captured packets per telescope together with the
lookup services the paper's pipeline uses (IP-to-AS, RDNS, announcement
schedule) — but *not* the generative ground truth, which lives separately
in :class:`repro.experiment.driver.ExperimentResult` for validation tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.controller import AnnouncementCycle
from repro.core.columnar import ChunkedPacketTable, PacketTable, TableChunk
from repro.dns.resolver import Resolver
from repro.errors import AnalysisError
from repro.experiment.config import ExperimentConfig
from repro.experiment.phases import Phase, phase_bounds
from repro.net.prefix import Prefix
from repro.scanners.registry import ASRegistry
from repro.telescope.packet import Packet

TELESCOPE_NAMES = ("T1", "T2", "T3", "T4")


def merge_chunked_shards(
        segments: dict[str, list[ChunkedPacketTable]],
) -> dict[str, ChunkedPacketTable]:
    """Window-at-a-time merge of lazily loaded per-shard chunk segments.

    Reconstructs the exact unsharded byte layout. The batched emission
    path flushes scanners in canonical ``scanner_id`` order (see
    :meth:`repro.scanners.base.ScannerContext.flush_batches`) and an
    unsharded capture snapshots its rows through a stable time sort, so
    the rows are ordered by time, then ``scanner_id``, then each
    scanner's own emission order. Each worker segment holds the
    identical row groups for its own (disjoint) scanners, so a stable
    ``(time, scanner_id)`` lexsort of the concatenated segments
    reproduces that order for any shard count and any partitioning
    (DESIGN §8).

    The merge never holds two full copies of a telescope's table: the
    timeline is cut at every shard chunk's ``t_min`` and sorted one
    window at a time. A stable sort whose primary key (time) partitions
    cleanly across windows equals the concatenation of the per-window
    stable sorts, as long as each window sees its rows in the same
    relative order — which pushdown slicing guarantees, since it
    preserves within-shard order and the shards are concatenated in
    shard order. Peak memory is one telescope plus one window, not two
    telescopes. Telescopes missing from ``segments`` come back empty.
    """
    import numpy as np

    from repro.core.columnar import concat_tables
    merged: dict[str, ChunkedPacketTable] = {}
    for name in TELESCOPE_NAMES:
        shard_tables = segments.get(name, [])
        cuts = sorted({chunk.t_min for table in shard_tables
                       for chunk in table.chunks if chunk.rows})
        chunks: list[TableChunk] = []
        for index, start in enumerate(cuts):
            end = cuts[index + 1] if index + 1 < len(cuts) else np.inf
            parts = [table.slice_time(start, end) for table in shard_tables]
            window = concat_tables([p for p in parts if len(p)])
            if not len(window):
                continue
            order = np.lexsort((window.scanner_id, window.time))
            window = window.take(order)
            window._time_sorted = True
            chunks.append(TableChunk.from_table(window))
        merged[name] = ChunkedPacketTable(chunks)
    return merged


@dataclass
class PacketCorpus:
    """Captured packets plus metadata lookups.

    Packets are held both as object lists (``packets_by_telescope``) and
    as columnar :class:`PacketTable` views (``tables_by_telescope``); a
    corpus may be constructed from either representation and the other is
    materialized lazily on first access.
    """

    config: ExperimentConfig
    packets_by_telescope: dict[str, list[Packet]] | None
    schedule: list[AnnouncementCycle]
    registry: ASRegistry
    resolver: Resolver
    t1_prefix: Prefix
    t2_prefix: Prefix
    t3_prefix: Prefix
    t4_prefix: Prefix
    attractor_addr: int = 0
    tables_by_telescope: dict[str, PacketTable] = field(default_factory=dict)
    #: per-telescope capture outages as sorted (start, end) windows — from
    #: fault-injected blackouts or segments quarantined on load. Analyses
    #: use :meth:`covered_fraction` to normalize by covered time instead
    #: of assuming the telescope saw the whole run.
    coverage_gaps: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=dict)
    _phase_table_cache: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.packets_by_telescope is None:
            self.packets_by_telescope = {}
        for name in TELESCOPE_NAMES:
            if name not in self.packets_by_telescope \
                    and name not in self.tables_by_telescope:
                raise AnalysisError(f"corpus missing telescope {name}")

    # -- access ------------------------------------------------------------

    def telescopes(self) -> tuple[str, ...]:
        return TELESCOPE_NAMES

    def packets(self, telescope: str) -> list[Packet]:
        packets = self.packets_by_telescope.get(telescope)
        if packets is not None:
            return packets
        table = self.tables_by_telescope.get(telescope)
        if table is None:
            raise AnalysisError(f"unknown telescope {telescope!r}")
        packets = table.to_packets()
        self.packets_by_telescope[telescope] = packets
        return packets

    def table(self, telescope: str) -> PacketTable:
        """Columnar view of a telescope's capture (built on first use)."""
        table = self.tables_by_telescope.get(telescope)
        if table is None:
            table = PacketTable.from_packets(self.packets(telescope))
            self.tables_by_telescope[telescope] = table
        return table

    def total_packets(self) -> int:
        total = 0
        for name in TELESCOPE_NAMES:
            packets = self.packets_by_telescope.get(name)
            if packets is not None:
                total += len(packets)
            else:
                total += len(self.tables_by_telescope[name])
        return total

    def phase_table(self, telescope: str, phase: Phase) -> PacketTable:
        """Columnar phase slice: a ``searchsorted`` on the sorted table."""
        key = (telescope, phase)
        cached = self._phase_table_cache.get(key)
        if cached is None:
            table = self.table(telescope).time_sorted()
            if phase is Phase.FULL:
                cached = table
            else:
                start, end = phase_bounds(self.config, phase)
                cached = table.slice_time(start, end)
            self._phase_table_cache[key] = cached
        return cached

    # -- coverage -----------------------------------------------------------

    def has_gaps(self) -> bool:
        return any(self.coverage_gaps.values())

    def gap_seconds(self, telescope: str, start: float = 0.0,
                    end: float | None = None) -> float:
        """Seconds of [start, end) the telescope's capture was down."""
        if end is None:
            end = self.config.duration
        total = 0.0
        for gap_start, gap_end in self.coverage_gaps.get(telescope, ()):
            total += max(0.0, min(end, gap_end) - max(start, gap_start))
        return total

    def covered_fraction(self, telescope: str, start: float = 0.0,
                         end: float | None = None) -> float:
        """Fraction of [start, end) the telescope was actually capturing.

        1.0 for a gap-free capture; 0.0 when the whole interval (or an
        empty interval) fell inside outages.
        """
        if end is None:
            end = self.config.duration
        span = end - start
        if span <= 0:
            return 0.0
        return max(0.0, 1.0 - self.gap_seconds(telescope, start, end) / span)

    # -- schedule helpers ------------------------------------------------------

    def cycle_at(self, time: float) -> AnnouncementCycle | None:
        for cycle in self.schedule:
            if cycle.announce_time <= time < cycle.withdraw_time:
                return cycle
        return None

    def split_cycles(self) -> list[AnnouncementCycle]:
        return [c for c in self.schedule if c.index > 0]

    # -- source metadata -----------------------------------------------------------

    def rdns(self, src: int) -> str | None:
        """Reverse-DNS lookup for a source address."""
        return self.resolver.reverse(src)

    def rdns_batch(self, sources) -> dict[int, str]:
        """Reverse-DNS for many source addresses in one resolver pass.

        Returns only the addresses that resolve — exactly the entries
        ``{src: rdns(src) for src in sources if rdns(src)}`` would
        produce, without a Python zone scan per address.
        """
        return self.resolver.reverse_batch(sources)
