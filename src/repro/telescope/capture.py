"""Packet capture store and filters.

Mirrors a pcap pipeline: packets are appended as they arrive, an optional
:class:`CaptureFilter` drops out-of-scope traffic (T2 excludes its
productive /56), and :meth:`PacketCapture.packets` returns an arrival-time
sorted view for analysis.

Two append paths feed a capture:

- :meth:`PacketCapture.record` stores one ``Packet`` object (the legacy
  emission oracle, responders, and low-volume emitters like the TGA);
- :meth:`PacketCapture.append_batch` appends whole NumPy column batches
  from the batched session kernel into a
  :class:`repro.core.columnar.PacketTableBuilder` — no ``Packet`` objects
  exist on this path until an analysis materializes them.

:meth:`table` merges both stores into one time-sorted columnar view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from repro import obs
from repro.net.lpm import contains_mask
from repro.net.prefix import Prefix
from repro.telescope.packet import Packet


@dataclass
class CaptureFilter:
    """Declarative packet filter.

    Attributes:
        exclude_dst_prefixes: packets *to* these prefixes are dropped
            (T2's productive /56, §3.1).
        exclude_src_prefixes: packets *from* these prefixes are dropped
            (traffic originated by the productive subnet itself).
    """

    exclude_dst_prefixes: tuple[Prefix, ...] = ()
    exclude_src_prefixes: tuple[Prefix, ...] = ()

    def accepts(self, packet: Packet) -> bool:
        for prefix in self.exclude_dst_prefixes:
            if prefix.contains_address(packet.dst):
                return False
        for prefix in self.exclude_src_prefixes:
            if prefix.contains_address(packet.src):
                return False
        return True

    def accept_mask(self, src_hi: np.ndarray, src_lo: np.ndarray,
                    dst_hi: np.ndarray, dst_lo: np.ndarray) \
            -> np.ndarray | None:
        """Vectorized :meth:`accepts` over columns; ``None`` = keep all."""
        if not self.exclude_dst_prefixes and not self.exclude_src_prefixes:
            return None
        drop = np.zeros(len(dst_hi), dtype=bool)
        for prefix in self.exclude_dst_prefixes:
            drop |= contains_mask(prefix, dst_hi, dst_lo)
        for prefix in self.exclude_src_prefixes:
            drop |= contains_mask(prefix, src_hi, src_lo)
        return ~drop


@dataclass
class PacketCapture:
    """Append-only packet store with basic counters."""

    name: str = ""
    capture_filter: CaptureFilter | None = None
    #: fault-injected outage windows [start, end): arrivals inside are
    #: dropped (start inclusive, end exclusive) on *both* append paths,
    #: counted once in :attr:`blackout_dropped` and the shared
    #: ``telescope.blackout_dropped_total`` counter.
    blackout_windows: tuple[tuple[float, float], ...] = ()
    _packets: list[Packet] = field(default_factory=list)
    _sorted: bool = field(default=True)
    _builder: object = field(default=None, repr=False)
    _table: object = field(default=None, repr=False)
    dropped: int = 0
    blackout_dropped: int = 0
    # bound metrics, cached per recorder so the per-packet cost while
    # recording is one identity check + one counter increment
    _obs_counter: object = field(default=None, repr=False, compare=False)
    _obs_owner: object = field(default=None, repr=False, compare=False)

    def _in_blackout(self, t: float) -> bool:
        for start, end in self.blackout_windows:
            if start <= t < end:
                return True
        return False

    def _blackout_keep_mask(self, time: np.ndarray) -> np.ndarray | None:
        """Vectorized :meth:`_in_blackout` over a time column (None=all)."""
        if not self.blackout_windows:
            return None
        drop = np.zeros(len(time), dtype=bool)
        for start, end in self.blackout_windows:
            drop |= (time >= start) & (time < end)
        return ~drop

    def _count_blackout_drops(self, n: int) -> None:
        """The single shared accounting path for blackout drops.

        Both :meth:`record` and :meth:`append_batch` come through here,
        so a dropped packet is counted exactly once regardless of the
        append path that carried it.
        """
        self.blackout_dropped += n
        obs.add("telescope.blackout_dropped_total", n,
                telescope=self.name or "unnamed")

    def record(self, packet: Packet) -> bool:
        """Store ``packet`` unless a blackout or the filter rejects it.

        Returns True if the packet was stored.
        """
        if self.blackout_windows and self._in_blackout(packet.time):
            self._count_blackout_drops(1)
            return False
        if self.capture_filter is not None \
                and not self.capture_filter.accepts(packet):
            self.dropped += 1
            obs.add("telescope.packets_dropped_total",
                    telescope=self.name or "unnamed")
            return False
        if self._packets and packet.time < self._packets[-1].time:
            self._sorted = False
        self._packets.append(packet)
        self._table = None
        self._bound_counter()
        return True

    def append_batch(self, time, src_hi, src_lo, dst_hi, dst_lo, protocol,
                     dst_port, src_asn, scanner_id,
                     payload_id: np.ndarray | None = None,
                     payloads: list[bytes] | None = None) -> int:
        """Append one column batch; returns the number of rows stored."""
        n = len(time)
        if n == 0:
            return 0
        if self.blackout_windows:
            keep = self._blackout_keep_mask(time)
            kept = int(np.count_nonzero(keep))
            if kept < n:
                self._count_blackout_drops(n - kept)
                if kept == 0:
                    return 0
                time = time[keep]
                src_hi, src_lo = src_hi[keep], src_lo[keep]
                dst_hi, dst_lo = dst_hi[keep], dst_lo[keep]
                protocol, dst_port = protocol[keep], dst_port[keep]
                src_asn, scanner_id = src_asn[keep], scanner_id[keep]
                if payload_id is not None:
                    payload_id = payload_id[keep]
                n = kept
        if self.capture_filter is not None:
            keep = self.capture_filter.accept_mask(src_hi, src_lo,
                                                   dst_hi, dst_lo)
            if keep is not None:
                kept = int(np.count_nonzero(keep))
                if kept < n:
                    self.dropped += n - kept
                    obs.add("telescope.packets_dropped_total", n - kept,
                            telescope=self.name or "unnamed")
                    if kept == 0:
                        return 0
                    time = time[keep]
                    src_hi, src_lo = src_hi[keep], src_lo[keep]
                    dst_hi, dst_lo = dst_hi[keep], dst_lo[keep]
                    protocol, dst_port = protocol[keep], dst_port[keep]
                    src_asn, scanner_id = src_asn[keep], scanner_id[keep]
                    if payload_id is not None:
                        payload_id = payload_id[keep]
                    n = kept
        if self._builder is None:
            from repro.core.columnar import PacketTableBuilder
            self._builder = PacketTableBuilder()
        self._builder.append(time, src_hi, src_lo, dst_hi, dst_lo, protocol,
                             dst_port, src_asn, scanner_id,
                             payload_id=payload_id, payloads=payloads)
        self._table = None
        counter = self._bound_counter()
        if counter is not None:
            counter.inc(n - 1)  # _bound_counter already added one
        return n

    def _bound_counter(self):
        recorder = obs.current()
        if recorder is None:
            return None
        if self._obs_owner is not recorder:
            self._obs_counter = recorder.metrics.counter(
                "telescope.packets_total",
                telescope=self.name or "unnamed")
            self._obs_owner = recorder
        self._obs_counter.inc()
        return self._obs_counter

    def extend(self, packets: Iterable[Packet]) -> int:
        """Record many packets; returns the number stored."""
        stored = 0
        for packet in packets:
            if self.record(packet):
                stored += 1
        return stored

    def __len__(self) -> int:
        n = len(self._packets)
        if self._builder is not None:
            n += len(self._builder)
        return n

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets())

    def packets(self) -> list[Packet]:
        """Arrival-time sorted view of all stored packets.

        On the object path this is the capture's own list; once column
        batches exist the merged table materializes (and caches) the
        ``Packet`` objects.
        """
        if self._builder is None or not len(self._builder):
            if not self._sorted:
                self._packets.sort(key=lambda p: p.time)
                self._sorted = True
            return self._packets
        return self.table().to_packets()

    def table(self):
        """Columnar (structure-of-arrays) view of the sorted capture.

        Cached until the next append. When only ``Packet`` objects were
        recorded it shares them, so analyses materializing rows get
        identical instances; once batches exist the two stores are merged
        and stably re-sorted by arrival time.
        """
        if self._table is None:
            # deferred: repro.core pulls in telescope.packet at import time
            from repro.core.columnar import PacketTable, concat_tables
            if self._builder is None or not len(self._builder):
                self._table = PacketTable.from_packets(self.packets())
            else:
                parts = [self._builder.snapshot()]
                if self._packets:
                    parts.append(PacketTable.from_packets(self._packets))
                self._table = concat_tables(parts).time_sorted()
        return self._table

    def filtered(self, predicate: Callable[[Packet], bool]) -> list[Packet]:
        return [p for p in self.packets() if predicate(p)]

    def between(self, start: float, end: float) -> list[Packet]:
        """Packets with ``start <= time < end`` (binary-search bounded)."""
        data = self.packets()
        lo = _bisect_time(data, start)
        hi = _bisect_time(data, end)
        return data[lo:hi]

    def sources(self) -> set[int]:
        if self._builder is not None and len(self._builder):
            return self.table().unique_source_addresses()
        return {p.src for p in self._packets}

    def destinations(self) -> set[int]:
        if self._builder is not None and len(self._builder):
            table = self.table()
            pairs = np.unique(
                np.stack((table.dst_hi, table.dst_lo), axis=1), axis=0)
            return {(int(hi) << 64) | int(lo) for hi, lo in pairs.tolist()}
        return {p.dst for p in self._packets}


def _bisect_time(packets: list[Packet], t: float) -> int:
    lo, hi = 0, len(packets)
    while lo < hi:
        mid = (lo + hi) // 2
        if packets[mid].time < t:
            lo = mid + 1
        else:
            hi = mid
    return lo
