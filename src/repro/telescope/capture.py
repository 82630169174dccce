"""Packet capture store and filters.

Mirrors a pcap pipeline: packet batches are appended as they arrive, an
optional :class:`CaptureFilter` drops out-of-scope traffic (T2 excludes
its productive /56), and :meth:`PacketCapture.table` returns the
arrival-time sorted capture for analysis. Batches land as NumPy columns
in a :class:`repro.core.columnar.PacketTableBuilder`; no ``Packet``
object exists on this path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.net.lpm import contains_mask
from repro.net.prefix import Prefix


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

    def accept_mask(self, src_hi: np.ndarray, src_lo: np.ndarray,
                    dst_hi: np.ndarray, dst_lo: np.ndarray) \
            -> np.ndarray | None:
        """Mask of the rows the filter keeps; ``None`` = keep all."""
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
    """Append-only columnar packet store with basic counters."""

    name: str = ""
    capture_filter: CaptureFilter | None = None
    #: fault-injected outage windows [start, end): arrivals inside are
    #: dropped (start inclusive, end exclusive), counted in
    #: :attr:`blackout_dropped` and the shared
    #: ``telescope.blackout_dropped_total`` counter.
    blackout_windows: tuple[tuple[float, float], ...] = ()
    _builder: object = field(default=None, repr=False)
    _table: object = field(default=None, repr=False)
    dropped: int = 0
    blackout_dropped: int = 0
    # bound metrics, cached per recorder so the per-batch cost while
    # recording is one identity check + one counter increment
    _obs_counter: object = field(default=None, repr=False, compare=False)
    _obs_owner: object = field(default=None, repr=False, compare=False)

    def _blackout_keep_mask(self, time: np.ndarray) -> np.ndarray | None:
        """Mask of the arrivals outside every blackout (None = all)."""
        if not self.blackout_windows:
            return None
        drop = np.zeros(len(time), dtype=bool)
        for start, end in self.blackout_windows:
            drop |= (time >= start) & (time < end)
        return ~drop

    def _count_blackout_drops(self, n: int) -> None:
        self.blackout_dropped += n
        obs.add("telescope.blackout_dropped_total", n,
                telescope=self.name or "unnamed")

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
            counter.inc(n)
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
        return self._obs_counter

    def __len__(self) -> int:
        return len(self._builder) if self._builder is not None else 0

    def table(self):
        """Columnar (structure-of-arrays) view of the capture, stably
        sorted by arrival time; cached until the next append."""
        if self._table is None:
            # deferred: repro.core pulls in telescope.packet at import time
            from repro.core.columnar import PacketTable
            self._table = self._builder.snapshot().time_sorted() \
                if self._builder is not None else PacketTable.empty()
        return self._table
