"""Columnar packet engine: structure-of-arrays storage + vectorized paths.

The object pipeline walks one Python :class:`~repro.telescope.packet.Packet`
per captured probe, which caps tractable corpora around 1e6 packets. The
paper's dataset is 51M packets, so the shared hot paths (sessionization,
source aggregation, phase slicing) run here against a
:class:`PacketTable` — per-telescope NumPy columns for arrival time, the
two 64-bit halves of the source/destination addresses, protocol, port,
origin ASN and an interned payload id.

Key equivalences with the object path (checked by the differential tests
in ``tests/test_core_columnar.py``):

- source aggregation (§3.3) is a shift on the ``src_hi`` column —
  ``/64`` keys are ``src_hi`` itself, ``/48`` keys are ``src_hi >> 16``;
- sessionization is one stable ``lexsort`` by (source key, time) plus a
  boundary scan ``(gap >= timeout) | (key changed)`` — identical cuts to
  the per-source Python loop in :func:`repro.core.sessions.sessionize`;
- phase slicing is a ``searchsorted`` on the time-sorted table.

The analyses read every session through the row layout
:func:`sessionize_table` keeps on its :class:`SessionSet`. The
:class:`Session` objects produced here still carry a :class:`PacketSlice`
— a lazy sequence that materializes ``Packet`` objects only when an
object caller iterates it, reusing the corpus' existing objects when the
table was built from one.
"""

from __future__ import annotations

import gc
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.aggregation import AggregationLevel
from repro.core.sessions import DEFAULT_TIMEOUT, Session, SessionSet
from repro.errors import AnalysisError
from repro.telescope.packet import Packet, Protocol

_MASK64 = (1 << 64) - 1

#: ``payload_id`` value for packets without a payload.
NO_PAYLOAD = -1


class PacketTable:
    """Structure-of-arrays packet store for one telescope.

    All columns have equal length; row ``i`` is one captured packet.
    Payload bytes are interned: ``payload_id[i]`` indexes into
    :attr:`payloads` (or is :data:`NO_PAYLOAD`), so identical probe
    payloads are stored once.
    """

    __slots__ = ("time", "src_hi", "src_lo", "dst_hi", "dst_lo",
                 "protocol", "dst_port", "src_asn", "scanner_id",
                 "payload_id", "payloads", "_objects", "_time_sorted")

    def __init__(self, time: np.ndarray, src_hi: np.ndarray,
                 src_lo: np.ndarray, dst_hi: np.ndarray,
                 dst_lo: np.ndarray, protocol: np.ndarray,
                 dst_port: np.ndarray, src_asn: np.ndarray,
                 scanner_id: np.ndarray, payload_id: np.ndarray,
                 payloads: list[bytes],
                 objects: list[Packet] | None = None) -> None:
        n = len(time)
        for name, column in (("src_hi", src_hi), ("src_lo", src_lo),
                             ("dst_hi", dst_hi), ("dst_lo", dst_lo),
                             ("protocol", protocol), ("dst_port", dst_port),
                             ("src_asn", src_asn),
                             ("scanner_id", scanner_id),
                             ("payload_id", payload_id)):
            if len(column) != n:
                raise AnalysisError(
                    f"column {name} has {len(column)} rows, expected {n}")
        if objects is not None and len(objects) != n:
            raise AnalysisError(
                f"object backing has {len(objects)} rows, expected {n}")
        self.time = time
        self.src_hi = src_hi
        self.src_lo = src_lo
        self.dst_hi = dst_hi
        self.dst_lo = dst_lo
        self.protocol = protocol
        self.dst_port = dst_port
        self.src_asn = src_asn
        self.scanner_id = scanner_id
        self.payload_id = payload_id
        self.payloads = payloads
        self._objects = objects
        self._time_sorted: bool | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "PacketTable":
        u64 = np.empty(0, dtype=np.uint64)
        return cls(time=np.empty(0, dtype=np.float64),
                   src_hi=u64, src_lo=u64.copy(),
                   dst_hi=u64.copy(), dst_lo=u64.copy(),
                   protocol=np.empty(0, dtype=np.uint8),
                   dst_port=np.empty(0, dtype=np.uint16),
                   src_asn=np.empty(0, dtype=np.uint32),
                   scanner_id=np.empty(0, dtype=np.int64),
                   payload_id=np.empty(0, dtype=np.int64),
                   payloads=[], objects=[])

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketTable":
        """Build the columns in one pass over a packet sequence."""
        n = len(packets)
        time = np.empty(n, dtype=np.float64)
        src_hi = np.empty(n, dtype=np.uint64)
        src_lo = np.empty(n, dtype=np.uint64)
        dst_hi = np.empty(n, dtype=np.uint64)
        dst_lo = np.empty(n, dtype=np.uint64)
        protocol = np.empty(n, dtype=np.uint8)
        dst_port = np.empty(n, dtype=np.uint16)
        src_asn = np.empty(n, dtype=np.uint32)
        scanner_id = np.empty(n, dtype=np.int64)
        payload_id = np.full(n, NO_PAYLOAD, dtype=np.int64)
        payloads: list[bytes] = []
        interned: dict[bytes, int] = {}
        for i, p in enumerate(packets):
            time[i] = p.time
            src = p.src
            src_hi[i] = src >> 64
            src_lo[i] = src & _MASK64
            dst = p.dst
            dst_hi[i] = dst >> 64
            dst_lo[i] = dst & _MASK64
            protocol[i] = int(p.protocol)
            dst_port[i] = p.dst_port
            src_asn[i] = p.src_asn
            scanner_id[i] = p.scanner_id
            if p.payload:
                pid = interned.get(p.payload)
                if pid is None:
                    pid = len(payloads)
                    interned[p.payload] = pid
                    payloads.append(p.payload)
                payload_id[i] = pid
        return cls(time=time, src_hi=src_hi, src_lo=src_lo, dst_hi=dst_hi,
                   dst_lo=dst_lo, protocol=protocol, dst_port=dst_port,
                   src_asn=src_asn, scanner_id=scanner_id,
                   payload_id=payload_id, payloads=payloads,
                   objects=packets if isinstance(packets, list)
                   else list(packets))

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.time)

    # -- row materialization ----------------------------------------------

    def packet(self, i: int) -> Packet:
        """The ``Packet`` object for row ``i`` (reused if available)."""
        if self._objects is not None:
            return self._objects[i]
        return self._build_packet(i)

    def to_packets(self) -> list[Packet]:
        """Materialize (and cache) all rows as ``Packet`` objects."""
        if self._objects is None:
            self._objects = [self._build_packet(i) for i in range(len(self))]
        return self._objects

    def _build_packet(self, i: int) -> Packet:
        pid = int(self.payload_id[i])
        return Packet(
            time=float(self.time[i]),
            src=(int(self.src_hi[i]) << 64) | int(self.src_lo[i]),
            dst=(int(self.dst_hi[i]) << 64) | int(self.dst_lo[i]),
            protocol=Protocol(int(self.protocol[i])),
            dst_port=int(self.dst_port[i]),
            payload=self.payloads[pid] if pid != NO_PAYLOAD else None,
            src_asn=int(self.src_asn[i]),
            scanner_id=int(self.scanner_id[i]))

    # -- time ordering and phase slicing ----------------------------------

    @property
    def is_time_sorted(self) -> bool:
        if self._time_sorted is None:
            t = self.time
            self._time_sorted = bool(len(t) < 2 or np.all(t[1:] >= t[:-1]))
        return self._time_sorted

    def time_sorted(self) -> "PacketTable":
        """This table, stably reordered by arrival time if necessary."""
        if self.is_time_sorted:
            return self
        order = np.argsort(self.time, kind="stable")
        return self.take(order)

    def take(self, indices: np.ndarray) -> "PacketTable":
        """A new table holding the given rows, in the given order."""
        objects = None
        if self._objects is not None:
            objects = [self._objects[i] for i in indices.tolist()]
        return PacketTable(
            time=self.time[indices], src_hi=self.src_hi[indices],
            src_lo=self.src_lo[indices], dst_hi=self.dst_hi[indices],
            dst_lo=self.dst_lo[indices], protocol=self.protocol[indices],
            dst_port=self.dst_port[indices], src_asn=self.src_asn[indices],
            scanner_id=self.scanner_id[indices],
            payload_id=self.payload_id[indices],
            payloads=self.payloads, objects=objects)

    def slice_time(self, start: float, end: float) -> "PacketTable":
        """Rows with ``start <= time < end`` (table must be time-sorted)."""
        if not self.is_time_sorted:
            raise AnalysisError("slice_time requires a time-sorted table")
        with obs.span("columnar.phase_slice", packets=len(self),
                      start=start, end=end) as sp:
            lo = int(np.searchsorted(self.time, start, side="left"))
            hi = int(np.searchsorted(self.time, end, side="left"))
            sp.set(rows=hi - lo)
            return self._row_slice(lo, hi)

    def _row_slice(self, lo: int, hi: int) -> "PacketTable":
        objects = self._objects[lo:hi] if self._objects is not None else None
        table = PacketTable(
            time=self.time[lo:hi], src_hi=self.src_hi[lo:hi],
            src_lo=self.src_lo[lo:hi], dst_hi=self.dst_hi[lo:hi],
            dst_lo=self.dst_lo[lo:hi], protocol=self.protocol[lo:hi],
            dst_port=self.dst_port[lo:hi], src_asn=self.src_asn[lo:hi],
            scanner_id=self.scanner_id[lo:hi],
            payload_id=self.payload_id[lo:hi],
            payloads=self.payloads, objects=objects)
        table._time_sorted = self._time_sorted
        return table

    # -- vectorized source aggregation ------------------------------------

    def source_key_columns(self, level: AggregationLevel) \
            -> tuple[np.ndarray | None, np.ndarray]:
        """(hi, lo) key columns; ``hi`` is None when one column suffices.

        Keys mirror :func:`repro.core.aggregation.source_key`: the address
        right-shifted to the aggregation boundary.
        """
        if level is AggregationLevel.ADDR:
            return self.src_hi, self.src_lo
        if level is AggregationLevel.SUBNET:
            return None, self.src_hi
        if level is AggregationLevel.PREFIX:
            return None, self.src_hi >> np.uint64(16)
        raise AnalysisError(f"unsupported aggregation level {level!r}")

    def distinct_sources(self, level: AggregationLevel) -> set[int]:
        """Aggregated source keys present in the table."""
        with obs.span("columnar.aggregate", level=level.name,
                      packets=len(self)) as sp:
            key_hi, key_lo = self.source_key_columns(level)
            if key_hi is None:
                sources = set(np.unique(key_lo).tolist())
            else:
                sources = set(join_halves(*distinct_rows(key_hi, key_lo)))
            sp.set(sources=len(sources))
            return sources

    def unique_source_addresses(self) -> set[int]:
        """Distinct 128-bit source addresses (no object materialization)."""
        return self.distinct_sources(AggregationLevel.ADDR)

    def source_mask(self, sources) -> np.ndarray:
        """Mask of the rows sent from any of the 128-bit ``sources``."""
        his = np.array([s >> 64 for s in sources], dtype=np.uint64)
        los = np.array([s & _MASK64 for s in sources], dtype=np.uint64)
        mask = np.zeros(len(self), dtype=bool)
        # both halves must occur among the sources before a row is
        # matched pair by pair
        rows = np.flatnonzero(np.isin(self.src_hi, his)
                              & np.isin(self.src_lo, los))
        row_hi, row_lo = self.src_hi[rows], self.src_lo[rows]
        for hi, lo in zip(his, los):
            mask[rows[(row_hi == hi) & (row_lo == lo)]] = True
        return mask

    # -- persistence helpers ----------------------------------------------

    def payload_blob(self) -> tuple[np.ndarray, np.ndarray]:
        """(offsets, blob) in the per-packet concatenated store layout."""
        n = len(self)
        offsets = np.zeros(n + 1, dtype=np.int64)
        chunks: list[bytes] = []
        total = 0
        ids = self.payload_id.tolist()
        for i, pid in enumerate(ids):
            if pid != NO_PAYLOAD:
                payload = self.payloads[pid]
                chunks.append(payload)
                total += len(payload)
            offsets[i + 1] = total
        blob = np.frombuffer(b"".join(chunks), dtype=np.uint8) \
            if chunks else np.empty(0, dtype=np.uint8)
        return offsets, blob

    @classmethod
    def from_blob_arrays(cls, time, src_hi, src_lo, dst_hi, dst_lo,
                         protocol, dst_port, src_asn, scanner_id,
                         payload_offsets, payload_blob) -> "PacketTable":
        """Build a table from the store's per-packet blob layout."""
        n = len(time)
        payload_id = np.full(n, NO_PAYLOAD, dtype=np.int64)
        payloads: list[bytes] = []
        interned: dict[bytes, int] = {}
        lengths = np.diff(payload_offsets)
        blob = payload_blob.tobytes()
        for i in np.flatnonzero(lengths > 0).tolist():
            payload = blob[int(payload_offsets[i]):
                           int(payload_offsets[i + 1])]
            pid = interned.get(payload)
            if pid is None:
                pid = len(payloads)
                interned[payload] = pid
                payloads.append(payload)
            payload_id[i] = pid
        return cls(time=np.asarray(time, dtype=np.float64),
                   src_hi=np.asarray(src_hi, dtype=np.uint64),
                   src_lo=np.asarray(src_lo, dtype=np.uint64),
                   dst_hi=np.asarray(dst_hi, dtype=np.uint64),
                   dst_lo=np.asarray(dst_lo, dtype=np.uint64),
                   protocol=np.asarray(protocol, dtype=np.uint8),
                   dst_port=np.asarray(dst_port, dtype=np.uint16),
                   src_asn=np.asarray(src_asn, dtype=np.uint32),
                   scanner_id=np.asarray(scanner_id, dtype=np.int64),
                   payload_id=payload_id, payloads=payloads)


def pair_counts(hi: np.ndarray, lo: np.ndarray) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by their (hi, lo) pair, e.g. a 128-bit address.

    Returns the distinct pairs in ascending order, each one's row count
    and its first row. Runs of rows repeating the row before them are
    collapsed first (a source's packets arrive in bursts), then one
    stable lexsort and an adjacent-difference mask find the groups.
    """
    n = len(hi)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return hi[:0], lo[:0], empty, empty
    firsts = np.flatnonzero(row_changes(hi, lo))
    lengths = np.diff(firsts, append=n)
    order = np.lexsort((lo[firsts], hi[firsts]))
    firsts, lengths = firsts[order], lengths[order]
    run_hi, run_lo = hi[firsts], lo[firsts]
    starts = np.flatnonzero(row_changes(run_hi, run_lo))
    return (run_hi[starts], run_lo[starts],
            np.add.reduceat(lengths, starts), firsts[starts])


def row_changes(*columns: np.ndarray) -> np.ndarray:
    """Mask of the rows that differ from the row before them in any
    column (the first row always does)."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return new


def distinct_rows(*columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct rows of equal-length columns, sorted by the first
    column, then the next: drop rows repeating the row before them, one
    lexsort, one adjacent-difference mask."""
    if not len(columns[0]):
        return columns
    keep = row_changes(*columns)
    columns = tuple(column[keep] for column in columns)
    order = np.lexsort(columns[::-1])
    columns = tuple(column[order] for column in columns)
    keep = row_changes(*columns)
    return tuple(column[keep] for column in columns)


def first_arrivals(key_hi: np.ndarray, key_lo: np.ndarray,
                   time: np.ndarray) -> np.ndarray:
    """The earliest ``time`` of each distinct (key_hi, key_lo) pair."""
    order = np.lexsort((time, key_lo, key_hi))
    return time[order][row_changes(key_hi[order], key_lo[order])]


def join_halves(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    """The 128-bit integers whose halves the two columns hold."""
    return [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())]


#: Column names of one packet batch, in canonical order.
BATCH_COLUMNS = ("time", "src_hi", "src_lo", "dst_hi", "dst_lo",
                 "protocol", "dst_port", "src_asn", "scanner_id")

_BATCH_DTYPES = (np.float64, np.uint64, np.uint64, np.uint64, np.uint64,
                 np.uint8, np.uint16, np.uint32, np.int64)


class PacketTableBuilder:
    """Append-only columnar accumulator behind the batch emission path.

    Batches land in capacity-doubling buffers, so appending a session's
    packet train costs a handful of vectorized copies and no Python
    ``Packet`` objects. Payload bytes are interned on arrival; a batch
    passes its payloads as a local side list plus per-row local ids and
    the builder remaps them into the shared pool.

    :meth:`snapshot` exposes the current contents as a
    :class:`PacketTable` of zero-copy views; later appends grow into
    fresh buffers and never mutate rows a snapshot already exposed.
    """

    __slots__ = ("_columns", "_payload_id", "_n", "_capacity",
                 "payloads", "_interned")

    def __init__(self) -> None:
        self._columns: list[np.ndarray] | None = None
        self._payload_id: np.ndarray | None = None
        self._n = 0
        self._capacity = 0
        self.payloads: list[bytes] = []
        self._interned: dict[bytes, int] = {}

    def __len__(self) -> int:
        return self._n

    def _grow(self, needed: int) -> None:
        capacity = max(1024, self._capacity * 2, self._n + needed)
        grown = [np.empty(capacity, dtype=dtype) for dtype in _BATCH_DTYPES]
        payload_id = np.full(capacity, NO_PAYLOAD, dtype=np.int64)
        if self._columns is not None:
            for old, new in zip(self._columns, grown):
                new[:self._n] = old[:self._n]
            payload_id[:self._n] = self._payload_id[:self._n]
        self._columns = grown
        self._payload_id = payload_id
        self._capacity = capacity

    def append(self, time, src_hi, src_lo, dst_hi, dst_lo, protocol,
               dst_port, src_asn, scanner_id,
               payload_id: np.ndarray | None = None,
               payloads: list[bytes] | None = None) -> int:
        """Append one batch of equal-length columns; returns its size."""
        n = len(time)
        if n == 0:
            return 0
        if self._n + n > self._capacity:
            self._grow(n)
        lo, hi = self._n, self._n + n
        for column, batch in zip(self._columns,
                                 (time, src_hi, src_lo, dst_hi, dst_lo,
                                  protocol, dst_port, src_asn, scanner_id)):
            column[lo:hi] = batch
        if payload_id is None or payloads is None:
            self._payload_id[lo:hi] = NO_PAYLOAD
        else:
            remap = np.empty(len(payloads) + 1, dtype=np.int64)
            remap[0] = NO_PAYLOAD
            for local, payload in enumerate(payloads):
                shared = self._interned.get(payload)
                if shared is None:
                    shared = len(self.payloads)
                    self._interned[payload] = shared
                    self.payloads.append(payload)
                remap[local + 1] = shared
            # local ids are 0..len-1 or NO_PAYLOAD (-1); shift by one so a
            # single fancy-index resolves both cases
            self._payload_id[lo:hi] = remap[payload_id + 1]
        self._n = hi
        return n

    def snapshot(self) -> PacketTable:
        """Zero-copy :class:`PacketTable` view of the rows appended so far."""
        if self._columns is None:
            return PacketTable.empty()
        n = self._n
        cols = [column[:n] for column in self._columns]
        return PacketTable(
            time=cols[0], src_hi=cols[1], src_lo=cols[2], dst_hi=cols[3],
            dst_lo=cols[4], protocol=cols[5], dst_port=cols[6],
            src_asn=cols[7], scanner_id=cols[8],
            payload_id=self._payload_id[:n], payloads=self.payloads)


class TableChunk:
    """One lazily-loadable row range of a :class:`ChunkedPacketTable`.

    Carries the row count and the ``[t_min, t_max]`` time footprint from
    the chunk manifest so callers can reason about the chunk — decide
    whether a query touches it, sum row counts — without loading a byte.
    ``loader`` produces the chunk's :class:`PacketTable` on first touch
    (the store's loader verifies the chunk's sha256 there and may
    quarantine it, returning an empty table); the result is cached so a
    chunk is opened at most once per process.
    """

    __slots__ = ("rows", "t_min", "t_max", "nbytes", "_loader", "_table")

    def __init__(self, rows: int, t_min: float, t_max: float, loader,
                 nbytes: int = 0,
                 table: PacketTable | None = None) -> None:
        self.rows = rows
        self.t_min = t_min
        self.t_max = t_max
        self.nbytes = nbytes
        self._loader = loader
        self._table = table

    @classmethod
    def from_table(cls, table: PacketTable) -> "TableChunk":
        """An already-materialized chunk (used by the shard merge)."""
        n = len(table)
        t_min = float(table.time[0]) if n else 0.0
        t_max = float(table.time[-1]) if n else 0.0
        return cls(rows=n, t_min=t_min, t_max=t_max, loader=None,
                   table=table)

    @property
    def loaded(self) -> bool:
        return self._table is not None

    def load(self) -> PacketTable:
        if self._table is None:
            self._table = self._loader()
            if len(self._table) != self.rows:
                # quarantined (or otherwise degraded) chunk: advertise
                # the real row count from now on
                self.rows = len(self._table)
        return self._table


class ChunkedPacketTable:
    """Lazy, time-partitioned packet table over out-of-core chunks.

    The v2 corpus store (DESIGN §9) and the shard-merge path hand
    analyses one of these instead of a fully materialized
    :class:`PacketTable`. Chunks partition the row range of a
    time-sorted table, so:

    - ``len`` and the time footprint come from the manifest — no I/O;
    - :meth:`slice_time` is *predicate pushdown*: only the chunks whose
      ``[t_min, t_max]`` footprint intersects the query range are
      opened, verified, and concatenated — sibling chunks are never
      touched;
    - every other ``PacketTable`` attribute delegates to
      :meth:`materialize`, which concatenates all chunks on first use
      (full-phase sessionization needs every row anyway).

    Bytes accounting (:attr:`bytes_total` / :meth:`bytes_opened`) feeds
    the ``store.*`` metrics and the out-of-core benchmark's
    touched-bytes criterion.
    """

    def __init__(self, chunks: Sequence[TableChunk]) -> None:
        self.chunks = list(chunks)
        self._materialized: PacketTable | None = None

    def __len__(self) -> int:
        return sum(chunk.rows for chunk in self.chunks)

    # -- time ordering and pushdown slicing --------------------------------

    @property
    def is_time_sorted(self) -> bool:
        """True by construction: chunks are written from a time-sorted
        table and partition its row range in order."""
        return True

    def time_sorted(self) -> "ChunkedPacketTable":
        return self

    def materialize(self) -> PacketTable:
        """The full table, concatenated from all chunks (cached)."""
        if self._materialized is None:
            with obs.span("columnar.materialize_chunks",
                          chunks=len(self.chunks)):
                self._materialized = concat_tables(
                    [chunk.load() for chunk in self.chunks])
            self._materialized._time_sorted = True
        return self._materialized

    def intersecting_chunks(self, start: float,
                            end: float) -> list[TableChunk]:
        """Chunks whose time footprint intersects ``[start, end)``."""
        return [chunk for chunk in self.chunks
                if chunk.rows and chunk.t_min < end and chunk.t_max >= start]

    def slice_time(self, start: float, end: float) -> PacketTable:
        """Rows with ``start <= time < end``, touching only the chunks
        that can contain them.

        Equivalent to ``materialize().slice_time(start, end)`` — chunks
        partition a time-sorted table, so slicing each intersecting
        chunk and concatenating the pieces yields the identical rows in
        the identical order — but chunks outside the range stay closed.
        """
        if self._materialized is not None:
            return self._materialized.slice_time(start, end)
        selected = self.intersecting_chunks(start, end)
        with obs.span("columnar.pushdown_slice", start=start, end=end,
                      chunks=len(selected), of=len(self.chunks)) as sp:
            parts = [chunk.load().slice_time(start, end)
                     for chunk in selected]
            table = concat_tables(parts)
            table._time_sorted = True
            sp.set(rows=len(table))
            return table

    # -- accounting --------------------------------------------------------

    @property
    def bytes_total(self) -> int:
        """On-disk bytes of all chunks (0 for in-memory chunk sources)."""
        return sum(chunk.nbytes for chunk in self.chunks)

    def bytes_opened(self) -> int:
        """On-disk bytes of the chunks that have actually been loaded."""
        return sum(chunk.nbytes for chunk in self.chunks if chunk.loaded)

    # -- PacketTable delegation --------------------------------------------

    def __getattr__(self, name: str):
        # any column or method not defined here comes from the fully
        # materialized table; this is what full-phase analyses hit
        return getattr(self.materialize(), name)

    def __repr__(self) -> str:
        opened = sum(1 for chunk in self.chunks if chunk.loaded)
        return (f"ChunkedPacketTable({len(self)} rows, "
                f"{opened}/{len(self.chunks)} chunks open)")


def iter_row_chunks(table: PacketTable,
                    chunk_rows: int) -> Iterator[PacketTable]:
    """Split a table into consecutive row-range views of ``chunk_rows``.

    Views share the parent's buffers (``_row_slice``), so splitting costs
    no copies; a time-sorted parent yields time-partitioned chunks.
    """
    if chunk_rows < 1:
        raise AnalysisError(f"chunk_rows must be >= 1, got {chunk_rows}")
    n = len(table)
    for lo in range(0, n, chunk_rows):
        yield table._row_slice(lo, min(lo + chunk_rows, n))


def concat_tables(tables: Sequence[PacketTable]) -> PacketTable:
    """Concatenate tables row-wise, re-interning payloads into one pool."""
    tables = [t for t in tables if len(t)]
    if not tables:
        return PacketTable.empty()
    if len(tables) == 1:
        return tables[0]
    payloads: list[bytes] = []
    interned: dict[bytes, int] = {}
    payload_ids = []
    for table in tables:
        remap = np.empty(len(table.payloads) + 1, dtype=np.int64)
        remap[0] = NO_PAYLOAD
        for local, payload in enumerate(table.payloads):
            shared = interned.get(payload)
            if shared is None:
                shared = len(payloads)
                interned[payload] = shared
                payloads.append(payload)
            remap[local + 1] = shared
        payload_ids.append(remap[table.payload_id + 1])
    return PacketTable(
        time=np.concatenate([t.time for t in tables]),
        src_hi=np.concatenate([t.src_hi for t in tables]),
        src_lo=np.concatenate([t.src_lo for t in tables]),
        dst_hi=np.concatenate([t.dst_hi for t in tables]),
        dst_lo=np.concatenate([t.dst_lo for t in tables]),
        protocol=np.concatenate([t.protocol for t in tables]),
        dst_port=np.concatenate([t.dst_port for t in tables]),
        src_asn=np.concatenate([t.src_asn for t in tables]),
        scanner_id=np.concatenate([t.scanner_id for t in tables]),
        payload_id=np.concatenate(payload_ids),
        payloads=payloads)


class PacketSlice:
    """Lazy, immutable sequence of table rows behaving like list[Packet].

    ``Session.packets`` points at one of these: length, truthiness and
    equality are cheap; iterating or indexing materializes ``Packet``
    objects (reusing the table's object backing when present). Rows are
    ``order[lo:hi]`` of a shared permutation array — the window is kept
    as two ints so creating millions of slices allocates no per-slice
    index arrays.
    """

    __slots__ = ("_table", "_order", "_lo", "_hi", "_cache")

    def __init__(self, table: PacketTable, rows: np.ndarray) -> None:
        self._table = table
        self._order = rows
        self._lo = 0
        self._hi = len(rows)
        self._cache: list[Packet] | None = None

    def __len__(self) -> int:
        return self._hi - self._lo

    def __bool__(self) -> bool:
        return self._hi > self._lo

    def _materialize(self) -> list[Packet]:
        if self._cache is None:
            table = self._table
            rows = self._order[self._lo:self._hi].tolist()
            objects = table._objects
            if objects is not None:
                self._cache = [objects[i] for i in rows]
            else:
                self._cache = [table.packet(i) for i in rows]
        return self._cache

    def __iter__(self) -> Iterator[Packet]:
        return iter(self._materialize())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._materialize()[index]
        if self._cache is not None:
            return self._cache[index]
        n = self._hi - self._lo
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        return self._table.packet(int(self._order[self._lo + index]))

    def __eq__(self, other) -> bool:
        if isinstance(other, PacketSlice):
            return self._materialize() == other._materialize()
        if isinstance(other, list):
            return self._materialize() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"PacketSlice({len(self)} packets)"


def sessionize_table(table: PacketTable, telescope: str = "",
                     level: AggregationLevel = AggregationLevel.ADDR,
                     timeout: float = DEFAULT_TIMEOUT) -> SessionSet:
    """Vectorized :func:`repro.core.sessions.sessionize` over a table.

    Produces byte-identical session boundaries, source keys and ordering
    to the object path: one stable lexsort by (aggregated source, time)
    replaces the per-source dict + per-stream sort, and one boundary scan
    over adjacent rows replaces the per-packet gap loop.
    """
    if timeout <= 0:
        raise AnalysisError(f"session timeout must be > 0, got {timeout}")
    result = SessionSet(telescope=telescope, level=level, timeout=timeout)
    n = len(table)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        result.table, result.rows = table, empty
        result.bounds, result.run_of = np.zeros(1, dtype=np.int64), empty
        return result
    with obs.span("columnar.sessionize", telescope=telescope,
                  level=level.name, packets=n) as obs_span:
        _sessionize_into(result, table, telescope, level, timeout, n)
        obs_span.set(sessions=len(result.sessions))
    if obs.current() is not None:
        obs.add("columnar.packets_sessionized_total", n,
                telescope=telescope)
        obs.add("columnar.sessions_total", len(result.sessions),
                telescope=telescope)
    return result


def _sessionize_into(result: SessionSet, table: PacketTable, telescope: str,
                     level: AggregationLevel, timeout: float,
                     n: int) -> None:
    key_hi, key_lo = table.source_key_columns(level)
    if key_hi is None:
        order = np.lexsort((table.time, key_lo))
    else:
        order = np.lexsort((table.time, key_lo, key_hi))

    t = table.time[order]
    kl = key_lo[order]
    boundary = kl[1:] != kl[:-1]
    if key_hi is not None:
        kh = key_hi[order]
        boundary |= kh[1:] != kh[:-1]
    boundary |= (t[1:] - t[:-1]) >= timeout

    bounds = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.flatnonzero(boundary) + 1,
         np.full(1, n, dtype=np.int64)))
    firsts = bounds[:-1]
    # the object path emits sessions per ascending source then stably
    # re-sorts by start time; lexsort already yields (source, time) order,
    # so one stable argsort over the starts reproduces the final order
    session_order = np.argsort(t[firsts], kind="stable")

    result.table, result.rows = table, order
    result.bounds, result.run_of = bounds, session_order
    firsts_sorted = firsts[session_order]
    ends_sorted = bounds[1:][session_order]
    starts, ends = t[firsts_sorted], t[ends_sorted - 1]
    result._columns["starts"] = starts
    lo_list = firsts_sorted.tolist()
    hi_list = ends_sorted.tolist()
    kl_firsts = kl[firsts_sorted].tolist()
    kh_firsts = kh[firsts_sorted].tolist() if key_hi is not None else None

    # sessions are built through __new__ + direct slot assignment: the
    # dataclass __init__/__post_init__ pair costs more than all the numpy
    # work above on large corpora, and every slice here is non-empty by
    # construction. Generational GC is paused around the bulk allocation —
    # every gen-0 pass it triggers would traverse the multi-million-object
    # corpus, which dominates the whole sessionization otherwise.
    sessions = result.sessions
    append = sessions.append
    new_session = Session.__new__
    new_slice = PacketSlice.__new__
    if kh_firsts is not None:
        sources = [(kh << 64) | kl
                   for kh, kl in zip(kh_firsts, kl_firsts)]
    else:
        sources = kl_firsts
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        for source, lo, hi, start, end in zip(
                sources, lo_list, hi_list, starts.tolist(), ends.tolist()):
            packets = new_slice(PacketSlice)
            packets._table = table
            packets._order = order
            packets._lo = lo
            packets._hi = hi
            packets._cache = None
            session = new_session(Session)
            session.source = source
            session.telescope = telescope
            session.packets = packets
            session.start = start
            session.end = end
            append(session)
    finally:
        if gc_was_enabled:
            gc.enable()
