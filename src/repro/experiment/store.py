"""Corpus persistence: the out-of-core chunked columnar store.

Saves a :class:`PacketCorpus` to a directory and loads it back, so
analyses can run on a previously simulated (or externally produced)
capture without re-running the simulation.

The store (format version 2, DESIGN §9) is chunked and memory-mapped:

- ``meta.json`` — config, announcement schedule, AS registry records,
  RDNS entries, telescope prefixes, coverage gaps, and the chunk
  manifest (per-telescope chunk list with row counts, ``[t_min, t_max]``
  time footprints, byte sizes, and one sha256 per chunk);
- ``<T>/chunk_NNNN.<column>.npy`` — per-telescope, time-partitioned
  chunk files of raw contiguous column arrays written via
  :mod:`numpy.lib.format`, so they open with ``mmap_mode="r"`` —
  zero-copy across the shard pool and analysis worker processes.

Loading is lazy: ``load_corpus`` reads only ``meta.json`` and hands each
telescope a :class:`~repro.core.columnar.ChunkedPacketTable`. A chunk's
sha256 is verified on first touch, and time-range queries (phase
slicing) open only the chunks whose footprint intersects the query —
*predicate pushdown*. A store of any other format version is refused:
a store is derived, deterministic data, so an old one is rebuilt from
the config its ``meta.json`` records and saved again.

Every on-disk failure (missing file, truncation, bit flips, unreadable
data) surfaces as :class:`repro.errors.StoreError` carrying the path and
the failed check. With ``strict=False`` a bad chunk is quarantined
instead of raising: it loads empty, its slice of the timeline is
recorded as a coverage gap, and a :class:`DegradationWarning` is emitted
— sibling chunks stay readable, so one flipped byte costs one chunk of
data, not the telescope.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import obs
from repro.analysis.degrade import warn_degraded
from repro.bgp.controller import AnnouncementCycle
from repro.core.columnar import (ChunkedPacketTable, PacketTable, TableChunk,
                                 iter_row_chunks)
from repro.dns.resolver import Resolver
from repro.dns.zone import Zone
from repro.errors import StoreError
from repro.experiment.config import ExperimentConfig
from repro.experiment.corpus import PacketCorpus, TELESCOPE_NAMES
from repro.net.prefix import Prefix
from repro.scanners.registry import ASRecord, ASRegistry, NetworkType

FORMAT_VERSION = 2

#: Default rows per chunk. Small enough that a phase-sliced query at
#: paper scale opens a fraction of the corpus, large enough that
#: per-chunk overhead (11 files, one sha256) stays negligible.
DEFAULT_CHUNK_ROWS = 65536

#: Canonical column order of one chunk — file naming, hashing, and
#: verification all walk this tuple, so a chunk's sha256 is well-defined.
CHUNK_COLUMNS = ("time", "src_hi", "src_lo", "dst_hi", "dst_lo", "proto",
                 "port", "asn", "scanner", "payload_offsets",
                 "payload_blob")

_HASH_BLOCK = 1 << 20


def _hash_file(path: Path, hasher) -> None:
    """Feed a file into ``hasher`` in fixed-size blocks.

    Never holds more than one block in memory, unlike
    ``Path.read_bytes()`` which doubles the chunk's footprint while
    hashing.
    """
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_HASH_BLOCK)
            if not block:
                break
            hasher.update(block)


class _HashingWriter:
    """File wrapper that hashes and counts every byte as it is written,
    so chunk checksums never require re-reading the file."""

    __slots__ = ("_fh", "hasher", "nbytes")

    def __init__(self, fh, hasher) -> None:
        self._fh = fh
        self.hasher = hasher
        self.nbytes = 0

    def write(self, data) -> int:
        self.hasher.update(data)
        self.nbytes += len(data)
        return self._fh.write(data)


def _gauge_inc(name: str, amount: float, **labels) -> None:
    recorder = obs.current()
    if recorder is not None:
        recorder.metrics.gauge(name, **labels).inc(amount)


# -- chunk writer ----------------------------------------------------------


def _chunk_arrays(table: PacketTable) -> dict[str, np.ndarray]:
    """The canonical column arrays of one chunk, keyed by file name."""
    payload_offsets, blob = table.payload_blob()
    return {
        "time": table.time, "src_hi": table.src_hi, "src_lo": table.src_lo,
        "dst_hi": table.dst_hi, "dst_lo": table.dst_lo,
        "proto": table.protocol, "port": table.dst_port,
        "asn": table.src_asn, "scanner": table.scanner_id,
        "payload_offsets": payload_offsets, "payload_blob": blob,
    }


def chunk_file(directory: Path, name: str, column: str) -> Path:
    return directory / f"{name}.{column}.npy"


def write_table_chunks(table: PacketTable, directory: str | Path,
                       chunk_rows: int = DEFAULT_CHUNK_ROWS) -> list[dict]:
    """Write a table as time-partitioned chunk files; returns the manifest.

    The table is (stably) time-sorted first, so consecutive row ranges
    are also time partitions and the manifest's ``[t_min, t_max]``
    footprints support pushdown. Each chunk's sha256 covers its column
    files in :data:`CHUNK_COLUMNS` order and is computed *while
    writing* — segments are never read back to hash them.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    table = table.time_sorted()
    manifest: list[dict] = []
    for index, chunk in enumerate(iter_row_chunks(table, chunk_rows)):
        name = f"chunk_{index:04d}"
        hasher = hashlib.sha256()
        nbytes = 0
        for column, array in _chunk_arrays(chunk).items():
            with open(chunk_file(directory, name, column), "wb") as fh:
                writer = _HashingWriter(fh, hasher)
                np.lib.format.write_array(
                    writer, np.ascontiguousarray(array), version=(1, 0))
                nbytes += writer.nbytes
        manifest.append({
            "name": name,
            "rows": len(chunk),
            "t_min": float(chunk.time[0]),
            "t_max": float(chunk.time[-1]),
            "bytes": nbytes,
            "sha256": hasher.hexdigest(),
        })
    return manifest


# -- chunk reader ----------------------------------------------------------


_READ_HEADER = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _size_matches_header(path: Path) -> bool:
    """Whether a ``.npy`` file holds exactly the bytes its header
    declares (False for a truncated or extended file, or a damaged
    header)."""
    try:
        with open(path, "rb") as fh:
            read_header = _READ_HEADER.get(np.lib.format.read_magic(fh))
            if read_header is None:
                return False
            shape, _, dtype = read_header(fh)
            declared = fh.tell() + dtype.itemsize * int(np.prod(shape))
    except (OSError, ValueError, EOFError):
        return False
    return path.stat().st_size == declared


class _ChunkReader:
    """Lazy, verified access to one on-disk chunk.

    ``load()`` streams the chunk's sha256 on first touch (in
    :data:`CHUNK_COLUMNS` order, matching the writer), then memory-maps
    the column files. With ``strict=False`` a failed check quarantines
    the chunk: it loads empty, ``[gap_start, gap_end)`` is merged into
    the shared ``gaps`` dict, and a :class:`DegradationWarning` is
    emitted — siblings are unaffected.
    """

    __slots__ = ("directory", "telescope", "entry", "strict", "gaps",
                 "gap_window", "verified", "broken")

    def __init__(self, directory: Path, telescope: str, entry: dict,
                 strict: bool, gaps: dict,
                 gap_window: tuple[float, float]) -> None:
        self.directory = directory
        self.telescope = telescope
        self.entry = entry
        self.strict = strict
        self.gaps = gaps
        self.gap_window = gap_window
        self.verified = False
        self.broken = False

    def _paths(self) -> list[tuple[str, Path]]:
        return [(column, chunk_file(self.directory, self.entry["name"],
                                    column))
                for column in CHUNK_COLUMNS]

    def verify(self) -> None:
        """Stream the chunk's sha256 and compare with the manifest."""
        if self.verified or self.broken:
            return
        hasher = hashlib.sha256()
        for _, path in self._paths():
            if not path.exists():
                raise StoreError(f"missing corpus chunk file {path}",
                                 path=path, check="exists")
            _hash_file(path, hasher)
        actual = hasher.hexdigest()
        expected = self.entry["sha256"]
        obs.add("store.chunks_verified_total", telescope=self.telescope)
        if actual != expected:
            # one sha256 spans every column file: name a file only when
            # its size contradicts its own header, else the whole chunk
            path = next((path for _, path in self._paths()
                         if not _size_matches_header(path)),
                        self.directory / self.entry["name"])
            raise StoreError(
                f"corpus chunk {self.entry['name']} of {self.telescope} "
                f"failed its sha256 check (stored {expected[:12]}…, "
                f"found {actual[:12]}…)", path=path, check="sha256")
        self.verified = True

    def quarantine(self, exc: StoreError) -> PacketTable:
        self.broken = True
        obs.add("store.chunks_quarantined_total", telescope=self.telescope)
        obs.event("store.quarantine", unit="chunk",
                  telescope=self.telescope, chunk=self.entry["name"],
                  check=exc.check, gap=list(self.gap_window))
        existing = self.gaps.get(self.telescope, ())
        self.gaps[self.telescope] = tuple(
            sorted(set(existing) | {self.gap_window}))
        warn_degraded(
            f"corpus chunk {self.entry['name']} of {self.telescope} "
            f"quarantined (failed {exc.check} check): "
            f"[{self.gap_window[0]:.0f}, {self.gap_window[1]:.0f}) "
            "becomes a coverage gap", artifact="load_corpus",
            telescope=self.telescope, reason=exc.check)
        return PacketTable.empty()

    def load(self) -> PacketTable:
        if self.broken:
            return PacketTable.empty()
        try:
            self.verify()
            arrays = {}
            for column, path in self._paths():
                try:
                    arrays[column] = np.load(path, mmap_mode="r")
                except (OSError, ValueError, KeyError, EOFError) as exc:
                    raise StoreError(
                        f"corpus chunk file {path} is unreadable: {exc}",
                        path=path, check="read") from exc
        except StoreError as exc:
            if self.strict:
                raise
            return self.quarantine(exc)
        obs.add("store.chunks_opened_total", telescope=self.telescope)
        _gauge_inc("store.bytes_mapped", self.entry["bytes"],
                   telescope=self.telescope)
        return PacketTable.from_blob_arrays(
            time=arrays["time"],
            src_hi=arrays["src_hi"], src_lo=arrays["src_lo"],
            dst_hi=arrays["dst_hi"], dst_lo=arrays["dst_lo"],
            protocol=arrays["proto"], dst_port=arrays["port"],
            src_asn=arrays["asn"], scanner_id=arrays["scanner"],
            payload_offsets=arrays["payload_offsets"],
            payload_blob=arrays["payload_blob"])


def open_table_chunks(directory: str | Path, manifest: list[dict],
                      telescope: str = "", strict: bool = True,
                      gaps: dict | None = None,
                      duration: float | None = None) -> ChunkedPacketTable:
    """A lazy :class:`ChunkedPacketTable` over a written chunk manifest.

    ``gaps``/``duration`` wire the lenient quarantine path: each chunk
    owns the slice of the timeline from its first timestamp to the next
    chunk's (the first chunk owns from 0, the last up to ``duration``),
    so quarantining it records exactly that window as a coverage gap and
    quarantining *every* chunk covers the whole run.
    """
    directory = Path(directory)
    if gaps is None:
        gaps = {}
    chunks = []
    for index, entry in enumerate(manifest):
        gap_start = 0.0 if index == 0 else float(entry["t_min"])
        if index + 1 < len(manifest):
            gap_end = float(manifest[index + 1]["t_min"])
        else:
            gap_end = duration if duration is not None \
                else float(entry["t_max"])
        reader = _ChunkReader(directory, telescope, entry, strict, gaps,
                              (gap_start, gap_end))
        chunks.append(TableChunk(
            rows=int(entry["rows"]), t_min=float(entry["t_min"]),
            t_max=float(entry["t_max"]), loader=reader.load,
            nbytes=int(entry["bytes"])))
    return ChunkedPacketTable(chunks)


# -- corpus save/load ------------------------------------------------------


def save_corpus(corpus: PacketCorpus, path: str | Path,
                chunk_rows: int = DEFAULT_CHUNK_ROWS) -> Path:
    """Write ``corpus`` to directory ``path`` (created if missing) as
    the chunked mmap store, ``chunk_rows`` rows per chunk."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)

    with obs.span("store.write_chunks", chunk_rows=chunk_rows):
        store = {"chunk_rows": chunk_rows, "chunks": {}}
        for telescope in TELESCOPE_NAMES:
            store["chunks"][telescope] = write_table_chunks(
                corpus.table(telescope), directory / telescope, chunk_rows)

    # the resolver only answers point queries, so RDNS entries are
    # persisted for every observed source address — one batched pass
    # over the union of all telescopes' sources
    sources: set[int] = set()
    for telescope in TELESCOPE_NAMES:
        sources |= corpus.table(telescope).unique_source_addresses()
    rdns = {str(src): name
            for src, name in corpus.rdns_batch(sorted(sources)).items()}

    meta = {
        "format_version": FORMAT_VERSION,
        "config": {
            "seed": corpus.config.seed,
            "scale": corpus.config.scale,
            "baseline_weeks": corpus.config.baseline_weeks,
            "cycle_weeks": corpus.config.cycle_weeks,
            "num_cycles": corpus.config.num_cycles,
            "num_tier1": corpus.config.num_tier1,
            "num_tier2": corpus.config.num_tier2,
            "num_stubs": corpus.config.num_stubs,
            "feed_delay": corpus.config.feed_delay,
        },
        "schedule": [
            {
                "index": cycle.index,
                "announce_time": cycle.announce_time,
                "withdraw_time": cycle.withdraw_time,
                "prefixes": [str(p) for p in cycle.prefixes],
                "new_prefixes": [str(p) for p in cycle.new_prefixes],
            }
            for cycle in corpus.schedule
        ],
        "registry": [
            {
                "asn": record.asn,
                "network_type": record.network_type.value,
                "country": record.country,
                "name": record.name,
                "rdns_domain": record.rdns_domain,
            }
            for record in corpus.registry.records()
        ],
        "rdns": rdns,
        "prefixes": {
            "t1": str(corpus.t1_prefix),
            "t2": str(corpus.t2_prefix),
            "t3": str(corpus.t3_prefix),
            "t4": str(corpus.t4_prefix),
        },
        "attractor_addr": str(corpus.attractor_addr),
        "coverage_gaps": {
            name: [[start, end] for start, end in windows]
            for name, windows in corpus.coverage_gaps.items()},
        "store": store,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=1))
    return directory


def load_corpus(path: str | Path, strict: bool = True,
                verify: str = "lazy") -> PacketCorpus:
    """Load a corpus previously written by :func:`save_corpus`.

    Loading is *lazy*: only ``meta.json`` is read here, and each chunk's
    sha256 is checked on first touch (``verify="eager"`` pre-verifies
    every chunk's hash up front without mapping any data).

    With ``strict=True`` (the default) a missing, truncated, or
    corrupted file raises :class:`StoreError` naming the path and the
    failed check, at first touch (or at load time with
    ``verify="eager"``). With ``strict=False`` the bad chunk is
    quarantined instead: it loads empty with a gap covering only its
    slice of the timeline, leaving sibling chunks readable. A store of
    another format version raises ``StoreError(check="format_version")``
    naming the seed and scale to rebuild it from.
    """
    if verify not in ("lazy", "eager"):
        raise StoreError(f"unknown verify mode {verify!r}",
                         path=Path(path), check="verify")
    directory = Path(path)
    meta = _read_meta(directory)
    config = ExperimentConfig(**meta["config"])
    schedule = [
        AnnouncementCycle(
            index=entry["index"],
            announce_time=entry["announce_time"],
            withdraw_time=entry["withdraw_time"],
            prefixes=tuple(Prefix.parse(p) for p in entry["prefixes"]),
            new_prefixes=tuple(Prefix.parse(p)
                               for p in entry["new_prefixes"]))
        for entry in meta["schedule"]
    ]
    from repro.scanners.registry import source_prefix_for_asn
    records = [
        ASRecord(asn=entry["asn"],
                 network_type=NetworkType(entry["network_type"]),
                 country=entry["country"], name=entry["name"],
                 source_prefix=source_prefix_for_asn(entry["asn"]),
                 rdns_domain=entry["rdns_domain"])
        for entry in meta["registry"]
    ]
    registry = ASRegistry.restore(records)

    rdns_zone = Zone(origin="rdns.")
    for src_text, name in meta["rdns"].items():
        rdns_zone.add_ptr(int(src_text), name)
    resolver = Resolver([rdns_zone])

    coverage_gaps = {
        name: tuple((float(start), float(end)) for start, end in windows)
        for name, windows in meta.get("coverage_gaps", {}).items()}

    tables = _load_tables(directory, meta, config, strict, coverage_gaps,
                          verify)

    return PacketCorpus(
        config=config,
        tables_by_telescope=tables,
        schedule=schedule,
        registry=registry,
        resolver=resolver,
        t1_prefix=Prefix.parse(meta["prefixes"]["t1"]),
        t2_prefix=Prefix.parse(meta["prefixes"]["t2"]),
        t3_prefix=Prefix.parse(meta["prefixes"]["t3"]),
        t4_prefix=Prefix.parse(meta["prefixes"]["t4"]),
        attractor_addr=int(meta["attractor_addr"]),
        coverage_gaps=coverage_gaps)


def _read_meta(directory: Path) -> dict:
    """The parsed ``meta.json`` of a current-format store.

    Raises :class:`StoreError` if it is missing or unreadable, records
    another format version (the message names the seed and scale to
    rebuild the corpus from), or lacks its chunk manifest.
    """
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise StoreError(f"no corpus at {directory} (missing meta.json)",
                         path=meta_path, check="exists")
    try:
        meta = json.loads(meta_path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise StoreError(f"corpus metadata {meta_path} is unreadable: {exc}",
                         path=meta_path, check="json") from exc
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        config = meta.get("config") or {}
        raise StoreError(
            f"corpus at {directory} has store format {version!r}, but "
            f"only format {FORMAT_VERSION} can be read; rebuild the "
            f"corpus from the config in {meta_path} (seed "
            f"{config.get('seed', '?')}, scale {config.get('scale', '?')}) "
            "and save it again", path=meta_path, check="format_version")
    store = meta.get("store")
    if not isinstance(store, dict) or "chunks" not in store:
        raise StoreError("corpus metadata is missing its chunk manifest",
                         path=meta_path, check="manifest")
    return meta


def chunk_paths(directory: str | Path, telescope: str,
                column: str) -> list[Path]:
    """The files of one column of a telescope's chunks, in manifest
    order."""
    directory = Path(directory)
    manifest = _read_meta(directory)["store"]["chunks"].get(telescope, [])
    return [chunk_file(directory / telescope, entry["name"], column)
            for entry in manifest]


def _load_tables(directory: Path, meta: dict, config: ExperimentConfig,
                 strict: bool, coverage_gaps: dict,
                 verify: str) -> dict[str, ChunkedPacketTable]:
    """Lazy chunk-manifest load of every telescope.

    ``coverage_gaps`` is the *live* dict handed to the corpus: a chunk
    quarantined on a later touch merges its gap window in place, so
    gap-aware analyses see it as soon as the quarantine happens.
    """
    tables: dict[str, ChunkedPacketTable] = {}
    for telescope in TELESCOPE_NAMES:
        manifest = meta["store"]["chunks"].get(telescope, [])
        table = open_table_chunks(
            directory / telescope, manifest, telescope=telescope,
            strict=strict, gaps=coverage_gaps, duration=config.duration)
        if verify == "eager":
            for chunk, entry in zip(table.chunks, manifest):
                try:
                    reader_load = chunk._loader
                    reader = reader_load.__self__
                    reader.verify()
                except StoreError as exc:
                    if strict:
                        raise
                    reader.quarantine(exc)
                    chunk.rows = 0
        tables[telescope] = table
    return tables


def corpus_digest(corpus: PacketCorpus) -> str:
    """Content hash of the packet columns of all four telescopes.

    Hashes the time-sorted column arrays directly rather than the
    on-disk files — the chunk layout depends on ``chunk_rows`` — so two
    corpora with the same packets always share a digest regardless of
    how (or whether) they were stored. Contiguous columns are hashed
    through their buffer directly; only a genuinely non-contiguous
    column pays a copy.
    """
    digest = hashlib.sha256()
    for telescope in TELESCOPE_NAMES:
        table = corpus.table(telescope).time_sorted()
        payload_offsets, blob = table.payload_blob()
        digest.update(telescope.encode())
        for column in (table.time, table.src_hi, table.src_lo,
                       table.dst_hi, table.dst_lo, table.protocol,
                       table.dst_port, table.src_asn, table.scanner_id,
                       payload_offsets):
            column = np.asarray(column)
            if not column.flags.c_contiguous:
                column = np.ascontiguousarray(column)
            digest.update(column)
        digest.update(np.asarray(blob))
    return digest.hexdigest()
