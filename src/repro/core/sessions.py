"""Scan sessions (§3.3).

A scan session is a sequence of consecutive packets from a single source in
which the inter-arrival time between subsequent packets stays below a
timeout T. Following Richter et al. and Zhao et al., the paper uses
T = 1 hour; no minimum packet or target count is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from repro.core.aggregation import AggregationLevel, source_key
from repro.errors import AnalysisError
from repro.sim.clock import HOUR
from repro.telescope.packet import Packet, Protocol

#: The paper's session timeout.
DEFAULT_TIMEOUT = HOUR


@dataclass(slots=True)
class Session:
    """One scan session of one (aggregated) source at one telescope."""

    source: int
    telescope: str
    packets: list[Packet]
    #: arrival times of the first and the last packet
    start: float = field(init=False, compare=False)
    end: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.packets:
            raise AnalysisError("a session needs at least one packet")
        self.start = self.packets[0].time
        self.end = self.packets[-1].time

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __len__(self) -> int:
        return len(self.packets)

    def protocols(self) -> set[Protocol]:
        return {p.protocol for p in self.packets}

    def targets(self) -> list[int]:
        return [p.dst for p in self.packets]

    def distinct_targets(self) -> set[int]:
        return {p.dst for p in self.packets}


#: Bit of each protocol in :meth:`SessionSet.protocol_masks`.
PROTOCOL_BIT = {protocol: 1 << i for i, protocol in enumerate(Protocol)}

_BIT_OF_NUMBER = np.zeros(256, dtype=np.uint8)
for _protocol, _bit in PROTOCOL_BIT.items():
    _BIT_OF_NUMBER[int(_protocol)] = _bit


def protocol_session_counts(masks: np.ndarray) -> dict[Protocol, int]:
    """Sessions per protocol (the protocols present) from
    :meth:`SessionSet.protocol_masks`."""
    counts = {protocol: int(np.count_nonzero(masks & bit))
              for protocol, bit in PROTOCOL_BIT.items()}
    return {protocol: count for protocol, count in counts.items() if count}


@dataclass
class SessionSet:
    """All sessions of one telescope at one aggregation level.

    :func:`repro.core.columnar.sessionize_table` also keeps its row
    layout: ``table`` rows ``rows[bounds[r]:bounds[r + 1]]`` are one
    session, in arrival order, and ``sessions[i]`` is run
    ``run_of[i]``. Column kernels read every session through it: the
    per-session columns below are in ``sessions`` order and computed
    once per set.
    """

    telescope: str
    level: AggregationLevel
    timeout: float
    sessions: list[Session] = field(default_factory=list)
    table: Any = field(default=None, compare=False, repr=False)
    rows: Any = field(default=None, compare=False, repr=False)
    bounds: Any = field(default=None, compare=False, repr=False)
    run_of: Any = field(default=None, compare=False, repr=False)
    _columns: dict = field(default_factory=dict, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.sessions)

    def _cached(self, name: str, build):
        value = self._columns.get(name)
        if value is None:
            if self.table is None:
                raise AnalysisError(
                    "session set has no row layout (build it with "
                    "repro.core.columnar.sessionize_table)")
            value = self._columns[name] = build()
        return value

    def session_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, offsets): the table rows of every session, session
        after session; session ``i`` is ``rows[offsets[i]:offsets[i+1]]``
        in arrival order."""
        def build():
            sizes = np.diff(self.bounds)[self.run_of]
            offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            shift = self.bounds[:-1][self.run_of] - offsets[:-1]
            rows = self.rows[np.repeat(shift, sizes)
                             + np.arange(offsets[-1])]
            return rows, offsets
        return self._cached("session_rows", build)

    def sizes(self) -> np.ndarray:
        """Packets per session."""
        return self._cached("sizes",
                            lambda: np.diff(self.session_rows()[1]))

    def row_sessions(self) -> np.ndarray:
        """Session index of every row of :meth:`session_rows`."""
        return self._cached("row_sessions", lambda: np.repeat(
            np.arange(len(self.sessions)), self.sizes()))

    def starts(self) -> np.ndarray:
        """Arrival time of each session's first packet."""
        def build():
            rows, offsets = self.session_rows()
            return self.table.time[rows[offsets[:-1]]]
        return self._cached("starts", build)

    def protocol_masks(self) -> np.ndarray:
        """OR of :data:`PROTOCOL_BIT` over each session's packets."""
        def build():
            rows, offsets = self.session_rows()
            if not len(rows):
                return np.zeros(0, dtype=np.uint8)
            bits = _BIT_OF_NUMBER[self.table.protocol[rows]]
            return np.bitwise_or.reduceat(bits, offsets[:-1])
        return self._cached("protocol_masks", build)

    def source_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(hi, lo) halves of each session's source key (``hi`` is zero
        below the /128 level)."""
        def build():
            rows, offsets = self.session_rows()
            first = rows[offsets[:-1]]
            key_hi, key_lo = self.table.source_key_columns(self.level)
            hi = key_hi[first] if key_hi is not None \
                else np.zeros(len(first), dtype=np.uint64)
            return hi, key_lo[first]
        return self._cached("source_columns", build)

    def _source_index(self) -> tuple[np.ndarray, np.ndarray]:
        def build():
            # runs are sorted by source key: a source begins wherever
            # the key changes from one run to the next
            key_hi, key_lo = self.table.source_key_columns(self.level)
            heads = self.rows[self.bounds[:-1]]
            new = np.ones(len(heads), dtype=bool)
            new[1:] = key_lo[heads][1:] != key_lo[heads][:-1]
            if key_hi is not None:
                new[1:] |= key_hi[heads][1:] != key_hi[heads][:-1]
            by_key = (np.cumsum(new) - 1)[self.run_of]
            # renumber sources in order of their first session
            _, firsts = np.unique(by_key, return_index=True)
            rank = np.empty(len(firsts), dtype=np.int64)
            rank[np.argsort(firsts)] = np.arange(len(firsts))
            return rank[by_key], np.sort(firsts)
        return self._cached("source_index", build)

    def source_codes(self) -> np.ndarray:
        """Per session, the index of its source in :meth:`source_keys`."""
        return self._source_index()[0]

    def sessions_per_source(self) -> np.ndarray:
        """Session count of each source, in :meth:`source_keys` order."""
        return self._cached("sessions_per_source", lambda: np.bincount(
            self.source_codes(), minlength=len(self._source_index()[1])))

    def source_keys(self) -> list[int]:
        """Distinct source keys in order of their first session: the
        order of :meth:`by_source`."""
        return self._cached("source_keys", lambda: [
            self.sessions[i].source
            for i in self._source_index()[1].tolist()])

    def __iter__(self) -> Iterator[Session]:
        return iter(self.sessions)

    def sources(self) -> set[int]:
        return {s.source for s in self.sessions}

    def by_source(self) -> dict[int, list[Session]]:
        grouped: dict[int, list[Session]] = {}
        for session in self.sessions:
            grouped.setdefault(session.source, []).append(session)
        for sessions in grouped.values():
            sessions.sort(key=lambda s: s.start)
        return grouped

    def total_packets(self) -> int:
        return sum(len(s) for s in self.sessions)


def sessionize(packets: Iterable[Packet], telescope: str = "",
               level: AggregationLevel = AggregationLevel.ADDR,
               timeout: float = DEFAULT_TIMEOUT) -> SessionSet:
    """Group packets into scan sessions.

    Packets are grouped per aggregated source, ordered by arrival, and cut
    whenever the gap to the previous packet reaches ``timeout``.
    """
    if timeout <= 0:
        raise AnalysisError(f"session timeout must be > 0, got {timeout}")
    per_source: dict[int, list[Packet]] = {}
    for packet in packets:
        per_source.setdefault(source_key(packet.src, level),
                              []).append(packet)
    result = SessionSet(telescope=telescope, level=level, timeout=timeout)
    for source in sorted(per_source):
        stream = per_source[source]
        # captures append in arrival order, so streams are usually already
        # time-sorted; only pay for the sort when a pair is out of order
        if any(b.time < a.time for a, b in zip(stream, stream[1:])):
            stream.sort(key=lambda p: p.time)
        current: list[Packet] = [stream[0]]
        for packet in stream[1:]:
            if packet.time - current[-1].time >= timeout:
                result.sessions.append(Session(
                    source=source, telescope=telescope, packets=current))
                current = [packet]
            else:
                current.append(packet)
        result.sessions.append(Session(
            source=source, telescope=telescope, packets=current))
    result.sessions.sort(key=lambda s: s.start)
    return result
