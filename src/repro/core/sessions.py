"""Scan sessions (§3.3).

A scan session is a sequence of consecutive packets from a single source in
which the inter-arrival time between subsequent packets stays below a
timeout T. Following Richter et al. and Zhao et al., the paper uses
T = 1 hour; no minimum packet or target count is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

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

    def __post_init__(self) -> None:
        if not self.packets:
            raise AnalysisError("a session needs at least one packet")

    @property
    def start(self) -> float:
        return self.packets[0].time

    @property
    def end(self) -> float:
        return self.packets[-1].time

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __len__(self) -> int:
        return len(self.packets)

    def protocols(self) -> set[Protocol]:
        return {p.protocol for p in self.packets}

    def dst_ports(self, protocol: Protocol | None = None) -> set[int]:
        return {p.dst_port for p in self.packets
                if protocol is None or p.protocol is protocol}

    def targets(self) -> list[int]:
        return [p.dst for p in self.packets]

    def distinct_targets(self) -> set[int]:
        return {p.dst for p in self.packets}


@dataclass
class SessionSet:
    """All sessions of one telescope at one aggregation level.

    :func:`repro.core.columnar.sessionize_table` also keeps its row
    layout: ``table`` rows ``rows[bounds[r]:bounds[r + 1]]`` are one
    session, in arrival order, and ``sessions[i]`` is run
    ``run_of[i]``. Column kernels read every session through it.
    """

    telescope: str
    level: AggregationLevel
    timeout: float
    sessions: list[Session] = field(default_factory=list)
    table: Any = field(default=None, compare=False, repr=False)
    rows: Any = field(default=None, compare=False, repr=False)
    bounds: Any = field(default=None, compare=False, repr=False)
    run_of: Any = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.sessions)

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
