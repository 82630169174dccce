"""Packet records.

A :class:`Packet` is one row of a :class:`repro.core.columnar.PacketTable`
as a record: the fields the paper's pipeline uses — arrival time, source
and destination address, transport protocol, destination port, and an
optional payload (used for tool fingerprinting, §5.4). Source ASN is
resolved at capture time so analyses need no reverse lookup. Captures and
analyses keep packets as table columns; records exist only where a caller
builds a table from them or asks a table for its rows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Protocol(enum.IntEnum):
    """Transport protocols observed at the telescopes (IANA numbers)."""

    TCP = 6
    UDP = 17
    ICMPV6 = 58


#: Convenience aliases.
TCP = Protocol.TCP
UDP = Protocol.UDP
ICMPV6 = Protocol.ICMPV6

#: Default traceroute destination port range (§4.2 Table 4 footnote).
TRACEROUTE_PORT_RANGE = (33434, 33523)


def is_traceroute_port(port: int) -> bool:
    """True if ``port`` falls in the classic UDP traceroute range."""
    low, high = TRACEROUTE_PORT_RANGE
    return low <= port <= high


@dataclass(frozen=True, slots=True)
class Packet:
    """One captured probe packet.

    Attributes:
        time: arrival time (simulation seconds).
        src: source address (128-bit int).
        dst: destination address (128-bit int).
        protocol: transport protocol.
        dst_port: destination port; 0 for ICMPv6.
        payload: raw payload bytes, or ``None`` for empty probes.
        src_asn: origin AS of the source address.
        scanner_id: ground-truth scanner identity (never exposed to the
            analysis pipeline; used only for validation tests).
    """

    time: float
    src: int
    dst: int
    protocol: Protocol
    dst_port: int = 0
    payload: bytes | None = None
    src_asn: int = 0
    scanner_id: int = -1

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"packet time must be >= 0, got {self.time}")
        if not 0 <= self.dst_port <= 0xFFFF:
            raise ValueError(f"invalid destination port {self.dst_port}")
