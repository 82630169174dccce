"""Telescope model.

A telescope owns one or more prefixes and a capture. Passive telescopes
only record; reactive telescopes additionally produce responses via a
:class:`repro.telescope.reactive.ReactiveResponder`, which is what makes
the paper's T4 discoverable by feedback-driven scanners (and keeps it off
the aliased-prefix hitlist, §3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ExperimentError
from repro.net.lpm import build_matcher
from repro.net.prefix import Prefix
from repro.telescope.capture import PacketCapture
from repro.telescope.reactive import ReactiveResponder


class TelescopeKind(enum.Enum):
    """Telescope interaction model (Table 1 columns)."""

    PASSIVE = "passive"      # originates nothing
    TRACEABLE = "traceable"  # originates/receives author-controlled traffic
    ACTIVE = "active"        # reacts to connection attempts


@dataclass
class Telescope:
    """One of the four observation points."""

    name: str
    kind: TelescopeKind
    prefixes: list[Prefix]
    capture: PacketCapture
    responder: ReactiveResponder | None = None
    #: addresses with DNS exposure inside the telescope (T2's attractor).
    dns_exposed: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not self.prefixes:
            raise ExperimentError(f"telescope {self.name} has no prefixes")
        if self.kind is TelescopeKind.ACTIVE and self.responder is None:
            raise ExperimentError(
                f"active telescope {self.name} needs a responder")

    def deliver_batch(self, time, src_hi, src_lo, dst_hi, dst_lo, protocol,
                      dst_port, src_asn, scanner_id, payload_id=None,
                      payloads=None) -> int:
        """Record a column batch; returns how many probes it answered.

        The router only hands a telescope rows it owns. The responder
        sees every arriving probe, including ones the capture filter or
        a blackout drops; a passive telescope answers none. Responses
        are not materialized as packets — scanners only need the
        feedback signal (did the target answer?).
        """
        self.capture.append_batch(
            time, src_hi, src_lo, dst_hi, dst_lo, protocol, dst_port,
            src_asn, scanner_id, payload_id=payload_id, payloads=payloads)
        if self.responder is None:
            return 0
        return self.responder.respond_batch(protocol, dst_hi, dst_lo,
                                            dst_port)

    @property
    def packet_count(self) -> int:
        return len(self.capture)


def prefix_router(telescopes: Sequence[Telescope]):
    """A packet router over the telescopes' own, fixed prefixes.

    The returned ``route(dst_hi, dst_lo, time) -> (slots, telescopes)``
    has the signature of
    :meth:`repro.telescope.deployment.Deployment.route_batch`: each row's
    slot indexes ``telescopes`` (the most-specific covering prefix wins)
    or is ``-1`` when no telescope owns the destination. Routing does not
    depend on time.
    """
    telescopes = tuple(telescopes)
    matcher = build_matcher([(prefix, slot)
                             for slot, telescope in enumerate(telescopes)
                             for prefix in telescope.prefixes])

    def route(dst_hi, dst_lo, time):
        return matcher.lookup(dst_hi, dst_lo), telescopes
    return route
