"""DDoS backscatter simulation (§8: "Are IPv6 telescopes suitable to
monitor DDoS? No.").

IPv4 telescopes observe DDoS attacks through *backscatter*: victims of
randomly spoofed floods answer toward the spoofed sources, and a /8
telescope sees 1/256 of those answers. In IPv6, spoofed sources are drawn
from a 2^125-address unicast space, so even a /29 telescope expects a
~2^-26 fraction — practically nothing.

This module simulates a spoofed-source flood and the victim's backscatter
so the claim becomes a measured (and analytically checked) result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ExperimentError
from repro.net.addr import random_bits
from repro.net.prefix import Prefix
from repro.scanners.base import ScannerContext
from repro.scanners.strategies import split_targets
from repro.telescope.packet import Protocol

#: The global unicast space spoofed sources are drawn from (RFC 4291).
GLOBAL_UNICAST = Prefix.parse("2000::/3")

#: Most backscatter replies one column batch carries.
BATCH_ROWS = 1 << 16

_MASK64 = (1 << 64) - 1


@dataclass
class DDoSAttack:
    """A randomly spoofed flood against one victim.

    Attributes:
        victim: attacked address; its replies are the backscatter.
        packets: number of attack packets (= backscatter replies).
        spoof_space: prefix the spoofed sources are drawn from.
        reply_protocol: transport of the victim's replies (SYN/ACKs ->
            TCP, or ICMPv6 errors).
    """

    victim: int
    packets: int
    rng: np.random.Generator
    spoof_space: Prefix = GLOBAL_UNICAST
    reply_protocol: Protocol = Protocol.TCP
    reply_port: int = 443
    start: float = 0.0
    duration: float = 3600.0
    backscatter_sent: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.packets < 1:
            raise ExperimentError("an attack needs at least one packet")
        if self.duration <= 0:
            raise ExperimentError("attack duration must be positive")
        if self.start < 0:
            raise ExperimentError("attack start must be >= 0")
        if not 0 <= self.reply_port <= 0xFFFF:
            raise ExperimentError(f"invalid reply port {self.reply_port}")

    def spoofed_source(self) -> int:
        """One uniformly random spoofed source in the spoof space."""
        host_bits = 128 - self.spoof_space.length
        return self.spoof_space.network | random_bits(self.rng, host_bits)

    def run(self, ctx: ScannerContext) -> int:
        """Emit the victim's backscatter; returns telescope captures.

        Each attack packet makes the victim answer toward its spoofed
        source — that reply is what a telescope could capture. Replies
        leave in column batches of at most :data:`BATCH_ROWS`.
        """
        unrouted = ctx.packets_unrouted
        step = self.duration / self.packets
        t = self.start
        for first in range(0, self.packets, BATCH_ROWS):
            n = min(BATCH_ROWS, self.packets - first)
            times, targets = [], []
            for _ in range(n):
                targets.append(self.spoofed_source())
                times.append(t)
                t += step
            dst_hi, dst_lo = split_targets(targets)
            ctx.inject_batch(
                np.array(times), np.uint64(self.victim >> 64),
                np.uint64(self.victim & _MASK64), dst_hi, dst_lo,
                np.full(n, int(self.reply_protocol), dtype=np.uint8),
                np.full(n, self.reply_port, dtype=np.uint16),
                np.uint32(0), np.int64(-1))
            self.backscatter_sent += n
        return self.packets - (ctx.packets_unrouted - unrouted)


def expected_backscatter_captures(telescope_prefixes: list[Prefix],
                                  packets: int,
                                  spoof_space: Prefix = GLOBAL_UNICAST) \
        -> float:
    """Analytic expectation of captured backscatter packets.

    The capture probability is the telescope address space divided by the
    spoof space — the quantity that makes IPv6 background radiation
    useless for DDoS monitoring.
    """
    if packets < 0:
        raise ExperimentError("packet count must be >= 0")
    telescope_space = 0
    for prefix in telescope_prefixes:
        if not spoof_space.covers(prefix):
            continue
        telescope_space += prefix.num_addresses
    return packets * telescope_space / spoof_space.num_addresses


def ipv4_equivalent_captures(telescope_slash: int, packets: int) -> float:
    """What an IPv4 telescope of the given /N would have captured.

    Reference point for the §8 comparison: an IPv4 /8 darknet captures
    packets/256 of the backscatter of a uniformly spoofed flood.
    """
    if not 0 <= telescope_slash <= 32:
        raise ExperimentError(f"invalid IPv4 prefix length "
                              f"{telescope_slash}")
    return packets / (1 << telescope_slash)
