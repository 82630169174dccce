#!/usr/bin/env python3
"""Why IPv6 telescopes cannot monitor DDoS (§8).

IPv4 darknets see DDoS attacks through backscatter: victims of randomly
spoofed floods reply toward the spoofed addresses, and a /8 telescope
captures 1/256 of those replies. This example launches the same attack
against an IPv6 victim and shows that even a /29 telescope captures
(essentially) nothing — the paper's negative result, measured.

Usage:
    python examples/ddos_backscatter.py [attack_packets]
"""

import sys

import numpy as np

from repro.net.prefix import Prefix
from repro.scanners.backscatter import (DDoSAttack,
                                        expected_backscatter_captures,
                                        ipv4_equivalent_captures)
from repro.scanners.base import ScannerContext
from repro.sim.events import Simulator
from repro.telescope.capture import PacketCapture
from repro.telescope.telescope import (Telescope, TelescopeKind,
                                       prefix_router)

TELESCOPES = {
    "/29 (the paper's covering prefix)": Prefix.parse("3fff:4000::/29"),
    "/32 (T1)": Prefix.parse("3fff:1000::/32"),
    "/48 (T2)": Prefix.parse("3fff:2000::/48"),
}


def main() -> int:
    packets = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
    victim = Prefix.parse("2001:db8:1::/48").network | 0x50

    print(f"spoofed-source flood: {packets:,} packets against one victim;"
          " victim replies (backscatter) go to random 2000::/3 "
          "addresses\n")

    scopes = [Telescope(name=label, kind=TelescopeKind.PASSIVE,
                        prefixes=[prefix], capture=PacketCapture())
              for label, prefix in TELESCOPES.items()]

    ctx = ScannerContext(simulator=Simulator(), route=prefix_router(scopes))
    attack = DDoSAttack(victim=victim, packets=packets,
                        rng=np.random.default_rng(0))
    captured = attack.run(ctx)

    print(f"{'telescope':<36} {'captured':>9} {'expected':>12}")
    for label, prefix in TELESCOPES.items():
        telescope = next(t for t in scopes if t.name == label)
        expected = expected_backscatter_captures([prefix], packets)
        print(f"{label:<36} {telescope.packet_count:>9,} "
              f"{expected:>12.2e}")
    print(f"{'all three combined':<36} {captured:>9,}")

    ipv4 = ipv4_equivalent_captures(8, packets)
    print(f"\nfor comparison, an IPv4 /8 darknet would capture "
          f"~{ipv4:,.0f} of the same flood's backscatter")
    print("=> IPv6 background radiation cannot monitor DDoS; telescopes "
          "need new methods (§8)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
