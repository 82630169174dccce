"""§8 negative result — IPv6 telescopes cannot monitor DDoS.

Paper: "It is very unlikely to capture packets with randomly selected
IPv6 destination addresses in a telescope." This benchmark floods a
victim with spoofed sources and measures the backscatter captured by the
deployment's telescopes (expected and measured: zero), against the IPv4
/8 reference that would capture 1/256 of the flood.
"""

import numpy as np
from conftest import print_comparison

from repro.net.prefix import Prefix
from repro.scanners.backscatter import (DDoSAttack,
                                        expected_backscatter_captures,
                                        ipv4_equivalent_captures)
from repro.scanners.base import ScannerContext
from repro.sim.events import Simulator
from repro.telescope.capture import PacketCapture
from repro.telescope.telescope import (Telescope, TelescopeKind,
                                       prefix_router)

PREFIXES = [Prefix.parse("3fff:1000::/32"),   # T1
            Prefix.parse("3fff:2000::/48"),   # T2
            Prefix.parse("3fff:4000::/29")]   # covering prefix of T3/T4
ATTACK_PACKETS = 500_000


def test_ddos_backscatter(benchmark):
    telescope = Telescope(name="combined", kind=TelescopeKind.PASSIVE,
                          prefixes=PREFIXES, capture=PacketCapture())
    ctx = ScannerContext(simulator=Simulator(),
                         route=prefix_router([telescope]))
    attack = DDoSAttack(victim=Prefix.parse("2001:db8::/32").network | 1,
                        packets=ATTACK_PACKETS,
                        rng=np.random.default_rng(0))
    captured = benchmark.pedantic(attack.run, args=(ctx,),
                                  rounds=1, iterations=1)
    expected = expected_backscatter_captures(PREFIXES, ATTACK_PACKETS)
    ipv4 = ipv4_equivalent_captures(8, ATTACK_PACKETS)
    print_comparison("§8 DDoS backscatter", [
        ("captured (IPv6, /29+/32+/48)", "~0", str(captured)),
        ("analytic expectation", "~0", f"{expected:.2e}"),
        ("IPv4 /8 reference", f"{ATTACK_PACKETS // 256:,}",
         f"{ipv4:,.0f}"),
    ])
    assert captured == 0
    # under one-hundredth of a packet expected across all telescopes
    assert expected < 0.1
    assert ipv4 > 1000
