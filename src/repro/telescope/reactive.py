"""Reactive telescope behavior (T4).

T4 "actively accepts TCP connections and reacts to scanning requests"
(§3.1) — every address answers. Notably it never appeared on the aliased
prefix list, which we reproduce by answering deterministically rather than
echoing arbitrary probes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telescope.packet import ICMPV6, TCP, UDP


@dataclass
class ReactiveResponder:
    """Answers probes the way the paper's T4 does.

    Attributes:
        accept_tcp: answer TCP SYNs on any port.
        accept_icmpv6: answer echo requests.
        accept_udp: T4 did not answer UDP probes.
    """

    accept_tcp: bool = True
    accept_icmpv6: bool = True
    accept_udp: bool = False
    responses_sent: int = 0

    def respond_batch(self, protocol: np.ndarray, dst_hi: np.ndarray,
                      dst_lo: np.ndarray, dst_port: np.ndarray) -> int:
        """Answer a probe batch; returns how many probes were answered."""
        answered = np.zeros(len(protocol), dtype=bool)
        if self.accept_tcp:
            answered |= protocol == int(TCP)
        if self.accept_icmpv6:
            answered |= protocol == int(ICMPV6)
        if self.accept_udp:
            answered |= protocol == int(UDP)
        count = int(np.count_nonzero(answered))
        self.responses_sent += count
        return count
