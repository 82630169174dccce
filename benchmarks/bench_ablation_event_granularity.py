"""Ablation — session-burst simulation vs per-packet events.

DESIGN.md: the driver schedules *sessions* and expands each into a timed
packet burst, instead of scheduling one simulator event per packet. This
ablation quantifies the saving by capturing the same packet stream both
ways: one column batch per session event, against a one-row batch per
packet event.
"""

import numpy as np
import pytest

from repro.net.prefix import Prefix
from repro.sim.events import Simulator
from repro.telescope.capture import PacketCapture
from repro.telescope.packet import ICMPV6

P = Prefix.parse("3fff:1000::/32")
NUM_SESSIONS = 200
PACKETS_PER_SESSION = 100


def _session_plan():
    rng = np.random.default_rng(1)
    plan = []
    for s in range(NUM_SESSIONS):
        start = float(rng.uniform(0, 1e6))
        gaps = rng.exponential(0.25, size=PACKETS_PER_SESSION)
        plan.append((start, list(np.cumsum(gaps))))
    return plan


def _probes(times) -> dict:
    """Probes from one source to ``P``'s first address, as columns."""
    n = len(times)
    return dict(time=np.asarray(times, dtype=np.float64),
                src_hi=np.zeros(n, dtype=np.uint64),
                src_lo=np.ones(n, dtype=np.uint64),
                dst_hi=np.full(n, P.network >> 64, dtype=np.uint64),
                dst_lo=np.ones(n, dtype=np.uint64),
                protocol=np.full(n, int(ICMPV6), dtype=np.uint8),
                dst_port=np.zeros(n, dtype=np.uint16),
                src_asn=np.zeros(n, dtype=np.uint32),
                scanner_id=np.full(n, -1, dtype=np.int64))


@pytest.fixture(scope="module")
def plan():
    return _session_plan()


def test_ablation_session_bursts(benchmark, plan):
    """One simulator event per session; its packets in one batch."""
    def run():
        sim = Simulator()
        capture = PacketCapture()

        def fire(start, offsets):
            capture.append_batch(**_probes([start + o for o in offsets]))

        for start, offsets in plan:
            sim.schedule_at(start, lambda s=start, o=offsets: fire(s, o))
        sim.run_until(2e6)
        return len(capture)

    total = benchmark(run)
    assert total == NUM_SESSIONS * PACKETS_PER_SESSION


def test_ablation_per_packet_events(benchmark, plan):
    """One simulator event per packet (the rejected design)."""
    def run():
        sim = Simulator()
        capture = PacketCapture()
        for start, offsets in plan:
            for offset in offsets:
                t = start + offset
                sim.schedule_at(t, lambda t=t: capture.append_batch(
                    **_probes([t])))
        sim.run_until(2e6)
        return len(capture)

    total = benchmark(run)
    assert total == NUM_SESSIONS * PACKETS_PER_SESSION
