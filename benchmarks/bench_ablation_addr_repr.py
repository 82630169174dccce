"""Ablation — address/packet representation: ints, objects, columns.

DESIGN.md: the library stores addresses as plain 128-bit ints; the hot
analysis paths additionally store packets as NumPy columns
(:class:`repro.core.columnar.PacketTable`). This ablation measures
containment/classification throughput for int vs ``ipaddress`` objects,
and sessionization throughput for a per-packet object loop (the rejected
design, kept here only as the baseline) vs the columnar engine, to
justify both choices.
"""

import ipaddress

import numpy as np
import pytest

from repro.core.columnar import PacketTable, sessionize_table
from repro.net.addrgen import random_targets
from repro.net.addrtypes import classify_address
from repro.net.prefix import Prefix
from repro.sim.clock import HOUR
from repro.telescope.packet import ICMPV6, Packet

P = Prefix.parse("3fff:1000::/32")
N = 20_000


@pytest.fixture(scope="module")
def int_addresses():
    rng = np.random.default_rng(0)
    return random_targets(P, rng, N)


@pytest.fixture(scope="module")
def object_addresses(int_addresses):
    return [ipaddress.IPv6Address(a) for a in int_addresses]


def test_ablation_contains_int(benchmark, int_addresses):
    def run():
        return sum(1 for a in int_addresses if P.contains_address(a))
    assert benchmark(run) == N


def test_ablation_contains_ipaddress(benchmark, object_addresses):
    network = ipaddress.IPv6Network("3fff:1000::/32")

    def run():
        return sum(1 for a in object_addresses if a in network)
    assert benchmark(run) == N


def test_ablation_classify_int(benchmark, int_addresses):
    def run():
        return sum(1 for a in int_addresses
                   if classify_address(a) is not None)
    assert benchmark(run) == N


def test_ablation_classify_via_ipaddress(benchmark, object_addresses):
    """Classification that must first unwrap an object representation."""
    def run():
        return sum(1 for a in object_addresses
                   if classify_address(int(a)) is not None)
    assert benchmark(run) == N


# -- packet representation: dataclass walk vs PacketTable columns ----------

def sessionize_objects(packets: list[Packet], timeout: float = HOUR) -> int:
    """Session count of a per-source walk over ``Packet`` objects: group
    by source, order each stream by arrival, cut at gaps >= timeout."""
    streams: dict[int, list[float]] = {}
    for packet in packets:
        streams.setdefault(packet.src, []).append(packet.time)
    sessions = 0
    for times in streams.values():
        times.sort()
        sessions += 1 + sum(1 for a, b in zip(times, times[1:])
                            if b - a >= timeout)
    return sessions


@pytest.fixture(scope="module")
def session_packets(int_addresses):
    """A scan stream: many sources, bursty arrivals over two days."""
    rng = np.random.default_rng(1)
    times = np.sort(rng.uniform(0, 48 * HOUR, size=N))
    return [Packet(time=float(t),
                   src=((int(a) >> 64) << 64) | (int(a) & 0xFFFF),
                   dst=int(a), protocol=ICMPV6)
            for t, a in zip(times, int_addresses)]


@pytest.fixture(scope="module")
def session_table(session_packets):
    return PacketTable.from_packets(session_packets)


def test_ablation_sessionize_objects(benchmark, session_packets):
    result = benchmark(lambda: sessionize_objects(session_packets))
    assert result > 0


def test_ablation_sessionize_columnar(benchmark, session_packets,
                                      session_table):
    result = benchmark(lambda: len(sessionize_table(session_table)))
    assert result == sessionize_objects(session_packets)
