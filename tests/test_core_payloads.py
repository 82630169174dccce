"""Tests for repro.core.payloads."""

import hashlib
import json

import numpy as np
import pytest

from repro.core.dbscan import NOISE, num_clusters
from repro.core.payloads import (cluster_payloads, identify_tools,
                                 payload_prefix)
from repro.core.sessions import Session
from repro.dns.resolver import Resolver
from repro.dns.zone import Zone
from repro.scanners.tools import (RIPE_ATLAS, SIX_SENSE, TOOL_SIGNATURES,
                                  YARRP6)
from repro.telescope.packet import ICMPV6, Packet


def session_with_payloads(source: int, payloads: list[bytes | None]) \
        -> Session:
    packets = [Packet(time=float(i), src=source, dst=2, protocol=ICMPV6,
                      payload=p) for i, p in enumerate(payloads)]
    return Session(source=source, telescope="T1", packets=packets)


class TestPayloadPrefix:
    def test_pads_short(self):
        assert payload_prefix(b"ab") == b"ab" + b"\x00" * 6

    def test_truncates_long(self):
        assert payload_prefix(b"abcdefghij") == b"abcdefgh"


class TestClusterPayloads:
    def test_same_tool_clusters_together(self):
        rng = np.random.default_rng(0)
        payloads = [YARRP6.payload(rng, i) for i in range(5)] \
            + [SIX_SENSE.payload(rng, i) for i in range(5)]
        labels = cluster_payloads(payloads)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_empty(self):
        assert cluster_payloads([]) == []

    def test_labels_at_sample_cap_match_reference(self):
        """1,500 seeded payloads (``identify_tools``' sample cap): tool
        probes, random bytes of 1-23 bytes and mutations of one 8-byte
        prefix. The digest was recorded with the former pairwise
        pure-Python Hamming metric."""
        rng = np.random.default_rng(2024)
        payloads = []
        for _ in range(1500):
            kind = int(rng.integers(0, 10))
            if kind < 6:
                tool = TOOL_SIGNATURES[int(rng.integers(
                    0, len(TOOL_SIGNATURES)))]
                payloads.append(tool.payload(
                    rng, seq=int(rng.integers(0, 2 ** 32))))
            elif kind < 9:
                payloads.append(bytes(rng.integers(
                    0, 256, size=int(rng.integers(1, 24))).tolist()))
            else:
                base = bytearray(b"\x13\x37\xca\xfe\x00\x00\x00\x00")
                for _ in range(int(rng.integers(0, 4))):
                    base[int(rng.integers(0, 8))] = int(rng.integers(0, 256))
                payloads.append(bytes(base))
        labels = cluster_payloads(payloads)
        assert num_clusters(labels) == 45
        assert labels.count(NOISE) == 564
        digest = hashlib.sha256(json.dumps(labels).encode()).hexdigest()
        assert digest == ("ba6d4fc383b78e7f89009d31d924d071"
                          "9896ae58be5649ee68c0ebff95921682")


class TestIdentifyTools:
    def test_payload_attribution(self):
        rng = np.random.default_rng(0)
        sessions = [
            session_with_payloads(1, [YARRP6.payload(rng, i)
                                      for i in range(3)]),
            session_with_payloads(1, [YARRP6.payload(rng, i)
                                      for i in range(3)]),
            session_with_payloads(2, [RIPE_ATLAS.payload(rng, 0)]),
        ]
        report = identify_tools(sessions)
        assert report.source_tools[1] == "Yarrp6"
        assert report.source_tools[2] == "RIPEAtlasProbe"
        assert report.per_tool["Yarrp6"] == (1, 2)

    def test_rdns_fallback(self):
        zone = Zone(origin="rdns.")
        zone.add_ptr(42, "probe-7.atlas.ripe.net")
        resolver = Resolver([zone])
        sessions = [session_with_payloads(42, [None, None])]
        report = identify_tools(sessions, resolver=resolver)
        assert report.source_tools[42] == "RIPEAtlasProbe"

    def test_unknown_payloads_stay_unattributed(self):
        sessions = [session_with_payloads(1, [b"\xde\xad\xbe\xef" * 4] * 3)]
        report = identify_tools(sessions)
        assert 1 not in report.source_tools
        # but the cluster itself is visible as random-bytes/unknown
        assert any(c.tool is None for c in report.clusters)

    def test_empty_sessions(self):
        report = identify_tools([])
        assert report.per_tool == {}
