"""Tests for repro.scanners.registry and tools."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.scanners.registry import (ASRegistry, NetworkType,
                                     source_prefix_for_asn)
from repro.scanners.tools import RIPE_ATLAS, TOOL_SIGNATURES, YARRP6


class TestSourcePrefix:
    def test_deterministic(self):
        assert source_prefix_for_asn(1234) == source_prefix_for_asn(1234)

    def test_distinct_per_asn(self):
        assert source_prefix_for_asn(1) != source_prefix_for_asn(2)

    def test_length_48(self):
        assert source_prefix_for_asn(77).length == 48

    def test_invalid_asn(self):
        with pytest.raises(ExperimentError):
            source_prefix_for_asn(0)


class TestASRegistry:
    def test_allocate(self):
        registry = ASRegistry()
        record = registry.allocate(NetworkType.HOSTING, country="DE")
        assert record.network_type is NetworkType.HOSTING
        assert record.country == "DE"
        assert registry.get(record.asn) is record

    def test_lookup_source(self):
        registry = ASRegistry()
        record = registry.allocate(NetworkType.ISP)
        addr = record.source_prefix.network | 42
        assert registry.lookup_source(addr) is record
        assert registry.network_type_of(addr) is NetworkType.ISP

    def test_lookup_unknown_space(self):
        registry = ASRegistry()
        registry.allocate(NetworkType.ISP)
        assert registry.lookup_source(1) is None
        assert registry.network_type_of(1) is NetworkType.UNKNOWN

    def test_unknown_asn_raises(self):
        with pytest.raises(ExperimentError):
            ASRegistry().get(5)

    def test_countries_collected(self):
        registry = ASRegistry()
        for country in ("DE", "NL", "DE"):
            registry.allocate(NetworkType.ISP, country=country)
        registry.allocate(NetworkType.HOSTING)
        assert [record.country for record in registry.records()] \
            == ["DE", "NL", "DE", "US"]


class TestToolSignatures:
    def test_payload_carries_magic(self):
        rng = np.random.default_rng(0)
        payload = YARRP6.payload(rng, seq=7)
        assert payload.startswith(YARRP6.magic)
        assert YARRP6.matches(payload)

    def test_magics_unambiguous(self):
        for a in TOOL_SIGNATURES:
            for b in TOOL_SIGNATURES:
                if a is not b:
                    assert not a.magic.startswith(b.magic)

    def test_rdns_template(self):
        assert RIPE_ATLAS.rdns_for(3) == "probe-3.atlas.ripe.net"
        assert YARRP6.rdns_for(3) == ""
