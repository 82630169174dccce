"""Tests for repro.net.addrgen (generators match their claimed types)."""

import numpy as np
import pytest

from repro.errors import PrefixError
from repro.net.addrgen import (embedded_ipv4_address, embedded_port_address,
                               eui64_address, isatap_address,
                               low_byte_address, random_iid_address,
                               random_subnet, random_targets,
                               structured_sweep, wordy_address)
from repro.net.addrtypes import AddressType, classify_address
from repro.net.prefix import Prefix

P32 = Prefix.parse("3fff:1000::/32")
P48 = Prefix.parse("3fff:1000::/48")


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestGeneratorsMatchTypes:
    """Each generator must produce its advertised RFC 7707 category."""

    def test_low_byte(self):
        assert classify_address(low_byte_address(P32)) \
            is AddressType.LOW_BYTE

    def test_low_byte_range_check(self):
        with pytest.raises(PrefixError):
            low_byte_address(P32, host=0)
        with pytest.raises(PrefixError):
            low_byte_address(P32, host=0x10000)

    def test_random_iid(self, rng):
        for _ in range(20):
            value = random_iid_address(P32, rng)
            assert P32.contains_address(value)

    def test_embedded_ipv4(self, rng):
        for _ in range(20):
            value = embedded_ipv4_address(P32, rng)
            assert classify_address(value) is AddressType.EMBEDDED_IPV4
            assert P32.contains_address(value)

    def test_embedded_port(self, rng):
        for _ in range(20):
            value = embedded_port_address(P32, rng)
            assert classify_address(value) is AddressType.EMBEDDED_PORT

    def test_embedded_port_explicit(self, rng):
        value = embedded_port_address(P32, rng, port=443)
        assert value & 0xFFFF == 0x443

    def test_eui64(self, rng):
        for _ in range(20):
            value = eui64_address(P32, rng)
            assert classify_address(value) is AddressType.IEEE_DERIVED

    def test_isatap(self, rng):
        for _ in range(20):
            value = isatap_address(P32, rng)
            assert classify_address(value) is AddressType.ISATAP

    def test_wordy(self, rng):
        for _ in range(20):
            value = wordy_address(P32, rng)
            assert classify_address(value) is AddressType.PATTERN_BYTES


class TestStructuredSweep:
    def test_count_and_containment(self, rng):
        targets = structured_sweep(P32, rng, 50)
        assert len(targets) == 50
        assert all(P32.contains_address(t) for t in targets)

    def test_monotone(self, rng):
        targets = structured_sweep(P32, rng, 50)
        assert targets == sorted(targets)

    def test_zero_count(self, rng):
        assert structured_sweep(P32, rng, 0) == []


class TestRandomHelpers:
    def test_random_targets_inside(self, rng):
        targets = random_targets(P48, rng, 25)
        assert len(targets) == 25
        assert all(P48.contains_address(t) for t in targets)

    def test_random_subnet_inside(self, rng):
        for _ in range(20):
            subnet = random_subnet(P32, rng, 64)
            assert subnet.length == 64
            assert P32.covers(subnet)

    def test_random_subnet_shorter_rejected(self, rng):
        """A /48 has no /32 subnets; silently returning the prefix would
        let IID generators write over routed bits (reviewed bug)."""
        with pytest.raises(PrefixError):
            random_subnet(P48, rng, 32)

    def test_random_iid_handles_long_prefixes(self, rng):
        long_prefix = Prefix.parse("3fff:1000::/72")
        for _ in range(20):
            value = random_iid_address(long_prefix, rng)
            assert long_prefix.contains_address(value)
