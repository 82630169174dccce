"""Tests for repro.net.addr."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.net.addr import (MAX_ADDR, addr_to_int, addr_to_str, explode,
                            iid_of, nibbles_of, parse_addr, random_bits)

addresses = st.integers(min_value=0, max_value=MAX_ADDR)


class TestParsing:
    def test_parse_simple(self):
        assert parse_addr("::1") == 1

    def test_parse_full(self):
        assert parse_addr("2001:db8::1") == (0x20010DB8 << 96) | 1

    def test_parse_invalid(self):
        with pytest.raises(AddressError):
            parse_addr("not-an-address")

    def test_parse_ipv4_literal_rejected(self):
        with pytest.raises(AddressError):
            parse_addr("192.0.2.1")

    def test_addr_to_int_passthrough(self):
        assert addr_to_int(42) == 42

    def test_addr_to_int_range_check(self):
        with pytest.raises(AddressError):
            addr_to_int(MAX_ADDR + 1)
        with pytest.raises(AddressError):
            addr_to_int(-1)

    @given(addresses)
    def test_roundtrip(self, value):
        assert parse_addr(addr_to_str(value)) == value


class TestFormatting:
    def test_explode(self):
        assert explode(1) == "0000:0000:0000:0000:0000:0000:0000:0001"

    def test_explode_range_check(self):
        with pytest.raises(AddressError):
            explode(-1)

    @given(addresses)
    def test_explode_parses_back(self, value):
        assert parse_addr(explode(value)) == value


class TestNibbles:
    def test_nibbles_of_one(self):
        nibbles = nibbles_of(1)
        assert len(nibbles) == 32
        assert nibbles[-1] == 1
        assert sum(nibbles) == 1

    @given(addresses)
    def test_nibbles_roundtrip(self, value):
        assert nibbles_of(value) \
            == tuple(int(digit, 16) for digit in f"{value:032x}")


class TestSections:
    def test_iid_of(self):
        addr = (0xAAAA << 112) | 0x1234
        assert iid_of(addr) == 0x1234

    @given(addresses)
    def test_iid_is_low_64(self, value):
        assert iid_of(value) == value & ((1 << 64) - 1)


class TestRandomBits:
    def test_width_respected(self):
        rng = np.random.default_rng(0)
        for bits in (0, 1, 31, 32, 33, 64, 65, 128):
            for _ in range(20):
                value = random_bits(rng, bits)
                assert 0 <= value < (1 << bits) if bits else value == 0

    def test_negative_width_rejected(self):
        with pytest.raises(AddressError):
            random_bits(np.random.default_rng(0), -1)

    def test_high_bits_actually_used(self):
        rng = np.random.default_rng(0)
        values = [random_bits(rng, 128) for _ in range(50)]
        assert any(v >> 120 for v in values)
