"""Tests for repro.net.prefix."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PrefixError
from repro.net.addr import MAX_ADDR, parse_addr
from repro.net.prefix import Prefix, PrefixSet

prefix_lengths = st.integers(min_value=0, max_value=128)
addresses = st.integers(min_value=0, max_value=MAX_ADDR)


@st.composite
def prefixes(draw):
    length = draw(prefix_lengths)
    network = draw(addresses)
    return Prefix(network, length)


class TestConstruction:
    def test_parse(self):
        p = Prefix.parse("2001:db8::/32")
        assert p.length == 32
        assert p.network == 0x20010DB8 << 96

    def test_parse_masks_host_bits(self):
        assert Prefix.parse("2001:db8::1/32") == Prefix.parse("2001:db8::/32")

    def test_parse_missing_length(self):
        with pytest.raises(PrefixError):
            Prefix.parse("2001:db8::")

    def test_parse_bad_length(self):
        with pytest.raises(PrefixError):
            Prefix.parse("2001:db8::/129")

    def test_str_roundtrip(self):
        p = Prefix.parse("3fff:1000::/32")
        assert Prefix.parse(str(p)) == p

    @given(prefixes())
    def test_network_always_masked(self, p):
        assert p.network & ~p.mask == 0


class TestProperties:
    def test_first_last(self):
        p = Prefix.parse("2001:db8::/126")
        assert p.last - p.first == 3

    def test_num_addresses(self):
        assert Prefix.parse("::/127").num_addresses == 2
        assert Prefix.parse("2001:db8::/32").num_addresses == 1 << 96

    def test_low_byte_address(self):
        p = Prefix.parse("2001:db8::/32")
        assert p.low_byte_address == parse_addr("2001:db8::1")


class TestContainment:
    def test_contains_address(self):
        p = Prefix.parse("2001:db8::/32")
        assert p.contains_address(parse_addr("2001:db8:ffff::5"))
        assert not p.contains_address(parse_addr("2001:db9::1"))

    def test_covers(self):
        outer = Prefix.parse("2001:db8::/32")
        inner = Prefix.parse("2001:db8:8000::/33")
        assert outer.covers(inner)
        assert not inner.covers(outer)
        assert outer.covers(outer)

    def test_overlaps(self):
        a = Prefix.parse("2001:db8::/33")
        b = Prefix.parse("2001:db8:8000::/33")
        assert not a.overlaps(b)
        assert a.overlaps(Prefix.parse("2001:db8::/32"))

    def test_dunder_contains(self):
        p = Prefix.parse("2001:db8::/32")
        assert parse_addr("2001:db8::1") in p
        assert Prefix.parse("2001:db8::/48") in p

    @given(prefixes(), addresses)
    def test_contains_matches_range(self, p, addr):
        assert p.contains_address(addr) == (p.first <= addr <= p.last)


class TestSplit:
    def test_split_halves(self):
        low, high = Prefix.parse("2001:db8::/32").split()
        assert low == Prefix.parse("2001:db8::/33")
        assert high == Prefix.parse("2001:db8:8000::/33")

    def test_split_128_rejected(self):
        with pytest.raises(PrefixError):
            Prefix(0, 128).split()

    @given(prefixes().filter(lambda p: p.length < 128))
    def test_split_partitions(self, p):
        low, high = p.split()
        assert low.num_addresses + high.num_addresses == p.num_addresses
        assert p.covers(low) and p.covers(high)
        assert not low.overlaps(high)
        assert low.first == p.first
        assert high.last == p.last


class TestSubnets:
    def test_subnet_indexing(self):
        p = Prefix.parse("2001:db8::/32")
        assert p.subnet(33, 1) == Prefix.parse("2001:db8:8000::/33")
        assert p.subnet(48, 0xFFFF) == Prefix.parse("2001:db8:ffff::/48")

    def test_subnet_index_out_of_range(self):
        with pytest.raises(PrefixError):
            Prefix.parse("2001:db8::/32").subnet(33, 2)

    def test_subnet_shorter_rejected(self):
        with pytest.raises(PrefixError):
            Prefix.parse("2001:db8::/32").subnet(31, 0)

    def test_subnet_index_roundtrip(self):
        p = Prefix.parse("2001:db8::/32")
        sub = p.subnet(48, 1234)
        assert p.subnet_index(sub.network, 48) == 1234

    def test_subnet_index_outside_rejected(self):
        with pytest.raises(PrefixError):
            Prefix.parse("2001:db8::/32").subnet_index(0, 48)


class TestRandomAddress:
    def test_stays_inside(self):
        rng = np.random.default_rng(1)
        p = Prefix.parse("2001:db8::/29")
        for _ in range(100):
            assert p.contains_address(p.random_address(rng))

    def test_full_prefix_returns_network(self):
        rng = np.random.default_rng(1)
        p = Prefix(5, 128)
        assert p.random_address(rng) == 5

    def test_iid_entropy_present(self):
        rng = np.random.default_rng(1)
        p = Prefix.parse("2001:db8::/32")
        iids = {p.random_address(rng) & ((1 << 64) - 1) for _ in range(30)}
        assert len(iids) == 30


class TestPrefixSet:
    def test_lookup_most_specific(self):
        ps = PrefixSet([Prefix.parse("2001:db8::/32"),
                        Prefix.parse("2001:db8::/48")])
        hit = ps.lookup(parse_addr("2001:db8::5"))
        assert hit == Prefix.parse("2001:db8::/48")

    def test_lookup_miss(self):
        ps = PrefixSet([Prefix.parse("2001:db8::/32")])
        assert ps.lookup(parse_addr("2001:db9::1")) is None

    def test_covering_order(self):
        ps = PrefixSet([Prefix.parse("2001:db8::/48"),
                        Prefix.parse("2001:db8::/32")])
        covering = ps.covering(parse_addr("2001:db8::1"))
        assert [p.length for p in covering] == [32, 48]

    def test_add_discard(self):
        ps = PrefixSet()
        p = Prefix.parse("::/0")
        ps.add(p)
        assert p in ps and len(ps) == 1
        ps.discard(p)
        assert len(ps) == 0

    def test_iteration_sorted(self):
        a = Prefix.parse("2001:db8:8000::/33")
        b = Prefix.parse("2001:db8::/33")
        assert list(PrefixSet([a, b])) == [b, a]
