"""Tests for the repro.dns substrate."""

import pytest

from repro.dns.resolver import Resolver
from repro.dns.umbrella import UmbrellaList
from repro.dns.zone import RecordType, ResourceRecord, Zone, reverse_name
from repro.errors import ReproError
from repro.net.addr import parse_addr


class TestZone:
    def test_add_aaaa_and_lookup(self):
        zone = Zone(origin="example.net.")
        record = zone.add_aaaa("www.example.net.", "2001:db8::1")
        assert record.data == parse_addr("2001:db8::1")
        hits = zone.lookup("www.example.net.", RecordType.AAAA)
        assert len(hits) == 1

    def test_lookup_case_insensitive(self):
        zone = Zone(origin="example.net.")
        zone.add_aaaa("WWW.Example.NET.", "2001:db8::1")
        assert zone.lookup("www.example.net.", RecordType.AAAA)

    def test_duplicate_records_deduplicated(self):
        zone = Zone(origin="example.net.")
        zone.add_aaaa("www.example.net.", "2001:db8::1")
        zone.add_aaaa("www.example.net.", "2001:db8::1")
        assert len(zone) == 1

    def test_record_validation(self):
        with pytest.raises(ReproError):
            ResourceRecord(name="", rtype=RecordType.AAAA, data=1)
        with pytest.raises(ReproError):
            ResourceRecord(name="x.", rtype=RecordType.AAAA, data="no")
        with pytest.raises(ReproError):
            ResourceRecord(name="x.", rtype=RecordType.PTR, data=1)

    def test_aaaa_addresses(self):
        zone = Zone(origin="example.net.")
        zone.add_aaaa("a.example.net.", "2001:db8::1")
        zone.add_aaaa("b.example.net.", "2001:db8::2")
        assert zone.aaaa_addresses() == {parse_addr("2001:db8::1"),
                                         parse_addr("2001:db8::2")}

    def test_names(self):
        zone = Zone(origin="example.net.")
        zone.add_aaaa("a.example.net.", 1)
        zone.add_ptr(1, "a.example.net.")
        assert "a.example.net." in zone.names(RecordType.AAAA)
        assert len(zone.names()) == 2


class TestReverseName:
    def test_format(self):
        name = reverse_name("2001:db8::1")
        assert name.endswith(".ip6.arpa.")
        assert name.startswith("1.0.0.0.")
        assert name.count(".") == 34


class TestResolver:
    def test_forward_resolution(self):
        zone = Zone(origin="example.net.")
        zone.add_aaaa("www.example.net.", "2001:db8::1")
        resolver = Resolver([zone])
        assert resolver.resolve("www.example.net.") \
            == [parse_addr("2001:db8::1")]

    def test_reverse_resolution(self):
        zone = Zone(origin="rdns.")
        zone.add_ptr("2001:db8::1", "scanner.example.org")
        resolver = Resolver([zone])
        assert resolver.reverse("2001:db8::1") == "scanner.example.org"
        assert resolver.reverse("2001:db8::2") is None

    def test_multiple_zones(self):
        a = Zone(origin="a.")
        b = Zone(origin="b.")
        a.add_aaaa("x.a.", 1)
        b.add_aaaa("x.a.", 2)
        resolver = Resolver([a])
        resolver.add_zone(b)
        assert sorted(resolver.resolve("x.a.")) == [1, 2]


class TestUmbrellaList:
    def test_append_rank(self):
        u = UmbrellaList()
        assert u.add("a.example") == 1
        assert u.add("b.example") == 2

    def test_insert_rank(self):
        u = UmbrellaList()
        u.add("a.example")
        assert u.add("b.example", rank=1) == 1
        assert u.rank_of("a.example") == 2

    def test_duplicate_keeps_rank(self):
        u = UmbrellaList()
        u.add("a.example")
        assert u.add("a.example") == 1
        assert len(u) == 1

    def test_contains_and_top(self):
        u = UmbrellaList()
        u.add("a.example")
        u.add("b.example")
        assert "A.EXAMPLE" in u
        assert u.top(1) == ["a.example"]

    def test_invalid(self):
        with pytest.raises(ReproError):
            UmbrellaList().add("")
        with pytest.raises(ReproError):
            UmbrellaList().add("x", rank=0)

    def test_unlisted_rank_none(self):
        assert UmbrellaList().rank_of("nope") is None
