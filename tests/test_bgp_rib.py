"""Tests for repro.bgp.rib and messages."""

import pytest

from repro.bgp.messages import Announcement, UpdateKind, Withdrawal
from repro.bgp.rib import LOCAL_PREF, AdjRibIn, LocRib, Route
from repro.net.addr import parse_addr
from repro.net.prefix import Prefix

P = Prefix.parse("2001:db8::/32")


def route(pref: int, path: tuple[int, ...], neighbor: int = 1) -> Route:
    return Route(prefix=P, as_path=path, neighbor=neighbor, local_pref=pref)


class TestMessages:
    def test_announcement_origin(self):
        a = Announcement(prefix=P, as_path=(1, 2, 3))
        assert a.origin == 3
        assert a.kind is UpdateKind.ANNOUNCE

    def test_loop_detection(self):
        a = Announcement(prefix=P, as_path=(1, 2, 3))
        assert a.contains_loop(2)
        assert not a.contains_loop(4)

    def test_withdrawal_kind(self):
        assert Withdrawal(prefix=P).kind is UpdateKind.WITHDRAW


class TestRouteSelection:
    def test_local_pref_wins(self):
        customer = route(LOCAL_PREF["customer"], (1, 9, 9, 9))
        provider = route(LOCAL_PREF["provider"], (2, 9))
        assert customer.preference_key() < provider.preference_key()

    def test_shorter_path_wins_at_equal_pref(self):
        short = route(200, (1, 9))
        long = route(200, (2, 8, 9))
        assert short.preference_key() < long.preference_key()

    def test_lowest_neighbor_tie_break(self):
        a = route(200, (1, 9), neighbor=1)
        b = route(200, (2, 9), neighbor=2)
        assert a.preference_key() < b.preference_key()

    def test_origin(self):
        assert route(100, (5, 6, 7)).origin == 7


class TestAdjRibIn:
    def test_put_get_remove(self):
        rib = AdjRibIn()
        r = route(100, (1, 2))
        rib.put(r)
        assert rib.get(P) is r
        assert len(rib) == 1
        assert rib.remove(P) is r
        assert rib.get(P) is None
        assert rib.remove(P) is None


class TestLocRib:
    def test_install_resolve(self):
        rib = LocRib()
        rib.install(route(100, (1,)))
        hit = rib.resolve(parse_addr("2001:db8::1"))
        assert hit is not None and hit.prefix == P

    def test_longest_prefix_resolution(self):
        rib = LocRib()
        inner = Prefix.parse("2001:db8::/48")
        rib.install(Route(prefix=P, as_path=(1,), neighbor=1,
                          local_pref=100))
        rib.install(Route(prefix=inner, as_path=(2,), neighbor=2,
                          local_pref=100))
        hit = rib.resolve(parse_addr("2001:db8::1"))
        assert hit.prefix == inner

    def test_uninstall(self):
        rib = LocRib()
        rib.install(route(100, (1,)))
        assert rib.uninstall(P) is not None
        assert rib.resolve(parse_addr("2001:db8::1")) is None
        assert rib.uninstall(P) is None

    def test_routes_listing(self):
        rib = LocRib()
        rib.install(route(100, (1,)))
        assert rib.prefixes() == [P]
