"""A resolver over a set of zones, including reverse (RDNS) lookups."""

from __future__ import annotations

from repro.dns.zone import RecordType, Zone, reverse_name
from repro.net.addr import addr_to_int


class Resolver:
    """Resolves names and reverse entries across registered zones."""

    def __init__(self, zones: list[Zone] | None = None) -> None:
        self._zones: list[Zone] = list(zones or ())

    def add_zone(self, zone: Zone) -> None:
        self._zones.append(zone)

    def resolve(self, name: str,
                rtype: RecordType = RecordType.AAAA) -> list[int | str]:
        """All record data for ``name``/``rtype`` across zones."""
        results: list[int | str] = []
        for zone in self._zones:
            for record in zone.lookup(name, rtype):
                results.append(record.data)
        return results

    def reverse(self, addr: int | str) -> str | None:
        """RDNS lookup: the PTR target for ``addr``, or ``None``.

        This is the query the fingerprinting pipeline runs for every scan
        source (§5.4).
        """
        name = reverse_name(addr_to_int(addr))
        for zone in self._zones:
            records = zone.lookup(name, RecordType.PTR)
            if records:
                target = records[0].data
                assert isinstance(target, str)
                return target
        return None

    def reverse_batch(self, addrs) -> dict[int, str]:
        """RDNS for many addresses in one pass over the zone indexes.

        Semantically ``{a: reverse(a) for a in addrs if reverse(a)}`` —
        first zone with a PTR for the address wins — but resolved
        through each zone's address-keyed side index instead of building
        an ``ip6.arpa`` name and scanning the record store per address.
        """
        resolved: dict[int, str] = {}
        for zone in self._zones:
            index = zone.ptr_targets()
            if not index:
                continue
            for addr in addrs:
                value = addr_to_int(addr)
                if value not in resolved:
                    target = index.get(value)
                    if target is not None:
                        resolved[value] = target
        return resolved
