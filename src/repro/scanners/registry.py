"""Registry of scanner-hosting autonomous systems.

Assigns each scanner AS a network type (Table 8 categories), a country, a
source /48, and an RDNS domain. Analyses resolve source addresses back to
these records the way the paper resolves sources via IP-to-AS and RDNS
lookups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.net.prefix import Prefix


class NetworkType(enum.Enum):
    """Network categories of scan sources (Table 8)."""

    HOSTING = "Hosting"
    ISP = "ISP"
    EDUCATION = "Education"
    BUSINESS = "Business"
    GOVERNMENT = "Government"
    UNKNOWN = "Unknown"


#: Base of the simulated scanner source-address space: each scanner AS gets
#: a /48 carved out of 2a0e::/16 by ASN.
_SOURCE_SPACE_BASE = 0x2A0E << 112


@dataclass(frozen=True, slots=True)
class ASRecord:
    """Static facts about one scanner-hosting AS."""

    asn: int
    network_type: NetworkType
    country: str
    name: str
    source_prefix: Prefix
    rdns_domain: str = ""


def source_prefix_for_asn(asn: int) -> Prefix:
    """Deterministic /48 source prefix of an AS."""
    if not 0 < asn < (1 << 32):
        raise ExperimentError(f"invalid ASN {asn}")
    return Prefix(_SOURCE_SPACE_BASE | (asn << 80), 48)


class ASRegistry:
    """Allocates and resolves scanner-hosting ASes."""

    def __init__(self, first_asn: int = 200_000) -> None:
        self._records: dict[int, ASRecord] = {}
        self._next_asn = first_asn
        self._by_prefix: list[tuple[Prefix, int]] = []

    def __len__(self) -> int:
        return len(self._records)

    def allocate(self, network_type: NetworkType, country: str = "",
                 name: str = "", rdns_domain: str = "") -> ASRecord:
        """Create one AS of the given type."""
        asn = self._next_asn
        self._next_asn += 1
        prefix = source_prefix_for_asn(asn)
        if not name:
            name = f"{network_type.value.lower()}-as{asn}"
        record = ASRecord(asn=asn, network_type=network_type,
                          country=country or "US", name=name,
                          source_prefix=prefix, rdns_domain=rdns_domain)
        self._records[asn] = record
        self._by_prefix.append((prefix, asn))
        return record

    @classmethod
    def restore(cls, records: list[ASRecord]) -> "ASRegistry":
        """Rebuild a registry from previously serialized records."""
        registry = cls()
        for record in records:
            if record.asn in registry._records:
                raise ExperimentError(f"duplicate AS{record.asn}")
            registry._records[record.asn] = record
            registry._by_prefix.append((record.source_prefix, record.asn))
            registry._next_asn = max(registry._next_asn, record.asn + 1)
        return registry

    def get(self, asn: int) -> ASRecord:
        try:
            return self._records[asn]
        except KeyError:
            raise ExperimentError(f"unknown scanner AS{asn}") from None

    def lookup_source(self, addr: int) -> ASRecord | None:
        """Resolve a source address to its AS record (IP-to-AS lookup).

        Source prefixes encode the ASN deterministically, so this is O(1).
        """
        if (addr >> 112) != (_SOURCE_SPACE_BASE >> 112):
            return None
        asn = (addr >> 80) & 0xFFFFFFFF
        return self._records.get(asn)

    def network_type_of(self, addr: int) -> NetworkType:
        record = self.lookup_source(addr)
        return record.network_type if record else NetworkType.UNKNOWN

    def records(self) -> list[ASRecord]:
        return [self._records[asn] for asn in sorted(self._records)]
