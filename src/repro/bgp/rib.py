"""Routes and routing information bases.

A speaker keeps one Adj-RIB-In per neighbor (the routes that neighbor
advertised) and a Loc-RIB (the selected best route per prefix). Selection
follows the standard Gao-Rexford-compatible decision process:

1. highest local preference (customer > peer > provider routes),
2. shortest AS path,
3. lowest neighbor ASN (deterministic tie-break).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.prefix import Prefix
from repro.net.trie import PrefixTrie

#: Local-preference values by the relationship of the advertising neighbor.
LOCAL_PREF = {"customer": 300, "peer": 200, "provider": 100}


@dataclass(frozen=True, slots=True)
class Route:
    """A candidate/selected route in a RIB.

    Attributes:
        prefix: the NLRI.
        as_path: path as received (neighbor first, origin last).
        neighbor: ASN the route was learned from (0 = locally originated).
        local_pref: preference derived from the neighbor relationship.
    """

    prefix: Prefix
    as_path: tuple[int, ...]
    neighbor: int
    local_pref: int
    #: precomputed :meth:`preference_key` — routes are compared a few
    #: times per received update during convergence storms, so the key
    #: tuple is built once at construction instead of per comparison.
    pref_key: tuple[int, int, int] = field(
        default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pref_key",
            (-self.local_pref, len(self.as_path), self.neighbor))

    @property
    def origin(self) -> int:
        return self.as_path[-1] if self.as_path else self.neighbor

    def preference_key(self) -> tuple[int, int, int]:
        """Sort key: better routes have *smaller* keys."""
        return self.pref_key


class AdjRibIn:
    """Routes received from one neighbor, keyed by exact prefix."""

    def __init__(self) -> None:
        self._routes: dict[Prefix, Route] = {}

    def __len__(self) -> int:
        return len(self._routes)

    def put(self, route: Route) -> None:
        self._routes[route.prefix] = route

    def remove(self, prefix: Prefix) -> Route | None:
        return self._routes.pop(prefix, None)

    def get(self, prefix: Prefix) -> Route | None:
        return self._routes.get(prefix)


class LocRib:
    """Selected best routes, with longest-prefix data-plane lookup.

    Exact-prefix operations (the control-plane hot path: ``best`` after
    every received update) go through a plain dict. The trie only serves
    the data-plane longest-prefix match, and almost no run ever asks for
    it — so it is built lazily from the dict on first use and discarded
    on any change, instead of paying a 128-level descend per install
    during convergence storms.
    """

    def __init__(self) -> None:
        self._trie: PrefixTrie[Route] | None = None
        self._exact: dict[Prefix, Route] = {}

    def __len__(self) -> int:
        return len(self._exact)

    def install(self, route: Route) -> None:
        self._exact[route.prefix] = route
        self._trie = None

    def uninstall(self, prefix: Prefix) -> Route | None:
        removed = self._exact.pop(prefix, None)
        if removed is not None:
            self._trie = None
        return removed

    def best(self, prefix: Prefix) -> Route | None:
        """Exact-match best route for ``prefix``."""
        return self._exact.get(prefix)

    def _ensure_trie(self) -> PrefixTrie[Route]:
        if self._trie is None:
            trie: PrefixTrie[Route] = PrefixTrie()
            for prefix, route in self._exact.items():
                trie.insert(prefix, route)
            self._trie = trie
        return self._trie

    def resolve(self, addr: int) -> Route | None:
        """Longest-prefix-match data-plane lookup for an address."""
        hit = self._ensure_trie().longest_match(addr)
        return hit[1] if hit else None

    def prefixes(self) -> list[Prefix]:
        return [prefix for prefix, _ in self._ensure_trie().items()]
