"""IPv6 prefixes and prefix sets.

A :class:`Prefix` is an immutable (network, length) pair backed by integers.
It supports containment tests, splitting into more-specifics (the operation
behind the paper's bi-weekly announcement schedule, Fig. 2), and the
"low-byte address" notion the split rule is defined on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import PrefixError
from repro.net.addr import (ADDR_BITS, MAX_ADDR, addr_to_int, addr_to_str,
                            random_bits)


@dataclass(frozen=True, slots=True, order=True)
class Prefix:
    """An IPv6 prefix ``network/length``.

    ``network`` is stored masked to ``length`` bits, so two textual spellings
    of the same prefix compare equal. Ordering is (network, length), which
    sorts covering prefixes before their subnets at equal network values.
    """

    network: int
    length: int
    #: cached ``hash((network, length))`` — prefixes key every RIB dict
    #: in the BGP fabric, so recomputing the tuple hash per lookup
    #: dominates update processing at convergence scale.
    _hash: int = field(default=0, init=False, repr=False, compare=False)
    _str: str | None = field(default=None, init=False, repr=False,
                             compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.length <= ADDR_BITS:
            raise PrefixError(f"invalid prefix length: {self.length}")
        if not 0 <= self.network <= MAX_ADDR:
            raise PrefixError(f"network out of range: {self.network}")
        masked = self.network & self.mask
        if masked != self.network:
            object.__setattr__(self, "network", masked)
        object.__setattr__(self, "_hash", hash((self.network, self.length)))

    def __hash__(self) -> int:
        return self._hash

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``'2001:db8::/32'`` notation."""
        try:
            addr_text, _, len_text = text.partition("/")
            if not len_text:
                raise PrefixError(f"missing /length in prefix {text!r}")
            return cls(addr_to_int(addr_text), int(len_text))
        except (ValueError, PrefixError) as exc:
            raise PrefixError(f"invalid prefix {text!r}: {exc}") from exc

    # -- basic properties ---------------------------------------------------

    @property
    def mask(self) -> int:
        """Network mask as an integer."""
        if self.length == 0:
            return 0
        return ((1 << self.length) - 1) << (ADDR_BITS - self.length)

    @property
    def first(self) -> int:
        """Lowest address in the prefix."""
        return self.network

    @property
    def last(self) -> int:
        """Highest address in the prefix."""
        return self.network | (MAX_ADDR >> self.length if self.length else MAX_ADDR)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered."""
        return 1 << (ADDR_BITS - self.length)

    @property
    def low_byte_address(self) -> int:
        """The ``::1`` address of this prefix (paper §3.1 split rule)."""
        return self.network | 1

    def __str__(self) -> str:
        if self._str is None:
            object.__setattr__(
                self, "_str", f"{addr_to_str(self.network)}/{self.length}")
        return self._str

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Prefix):
            return self.covers(item)
        if isinstance(item, int):
            return self.contains_address(item)
        # returning NotImplemented from __contains__ would be coerced to
        # a truthy value by the `in` operator — fail loudly instead
        raise TypeError(
            f"cannot test membership of {type(item).__name__} in Prefix")

    # -- containment ---------------------------------------------------------

    def contains_address(self, addr: int) -> bool:
        """True if integer address ``addr`` falls inside this prefix."""
        return (addr & self.mask) == self.network

    def covers(self, other: "Prefix") -> bool:
        """True if ``other`` is this prefix or a more-specific of it."""
        return (other.length >= self.length
                and (other.network & self.mask) == self.network)

    def overlaps(self, other: "Prefix") -> bool:
        """True if the address ranges intersect at all."""
        return self.covers(other) or other.covers(self)

    # -- derivation -----------------------------------------------------------

    def split(self) -> tuple["Prefix", "Prefix"]:
        """Split into the two equal-size more-specifics (low half, high half).

        Raises:
            PrefixError: if this is already a /128.
        """
        if self.length >= ADDR_BITS:
            raise PrefixError(f"cannot split a /{ADDR_BITS}: {self}")
        child_len = self.length + 1
        low = Prefix(self.network, child_len)
        high = Prefix(self.network | (1 << (ADDR_BITS - child_len)), child_len)
        return low, high

    def subnet(self, new_length: int, index: int) -> "Prefix":
        """The ``index``-th subnet of size ``/new_length`` inside this prefix."""
        if new_length < self.length or new_length > ADDR_BITS:
            raise PrefixError(
                f"cannot take /{new_length} subnet of {self}"
            )
        count = 1 << (new_length - self.length)
        if not 0 <= index < count:
            raise PrefixError(
                f"subnet index {index} out of range for /{new_length} of {self}"
            )
        network = self.network | (index << (ADDR_BITS - new_length))
        return Prefix(network, new_length)

    def subnet_index(self, addr: int, subnet_length: int) -> int:
        """Index of the ``/subnet_length`` subnet of this prefix holding ``addr``.

        Raises:
            PrefixError: if ``addr`` is outside this prefix or the length is
                shorter than this prefix's.
        """
        if subnet_length < self.length or subnet_length > ADDR_BITS:
            raise PrefixError(f"invalid subnet length {subnet_length} for {self}")
        if not self.contains_address(addr):
            raise PrefixError(f"address not inside {self}")
        return (addr >> (ADDR_BITS - subnet_length)) & (
            (1 << (subnet_length - self.length)) - 1
        )

    def random_address(self, rng) -> int:
        """Uniformly random address inside this prefix.

        ``rng`` is a :class:`numpy.random.Generator`; host bits wider than
        64 are drawn in two 64-bit halves to keep full entropy.
        """
        host_bits = ADDR_BITS - self.length
        if host_bits == 0:
            return self.network
        return self.network | random_bits(rng, host_bits)


class PrefixSet:
    """A mutable collection of prefixes with covering-aware membership.

    Used for announcement sets: ``lookup`` finds the most-specific member
    covering an address (linear in set size, fine for the <=17 prefixes of
    the experiment; use :class:`repro.net.trie.PrefixTrie` for large sets).
    """

    def __init__(self, prefixes: Iterable[Prefix] = ()) -> None:
        self._prefixes: set[Prefix] = set(prefixes)

    def __len__(self) -> int:
        return len(self._prefixes)

    def __iter__(self) -> Iterator[Prefix]:
        return iter(sorted(self._prefixes))

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._prefixes

    def add(self, prefix: Prefix) -> None:
        self._prefixes.add(prefix)

    def discard(self, prefix: Prefix) -> None:
        self._prefixes.discard(prefix)

    def covering(self, addr: int) -> list[Prefix]:
        """All member prefixes containing ``addr``, least-specific first."""
        hits = [p for p in self._prefixes if p.contains_address(addr)]
        hits.sort(key=lambda p: p.length)
        return hits

    def lookup(self, addr: int) -> Prefix | None:
        """Most-specific member containing ``addr``, or ``None``."""
        hits = self.covering(addr)
        return hits[-1] if hits else None
