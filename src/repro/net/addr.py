"""IPv6 addresses as 128-bit integers.

The library stores addresses as plain ``int`` (0 .. 2**128-1). The functions
here convert between integers and textual notation and expose the pieces of
an address that the analyses care about (nibbles, interface identifier).
Parsing/formatting delegates to :mod:`ipaddress` for full RFC 4291
conformance; hot paths never touch strings.
"""

from __future__ import annotations

import ipaddress

from repro.errors import AddressError

#: Number of bits in an IPv6 address.
ADDR_BITS = 128

#: Largest representable address value.
MAX_ADDR = (1 << ADDR_BITS) - 1

#: Mask selecting the 64-bit interface identifier (IID).
IID_MASK = (1 << 64) - 1


def parse_addr(text: str) -> int:
    """Parse an IPv6 address string into its integer value.

    Raises:
        AddressError: if ``text`` is not a valid IPv6 address.
    """
    try:
        return int(ipaddress.IPv6Address(text))
    except (ipaddress.AddressValueError, ValueError) as exc:
        raise AddressError(f"invalid IPv6 address {text!r}: {exc}") from exc


def addr_to_int(value: int | str) -> int:
    """Coerce an address given as int or string to its integer value."""
    if isinstance(value, int):
        if not 0 <= value <= MAX_ADDR:
            raise AddressError(f"address out of range: {value}")
        return value
    return parse_addr(value)


def addr_to_str(value: int) -> str:
    """Render the compressed textual form of an integer address."""
    if not 0 <= value <= MAX_ADDR:
        raise AddressError(f"address out of range: {value}")
    return str(ipaddress.IPv6Address(value))


def explode(value: int) -> str:
    """Render the full 8-group hexadecimal form (no ``::`` compression)."""
    if not 0 <= value <= MAX_ADDR:
        raise AddressError(f"address out of range: {value}")
    groups = [(value >> shift) & 0xFFFF for shift in range(112, -1, -16)]
    return ":".join(f"{g:04x}" for g in groups)


def nibbles_of(value: int) -> tuple[int, ...]:
    """The 32 hex digits of an address, most significant first.

    This is the representation behind the paper's Figure 12/13 nibble plots.
    """
    if not 0 <= value <= MAX_ADDR:
        raise AddressError(f"address out of range: {value}")
    return tuple((value >> shift) & 0xF for shift in range(124, -1, -4))


def iid_of(value: int) -> int:
    """Extract the 64-bit interface identifier (low half) of an address."""
    if not 0 <= value <= MAX_ADDR:
        raise AddressError(f"address out of range: {value}")
    return value & IID_MASK


def random_bits(rng, bits: int) -> int:
    """A uniformly random ``bits``-wide integer from a numpy Generator.

    numpy's ``integers`` is bounded to int64, so wide values are composed
    from 32-bit draws.
    """
    if bits < 0:
        raise AddressError(f"negative bit width: {bits}")
    value = 0
    remaining = bits
    while remaining > 0:
        chunk = min(32, remaining)
        value = (value << chunk) | int(rng.integers(0, 1 << chunk))
        remaining -= chunk
    return value
