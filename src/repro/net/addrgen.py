"""Address generators used by simulated scanners.

Each generator produces integer addresses of a specific RFC 7707 category
inside a given prefix, mirroring the strategies the paper observes: low-byte
probing, randomized IIDs, structured prefix traversal, IPv4/port embedding,
EUI-64 and ISATAP patterns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PrefixError
from repro.net.addr import ADDR_BITS, random_bits
from repro.net.addrtypes import SERVICE_PORTS, _HEX_WORDS
from repro.net.prefix import Prefix

_WORD_CHOICES = tuple(sorted(_HEX_WORDS))
_DECIMAL_PORTS = tuple(
    p for p in SERVICE_PORTS
    if p >= 0x100 and all(ch in "0123456789" for ch in str(p))
)


def low_byte_address(prefix: Prefix, host: int = 1) -> int:
    """The ``::host`` address of ``prefix`` (default the low-byte ``::1``)."""
    if not 1 <= host <= 0xFFFF:
        raise PrefixError(f"low-byte host out of range: {host}")
    return prefix.network | host


def random_iid_address(prefix: Prefix, rng: np.random.Generator,
                       subnet_len: int = 64) -> int:
    """Random /64 subnet of ``prefix`` with a uniformly random 64-bit IID.

    Prefixes more specific than ``subnet_len`` fall back to a plain
    uniform address inside the prefix (there is no whole IID to fill).
    """
    if prefix.length > subnet_len:
        return prefix.random_address(rng)
    subnet = random_subnet(prefix, rng, subnet_len)
    iid = random_bits(rng, 64)
    return subnet.network | iid


def embedded_ipv4_address(prefix: Prefix, rng: np.random.Generator,
                          subnet_len: int = 64) -> int:
    """IID decimal-spelling a plausible IPv4 address (``::192:0:2:1``)."""
    subnet = random_subnet(prefix, rng, subnet_len)
    octets = (int(rng.integers(10, 224)), int(rng.integers(0, 256)),
              int(rng.integers(0, 256)), int(rng.integers(1, 255)))
    iid = 0
    for octet in octets:
        iid = (iid << 16) | int(str(octet), 16)
    return subnet.network | iid


def embedded_port_address(prefix: Prefix, rng: np.random.Generator,
                          subnet_len: int = 64, port: int | None = None) -> int:
    """IID hex-spelling a well-known service port (``::443``)."""
    subnet = random_subnet(prefix, rng, subnet_len)
    if port is None:
        port = int(rng.choice(_DECIMAL_PORTS))
    return subnet.network | int(str(port), 16)


def eui64_address(prefix: Prefix, rng: np.random.Generator,
                  subnet_len: int = 64) -> int:
    """IID derived from a random MAC via EUI-64 (``ff:fe`` infix)."""
    subnet = random_subnet(prefix, rng, subnet_len)
    mac = int(rng.integers(0, 1 << 48))
    upper = (mac >> 24) & 0xFFFFFF
    lower = mac & 0xFFFFFF
    iid = ((upper ^ 0x020000) << 40) | (0xFFFE << 24) | lower
    return subnet.network | iid


def isatap_address(prefix: Prefix, rng: np.random.Generator,
                   subnet_len: int = 64) -> int:
    """ISATAP IID embedding a random IPv4 address (RFC 5214)."""
    subnet = random_subnet(prefix, rng, subnet_len)
    ipv4 = int(rng.integers(0x01000000, 0xE0000000))
    return subnet.network | (0x00005EFE << 32) | ipv4


def wordy_address(prefix: Prefix, rng: np.random.Generator,
                  subnet_len: int = 64) -> int:
    """Pattern-bytes IID built from a repeated hex word (``::cafe:cafe...``)."""
    subnet = random_subnet(prefix, rng, subnet_len)
    word = int(rng.choice(_WORD_CHOICES))
    repeats = int(rng.integers(1, 5))
    iid = 0
    for _ in range(repeats):
        iid = (iid << 16) | word
    return subnet.network | iid


def structured_sweep(prefix: Prefix, rng: np.random.Generator,
                     count: int, subnet_len: int = 64,
                     stride: int | None = None) -> list[int]:
    """A bounded structured scan: ordered subnets with low-byte IIDs.

    ``stride`` subnets are skipped between probes so large prefixes are
    covered coarsely (as coarse-grained scanners do); when omitted, a stride
    is derived so ``count`` probes span the whole prefix.
    """
    if count <= 0:
        return []
    if subnet_len < prefix.length:
        # keep the sweep granular but never less specific than the prefix
        subnet_len = min(prefix.length + 16, ADDR_BITS)
    total = 1 << (subnet_len - prefix.length)
    if stride is None:
        stride = max(1, total // count)
    step = (1 << (ADDR_BITS - subnet_len)) * stride
    start = prefix.network
    host = int(rng.integers(1, 16))
    targets = []
    addr = start
    for _ in range(count):
        if not prefix.contains_address(addr):
            break
        targets.append(addr | host)
        addr += step
    return targets


def random_targets(prefix: Prefix, rng: np.random.Generator,
                   count: int) -> list[int]:
    """``count`` independent uniformly random addresses inside ``prefix``."""
    return [prefix.random_address(rng) for _ in range(max(0, count))]


def random_subnet(prefix: Prefix, rng: np.random.Generator,
                  subnet_len: int) -> Prefix:
    """A uniformly random ``/subnet_len`` inside ``prefix``.

    Raises:
        PrefixError: if ``prefix`` is more specific than ``subnet_len`` —
            callers would otherwise OR IID patterns over routed bits and
            generate addresses *outside* the prefix.
    """
    if subnet_len < prefix.length:
        raise PrefixError(
            f"cannot take a /{subnet_len} subnet of the more-specific "
            f"{prefix}; IID-pattern generators need prefixes of at most "
            f"/{subnet_len}")
    span = subnet_len - prefix.length
    index = random_bits(rng, span) if span else 0
    return prefix.subnet(subnet_len, index)
