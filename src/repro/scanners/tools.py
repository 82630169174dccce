"""Scan-tool signatures.

§5.4/Table 7: probes carry tool-specific payloads, and sources often have
telling RDNS entries. Each :class:`ToolSignature` knows how to emit a
payload (a stable magic part plus a per-probe variable part) and an RDNS
template. The analysis pipeline re-identifies tools by clustering payload
bytes and matching the magic parts — it never reads these objects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class ToolSignature:
    """Fingerprintable identity of a public scan tool."""

    name: str
    magic: bytes
    variable_len: int = 8
    rdns_template: str = ""
    reference: str = ""

    def payload(self, rng: np.random.Generator, seq: int = 0) -> bytes:
        """Emit one probe payload: magic + sequence + random tail."""
        tail = bytes(int(b) for b in rng.integers(0, 256,
                                                  size=self.variable_len))
        return self.magic + struct.pack(">I", seq & 0xFFFFFFFF) + tail

    def payload_batch(self, rng: np.random.Generator, first_seq: int,
                      count: int) -> list[bytes]:
        """``count`` payloads with consecutive sequence numbers.

        One RNG draw covers every tail, so a whole session's payloads cost
        a single ``integers`` call instead of one per probe.
        """
        tails = rng.integers(0, 256, size=(count, self.variable_len),
                             dtype=np.uint8)
        magic = self.magic
        return [magic + struct.pack(">I", (first_seq + i) & 0xFFFFFFFF)
                + tails[i].tobytes() for i in range(count)]

    def matches(self, payload: bytes) -> bool:
        """True if ``payload`` starts with this tool's magic bytes."""
        return payload.startswith(self.magic)

    def rdns_for(self, index: int) -> str:
        """Instantiate the RDNS template for source number ``index``."""
        if not self.rdns_template:
            return ""
        return self.rdns_template.format(index=index)


#: The eight public tools of Table 7 plus the 6Sense campaign (a heavy
#: hitter identified by RDNS, §4.2). Magic bytes are synthetic but stable.
RIPE_ATLAS = ToolSignature(
    name="RIPEAtlasProbe", magic=b"RA6P\x01", variable_len=4,
    rdns_template="probe-{index}.atlas.ripe.net",
    reference="https://atlas.ripe.net/about/")
YARRP6 = ToolSignature(
    name="Yarrp6", magic=b"yrp6\xbe\xef", variable_len=6,
    rdns_template="",
    reference="https://github.com/cmand/yarrp")
TRACEROUTE = ToolSignature(
    name="Traceroute", magic=b"SUPERMAN", variable_len=4,
    rdns_template="",
    reference="classic UDP traceroute probe filler")
HTRACE6 = ToolSignature(
    name="Htrace6", magic=b"htr6\x00\x01", variable_len=6,
    reference="https://github.com/hbn1987/6Scan/tree/master/Htrace6")
SIX_SEEKS = ToolSignature(
    name="6Seeks", magic=b"6SKS", variable_len=8,
    reference="https://github.com/6Seeks/6Seeks")
SIX_SCAN = ToolSignature(
    name="6Scan", magic=b"6SCN\x02", variable_len=8,
    reference="https://github.com/hbn1987/6Scan")
CAIDA_ARK = ToolSignature(
    name="CAIDA Ark", magic=b"ark\x00ip6", variable_len=4,
    rdns_template="ark-{index}.caida.org",
    reference="https://www.caida.org/projects/ark/")
SIX_SENSE = ToolSignature(
    name="6Sense", magic=b"6SNS\x01\x02", variable_len=8,
    rdns_template="scan-{index}.6sense-research.net",
    reference="USENIX Security'24 6Sense")
ALPHA_STRIKE = ToolSignature(
    name="AlphaStrike", magic=b"ASL-scan", variable_len=6,
    rdns_template="research-scanner-{index}.alphastrike.io",
    reference="commercial research scanning")

#: All signatures the fingerprinting stage knows, ordered for deterministic
#: matching (Table 7 order).
TOOL_SIGNATURES: tuple[ToolSignature, ...] = (
    RIPE_ATLAS, YARRP6, TRACEROUTE, HTRACE6, SIX_SEEKS, SIX_SCAN,
    CAIDA_ARK, SIX_SENSE, ALPHA_STRIKE,
)
