"""Source aggregation levels (§3.3).

Scan sources can be inspected as full addresses (/128), aggregated per
subnet (/64, revealing scanners that rotate addresses), or per routed
prefix (/48). The paper analyzes /128 and /64 throughout and shows their
divergence in Figure 4.
"""

from __future__ import annotations

import enum

from repro.errors import AnalysisError


class AggregationLevel(enum.IntEnum):
    """Prefix length used to identify a scan source."""

    ADDR = 128
    SUBNET = 64
    PREFIX = 48


def source_key(src: int, level: AggregationLevel = AggregationLevel.ADDR) \
        -> int:
    """Collapse a source address to its aggregation key.

    The key is the address right-shifted so that equal keys mean "same
    aggregated source"; shifting (instead of masking) keeps keys small.
    """
    if level is AggregationLevel.ADDR:
        return src
    if level is AggregationLevel.SUBNET:
        return src >> 64
    if level is AggregationLevel.PREFIX:
        return src >> 80
    raise AnalysisError(f"unsupported aggregation level {level!r}")
