"""Network-selection classification (§5.2).

For T1's split period, each scanner is classified per announcement cycle by
how its sessions distribute over the announced prefixes, then aggregated:

- **single-prefix** — only one announced prefix probed per cycle;
- **network-size independent** — prefixes of very different sizes receive
  roughly equal session counts (one DBSCAN cluster over the counts);
- **network-size dependent** — session counts grow with prefix size;
- **inconsistent** — the per-cycle verdicts disagree.

The per-cycle decision uses DBSCAN over the per-prefix session counts, as
in the paper.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.bgp.controller import AnnouncementCycle
from repro.core.dbscan import NOISE, dbscan
from repro.core.sessions import Session
from repro.errors import ClassificationError
from repro.net.prefix import Prefix


class NetworkClass(enum.Enum):
    SINGLE_PREFIX = "single-prefix"
    SIZE_INDEPENDENT = "size-independent"
    SIZE_DEPENDENT = "size-dependent"
    INCONSISTENT = "inconsistent"


def sessions_per_prefix(sessions: list[Session],
                        cycle: AnnouncementCycle) -> dict[Prefix, int]:
    """Count, per announced prefix, the sessions that touched it.

    A session counts for a prefix when at least one of its packets targets
    an address inside that prefix (most-specific match).
    """
    counts: dict[Prefix, int] = {p: 0 for p in cycle.prefixes}
    ordered = sorted(cycle.prefixes, key=lambda p: -p.length)
    for session in sessions:
        if not (cycle.announce_time <= session.start < cycle.withdraw_time):
            continue
        touched: set[Prefix] = set()
        for dst in session.distinct_targets():
            for prefix in ordered:
                if prefix.contains_address(dst):
                    touched.add(prefix)
                    break
        for prefix in touched:
            counts[prefix] += 1
    return counts


def classify_cycle(counts: dict[Prefix, int],
                   eps_factor: float = 0.35,
                   dependence_ratio: float = 2.0) -> NetworkClass | None:
    """Classify one cycle from per-prefix session counts.

    Returns ``None`` when the scanner was inactive in the cycle. DBSCAN
    with a relative eps groups the nonzero counts; a single cluster
    covering (nearly) all announced prefixes means size-independent
    scanning, while counts that grow with prefix size mean size-dependent
    scanning.
    """
    total = sum(counts.values())
    if total == 0:
        return None
    active = {p: c for p, c in counts.items() if c > 0}
    if len(active) == 1:
        return NetworkClass.SINGLE_PREFIX
    # cluster the *nonzero* counts, as documented: one unprobed prefix
    # must not veto an otherwise perfectly even coverage
    values = np.array([active[p] for p in sorted(active)], dtype=float)
    mean = float(values.mean())
    labels = dbscan(values, eps=max(eps_factor * mean, 0.5), min_samples=2)
    proper = {label for label in labels if label != NOISE}
    one_cluster_all = (len(proper) == 1 and labels.count(NOISE) == 0
                       and len(active) >= 0.75 * len(counts))
    if one_cluster_all:
        return NetworkClass.SIZE_INDEPENDENT
    values = np.array([counts[p] for p in sorted(counts)], dtype=float)
    # correlation between prefix size (host bits) and session count
    sizes = np.array([128 - p.length for p in sorted(counts)], dtype=float)
    if np.std(sizes) > 0 and np.std(values) > 0:
        corr = float(np.corrcoef(sizes, values)[0, 1])
        big_mask = sizes >= np.median(sizes)
        if big_mask.any() and (~big_mask).any():
            big = float(values[big_mask].mean())
            small = float(values[~big_mask].mean())
            if corr > 0.5 and big >= dependence_ratio * max(small, 0.5):
                return NetworkClass.SIZE_DEPENDENT
    return NetworkClass.INCONSISTENT


#: Fraction of per-cycle verdicts that must agree for a stable class.
MAJORITY_SHARE = 0.7


def classify_scanner(sessions: list[Session],
                     cycles: list[AnnouncementCycle]) -> NetworkClass:
    """Aggregate per-cycle verdicts into the scanner's class.

    A scanner keeps a stable class when at least :data:`MAJORITY_SHARE`
    of its active cycles agree; otherwise it is inconsistent. (Requiring
    unanimity would misfile nearly every long-lived scanner over 16
    cycles, while the paper observed only 0.55% inconsistent scanners.)
    """
    if not cycles:
        raise ClassificationError("network classification needs cycles")
    verdicts: list[NetworkClass] = []
    for cycle in cycles:
        verdict = classify_cycle(sessions_per_prefix(sessions, cycle))
        if verdict is not None:
            verdicts.append(verdict)
    if not verdicts:
        raise ClassificationError("scanner has no sessions in any cycle")
    counts: dict[NetworkClass, int] = {}
    for verdict in verdicts:
        counts[verdict] = counts.get(verdict, 0) + 1
    top_class = max(counts, key=lambda cls: counts[cls])
    if counts[top_class] >= MAJORITY_SHARE * len(verdicts):
        return top_class
    return NetworkClass.INCONSISTENT


def classify_all(by_source: dict[int, list[Session]],
                 cycles: list[AnnouncementCycle]) \
        -> dict[int, NetworkClass]:
    """Network-selection class per source for the split period."""
    split_cycles = [c for c in cycles if c.index > 0]
    result: dict[int, NetworkClass] = {}
    for source, sessions in by_source.items():
        try:
            result[source] = classify_scanner(sessions, split_cycles)
        except ClassificationError:
            continue  # inactive during the split period
    return result
