"""Route6-object effect analysis (§3.2).

The authors created an IRR route6 object for the stable /33 four months
into the experiment and observed *no noticeable effect* on scanners. This
module quantifies that: it compares scan activity toward the prefix in
symmetric windows before and after the object's creation.

Packet volume is dominated by heavy-hitter bursts, so the statistical
test runs on daily *source* counts — the quantity that would move if a
route object made the prefix more attractive to scanners — while packet
counts are reported for context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.columnar import PacketTable, distinct_rows
from repro.errors import AnalysisError
from repro.net.lpm import contains_mask
from repro.net.prefix import Prefix
from repro.sim.clock import DAY


@dataclass(frozen=True, slots=True)
class RouteObjectEffect:
    """Before/after comparison around a route-object creation."""

    created_at: float
    window_days: int
    packets_before: int
    packets_after: int
    sources_before: int
    sources_after: int
    daily_sources_before: tuple[int, ...]
    daily_sources_after: tuple[int, ...]
    #: two-sided Mann-Whitney p-value over daily distinct-source counts.
    p_value: float

    @property
    def packet_change(self) -> float:
        """Relative packet-rate change (0.0 = unchanged)."""
        if self.packets_before == 0:
            raise AnalysisError("no packets before route-object creation")
        return self.packets_after / self.packets_before - 1.0

    @property
    def source_change(self) -> float:
        """Relative change in the mean daily source count."""
        before = float(np.mean(self.daily_sources_before))
        if before == 0:
            raise AnalysisError("no sources before route-object creation")
        return float(np.mean(self.daily_sources_after)) / before - 1.0

    def is_noticeable(self, alpha: float = 0.05,
                      min_change: float = 0.5) -> bool:
        """The paper's criterion, made explicit.

        An effect counts as noticeable only if the daily source counts
        differ significantly *and* the magnitude is operationally
        relevant (>= ``min_change`` relative change).
        """
        return self.p_value < alpha \
            and abs(self.source_change) >= min_change


def route_object_effect(table: PacketTable, prefix: Prefix,
                        created_at: float,
                        window_days: int = 28) -> RouteObjectEffect:
    """Compare activity toward ``prefix`` around ``created_at``.

    Only packets destined into ``prefix`` count. Daily distinct-source
    counts in the two windows feed a Mann-Whitney U test.
    """
    if window_days < 2:
        raise AnalysisError("need at least two days per window")
    window = window_days * DAY
    start, end = created_at - window, created_at + window
    inside = contains_mask(prefix, table.dst_hi, table.dst_lo) \
        & (table.time >= start) & (table.time < end)
    time = table.time[inside]
    src_hi, src_lo = table.src_hi[inside], table.src_lo[inside]
    after = time >= created_at
    day = ((time - np.where(after, created_at, start)) / DAY).astype(np.int64)
    packets_after = int(np.count_nonzero(after))
    packets_before = len(time) - packets_after
    if packets_before == 0 and packets_after == 0:
        raise AnalysisError(f"no traffic into {prefix} around the "
                            "route-object creation")

    def daily_sources(rows: np.ndarray) -> tuple[list[int], int]:
        # distinct (day, source) pairs, then sources per day
        days, _, _ = distinct_rows(day[rows], src_hi[rows], src_lo[rows])
        daily = np.bincount(days, minlength=window_days).tolist()
        return daily, len(distinct_rows(src_hi[rows], src_lo[rows])[0])

    daily_before, sources_before = daily_sources(~after)
    daily_after, sources_after = daily_sources(after)
    return RouteObjectEffect(
        created_at=created_at,
        window_days=window_days,
        packets_before=packets_before,
        packets_after=packets_after,
        sources_before=sources_before,
        sources_after=sources_after,
        daily_sources_before=tuple(daily_before),
        daily_sources_after=tuple(daily_after),
        p_value=mann_whitney_u(daily_before, daily_after))


def mann_whitney_u(x, y) -> float:
    """Two-sided Mann-Whitney U test p-value of samples ``x`` and ``y``.

    As SciPy's ``mannwhitneyu`` with its default ``method="auto"``: the
    exact null distribution of U when one sample has at most 8 values and
    no value is tied, otherwise the tie-corrected normal approximation
    with continuity correction.
    """
    values = np.concatenate((np.asarray(x, dtype=np.float64),
                             np.asarray(y, dtype=np.float64)))
    n1, n2 = len(x), len(y)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ties = np.diff(first, append=len(values))
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(first + 1 + (ties - 1) / 2, ties)
    u1 = float(np.sum(ranks[:n1])) - n1 * (n1 + 1) / 2
    u = max(u1, n1 * n2 - u1)
    if (n1 <= 8 or n2 <= 8) and not np.any(ties > 1):
        # P(U >= u) = P(U <= n1 n2 - u) by symmetry, over the exact counts
        counts = _u_counts(min(n1, n2), max(n1, n2))
        tail = sum(counts[:n1 * n2 - int(u) + 1])
        p = 2 * tail / math.comb(n1 + n2, n1)
    else:
        n = n1 + n2
        tie_term = float(np.sum(ties.astype(np.float64) ** 3 - ties))
        s = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
        # every value tied: no spread, so no evidence of a shift
        p = math.erfc((u - n1 * n2 / 2 - 0.5) / s / math.sqrt(2)) \
            if s > 0 else 1.0
    return min(max(p, 0.0), 1.0)


def _u_counts(m: int, n: int) -> list[int]:
    """How many of the ``C(m + n, m)`` rank splits give each U in
    ``0..m*n``: the coefficients of the Gaussian binomial
    ``prod_{i=1..m} (1 - q^(n+i)) / (1 - q^i)``."""
    size = m * n + m + 1
    counts = [1] + [0] * (size - 1)
    for i in range(1, m + 1):
        for k in range(size - 1, n + i - 1, -1):
            counts[k] -= counts[k - n - i]
        for k in range(i, size):
            counts[k] += counts[k - i]
    return counts[:m * n + 1]
