"""Structured graceful degradation for partial corpora.

When a capture has coverage gaps (fault-injected blackouts, quarantined
segments) the analyses keep producing artifacts instead of raising —
rates are normalized by covered time and every place that falls back
emits a :class:`DegradationWarning` carrying *which* artifact degraded,
*where*, and *why*. Warnings are real :mod:`warnings` (so tests can
assert on them and operators see them once per site) and each one bumps
the ``analysis.degradation_warnings_total`` counter.
"""

from __future__ import annotations

import warnings

from repro import obs


class DegradationWarning(UserWarning):
    """An analysis produced a degraded (but still well-defined) artifact.

    Attributes:
        artifact: the table/figure/loader that degraded (``"fig9"``, ...).
        telescope: the affected vantage point, when telescope-specific.
        reason: short machine-readable cause (``"coverage_gap"``,
            ``"sha256"``, ``"empty_phase"``, ...).
    """

    def __init__(self, message: str, *, artifact: str = "",
                 telescope: str = "", reason: str = "") -> None:
        super().__init__(message)
        self.artifact = artifact
        self.telescope = telescope
        self.reason = reason


def warn_degraded(message: str, *, artifact: str = "", telescope: str = "",
                  reason: str = "", stacklevel: int = 3) -> None:
    """Emit a :class:`DegradationWarning` and count it."""
    obs.add("analysis.degradation_warnings_total",
            artifact=artifact or "unknown", reason=reason or "unknown")
    obs.event("degraded", artifact=artifact or "unknown",
              telescope=telescope or None, reason=reason or "unknown",
              message=message)
    warnings.warn(
        DegradationWarning(message, artifact=artifact, telescope=telescope,
                           reason=reason),
        stacklevel=stacklevel)
