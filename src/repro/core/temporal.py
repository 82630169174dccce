"""Temporal scanner classification (§5.1).

Scanners fall into exactly one of three exclusive classes:

- **one-off** — a single scan session in the whole dataset;
- **periodic** — more than two sessions with a stable, detectable period;
- **intermittent** — recurrent but without a detectable period.

Period detection follows the autocorrelation approach of Breitenbach et
al.: session starts are binned into a time series, the autocorrelation
function is computed, and a significant non-zero-lag peak marks a period.
A regular-gap check covers scanners with few sessions, where binned
autocorrelation is statistically weak.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.sessions import SessionSet
from repro.errors import ClassificationError
from repro.sim.clock import HOUR


class TemporalClass(enum.Enum):
    ONE_OFF = "one-off"
    PERIODIC = "periodic"
    INTERMITTENT = "intermittent"


@dataclass(frozen=True, slots=True)
class PeriodEstimate:
    """Result of period detection over session start times."""

    period: float | None
    confidence: float

    @property
    def detected(self) -> bool:
        return self.period is not None


def detect_period(times, bin_width: float = HOUR,
                  acf_threshold: float = 0.25,
                  gap_cv_threshold: float = 0.35) -> PeriodEstimate:
    """Detect a stable period in event times.

    Two detectors combine:

    1. *autocorrelation*: bin event counts, compute the normalized ACF, and
       look for a peak above ``acf_threshold`` at a non-zero lag;
    2. *gap regularity*: for short series, a coefficient of variation of
       inter-event gaps below ``gap_cv_threshold`` marks a stable period.
    """
    if len(times) < 3:
        return PeriodEstimate(period=None, confidence=0.0)
    ordered = np.sort(np.asarray(times, dtype=np.float64))
    gaps = np.diff(ordered)
    if np.any(gaps < 0):
        raise ClassificationError("event times must be sortable")
    mean_gap = float(np.mean(gaps))
    if mean_gap <= 0:
        return PeriodEstimate(period=None, confidence=0.0)

    # detector 2: regular gaps (robust for few events)
    cv = float(np.std(gaps) / mean_gap)
    if cv < gap_cv_threshold:
        return PeriodEstimate(period=mean_gap, confidence=1.0 - cv)

    # detector 1: autocorrelation over a binned series
    span = float(ordered[-1] - ordered[0])
    num_bins = int(span / bin_width) + 1
    if num_bins < 8 or num_bins > 2_000_000:
        return PeriodEstimate(period=None, confidence=0.0)
    series = np.bincount(((ordered - ordered[0]) / bin_width)
                         .astype(np.int64), minlength=num_bins) \
        .astype(np.float64)
    series = series - series.mean()
    denom = float(np.sum(series * series))
    if denom == 0:
        return PeriodEstimate(period=None, confidence=0.0)
    # full ACF via FFT
    size = 1
    while size < 2 * num_bins:
        size *= 2
    spectrum = np.fft.rfft(series, size)
    acf = np.fft.irfft(spectrum * np.conj(spectrum), size)[:num_bins] / denom
    max_lag = num_bins // 2
    if max_lag < 2:
        return PeriodEstimate(period=None, confidence=0.0)
    lag = int(np.argmax(acf[1:max_lag])) + 1
    peak = float(acf[lag])
    # sparse series produce spurious small peaks: with n events, a single
    # coincidental pair already yields ~1/n, so demand a few aligned pairs.
    threshold = max(acf_threshold, 2.5 / len(ordered))
    if peak >= threshold:
        return PeriodEstimate(period=lag * bin_width, confidence=peak)
    return PeriodEstimate(period=None, confidence=peak)


def classify_temporal(starts, bin_width: float = HOUR) -> TemporalClass:
    """Classify one scanner from the start times of its sessions."""
    if len(starts) == 0:
        raise ClassificationError("cannot classify a scanner with no sessions")
    if len(starts) == 1:
        return TemporalClass.ONE_OFF
    if len(starts) == 2:
        # "must appear more than twice and show a stable period" — two
        # sessions can never establish a period.
        return TemporalClass.INTERMITTENT
    estimate = detect_period(starts, bin_width=bin_width)
    if estimate.detected:
        return TemporalClass.PERIODIC
    return TemporalClass.INTERMITTENT


def classify_all(session_set: SessionSet,
                 bin_width: float = HOUR) -> dict[int, TemporalClass]:
    """Temporal class per source, keyed in
    :meth:`SessionSet.source_keys` order; each source's session starts
    come from the set's start column."""
    order = np.argsort(session_set.source_codes(), kind="stable")
    bounds = np.cumsum(session_set.sessions_per_source())[:-1]
    starts = np.split(session_set.starts()[order], bounds)
    return {source: classify_temporal(source_starts, bin_width=bin_width)
            for source, source_starts in zip(session_set.source_keys(),
                                             starts)}
