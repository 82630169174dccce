"""Tests for repro.core.temporal."""

import numpy as np
import pytest

from repro.core.columnar import PacketTable, sessionize_table
from repro.core.temporal import (TemporalClass, classify_all,
                                 classify_temporal, detect_period)
from repro.errors import ClassificationError
from repro.sim.clock import DAY, HOUR, WEEK
from repro.telescope.packet import ICMPV6, Packet


class TestDetectPeriod:
    def test_too_few_events(self):
        assert not detect_period([0.0, DAY]).detected

    def test_perfectly_regular(self):
        times = [i * DAY for i in range(10)]
        estimate = detect_period(times)
        assert estimate.detected
        assert estimate.period == pytest.approx(DAY, rel=0.2)

    def test_regular_with_jitter(self):
        rng = np.random.default_rng(0)
        times = [i * DAY + rng.uniform(-HOUR, HOUR) for i in range(15)]
        assert detect_period(sorted(times)).detected

    def test_random_gaps_not_periodic(self):
        rng = np.random.default_rng(1)
        times = np.cumsum(rng.exponential(3 * DAY, size=20))
        assert not detect_period(list(times)).detected

    def test_autocorrelation_path(self):
        """Bursty but periodic pattern needs the ACF detector."""
        times = []
        for cycle in range(8):
            base = cycle * WEEK
            times.extend([base, base + HOUR, base + 2 * HOUR])
        estimate = detect_period(times, bin_width=HOUR)
        assert estimate.detected
        assert estimate.period == pytest.approx(WEEK, rel=0.1)


def reference_detect_period(times, bin_width=HOUR, acf_threshold=0.25,
                            gap_cv_threshold=0.35):
    """The list-based implementation the vectorized binning replaced."""
    if len(times) < 3:
        return None, 0.0
    ordered = sorted(times)
    gaps = np.diff(ordered)
    mean_gap = float(np.mean(gaps))
    if mean_gap <= 0:
        return None, 0.0
    cv = float(np.std(gaps) / mean_gap)
    if cv < gap_cv_threshold:
        return mean_gap, 1.0 - cv
    span = ordered[-1] - ordered[0]
    num_bins = int(span / bin_width) + 1
    if num_bins < 8 or num_bins > 2_000_000:
        return None, 0.0
    series = np.zeros(num_bins)
    for t in ordered:
        series[int((t - ordered[0]) / bin_width)] += 1
    series = series - series.mean()
    denom = float(np.sum(series * series))
    if denom == 0:
        return None, 0.0
    size = 1
    while size < 2 * num_bins:
        size *= 2
    spectrum = np.fft.rfft(series, size)
    acf = np.fft.irfft(spectrum * np.conj(spectrum), size)[:num_bins] / denom
    max_lag = num_bins // 2
    if max_lag < 2:
        return None, 0.0
    lag = int(np.argmax(acf[1:max_lag])) + 1
    peak = float(acf[lag])
    if peak >= max(acf_threshold, 2.5 / len(ordered)):
        return lag * bin_width, peak
    return None, peak


@pytest.mark.parametrize("seed", range(12))
def test_detect_period_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    kind = seed % 3
    if kind == 0:
        times = np.cumsum(rng.exponential(2 * DAY, size=n))
    elif kind == 1:
        times = np.repeat(np.arange(n // 3 + 1) * WEEK, 3)[:n] \
            + rng.uniform(0, 3 * HOUR, size=n)
    else:
        times = rng.uniform(0, 30 * DAY, size=n)
    times = rng.permutation(times).tolist()
    estimate = detect_period(times)
    assert (estimate.period, estimate.confidence) \
        == reference_detect_period(times)


class TestClassifyTemporal:
    def test_one_session_is_one_off(self):
        assert classify_temporal([0.0]) is TemporalClass.ONE_OFF

    def test_two_sessions_are_intermittent(self):
        result = classify_temporal([0.0, DAY])
        assert result is TemporalClass.INTERMITTENT

    def test_regular_sessions_are_periodic(self):
        starts = [i * 2 * DAY for i in range(10)]
        assert classify_temporal(starts) is TemporalClass.PERIODIC

    def test_irregular_sessions_are_intermittent(self):
        rng = np.random.default_rng(2)
        starts = np.cumsum(rng.exponential(5 * DAY, size=12))
        assert classify_temporal(starts.tolist()) \
            is TemporalClass.INTERMITTENT

    def test_empty_rejected(self):
        with pytest.raises(ClassificationError):
            classify_temporal([])


class TestClassifyAll:
    def test_mixed_population(self):
        rng = np.random.default_rng(7)
        irregular = np.cumsum(rng.exponential(4 * DAY, size=10))
        starts = {1: [0.0], 2: [i * DAY for i in range(8)],
                  3: irregular.tolist()}
        packets = sorted((Packet(time=t, src=src, dst=2, protocol=ICMPV6)
                          for src, times in starts.items() for t in times),
                         key=lambda p: p.time)
        classes = classify_all(sessionize_table(
            PacketTable.from_packets(packets)))
        assert list(classes) == [1, 2, 3]
        assert classes[1] is TemporalClass.ONE_OFF
        assert classes[2] is TemporalClass.PERIODIC
        assert classes[3] is TemporalClass.INTERMITTENT
