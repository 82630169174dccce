"""Tests for repro.core.nist."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.nist import (ALPHA, NistResults, bits_from_addresses,
                             cusum_test, fft_test, frequency_test,
                             run_battery, runs_test)
from repro.errors import AnalysisError


@pytest.fixture
def random_bits():
    rng = np.random.default_rng(42)
    return rng.integers(0, 2, size=6400).astype(np.int8)


class TestBitsFromAddresses:
    def test_iid_extraction(self):
        addrs = [(0xFFFF << 112) | 0b1010]
        bits = bits_from_addresses(addrs, take_bits=4, skip_high=124)
        assert list(bits) == [1, 0, 1, 0]

    def test_length(self):
        addrs = [0] * 10
        assert len(bits_from_addresses(addrs, take_bits=64,
                                       skip_high=64)) == 640

    def test_invalid_section(self):
        with pytest.raises(AnalysisError):
            bits_from_addresses([0], take_bits=100, skip_high=64)

    def test_empty(self):
        bits = bits_from_addresses([], take_bits=64, skip_high=64)
        assert len(bits) == 0 and bits.dtype == np.int8

    @given(st.lists(st.integers(0, (1 << 128) - 1), max_size=20),
           st.integers(0, 64), st.integers(1, 64))
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_loop(self, addrs, skip_high, take_bits):
        got = bits_from_addresses(addrs, take_bits=take_bits,
                                  skip_high=skip_high)
        # the pre-vectorization implementation, kept as the oracle
        expect = np.empty(len(addrs) * take_bits, dtype=np.int8)
        pos = 0
        top = 128 - skip_high
        for addr in addrs:
            section = (addr >> (top - take_bits)) & ((1 << take_bits) - 1)
            for shift in range(take_bits - 1, -1, -1):
                expect[pos] = (section >> shift) & 1
                pos += 1
        assert np.array_equal(got, expect)


class TestFrequency:
    def test_random_passes(self, random_bits):
        assert frequency_test(random_bits) >= ALPHA

    def test_biased_fails(self):
        bits = np.zeros(1000, dtype=np.int8)
        bits[:100] = 1
        assert frequency_test(bits) < ALPHA

    def test_minimum_length(self):
        with pytest.raises(AnalysisError):
            frequency_test(np.zeros(50, dtype=np.int8))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_p_value_in_range(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=200).astype(np.int8)
        assert 0.0 <= frequency_test(bits) <= 1.0


class TestRuns:
    def test_random_passes(self, random_bits):
        assert runs_test(random_bits) >= ALPHA

    def test_alternating_fails(self):
        bits = np.tile([0, 1], 500).astype(np.int8)
        assert runs_test(bits) < ALPHA

    def test_long_runs_fail(self):
        bits = np.concatenate([np.zeros(500), np.ones(500)]).astype(np.int8)
        assert runs_test(bits) < ALPHA


class TestFft:
    def test_random_passes(self, random_bits):
        assert fft_test(random_bits) >= ALPHA

    def test_periodic_fails(self):
        bits = np.tile([0, 1], 500).astype(np.int8)
        assert fft_test(bits) < ALPHA


class TestCusum:
    def test_random_passes(self, random_bits):
        assert cusum_test(random_bits) >= ALPHA
        assert cusum_test(random_bits, forward=False) >= ALPHA

    def test_drifting_fails(self):
        bits = np.ones(1000, dtype=np.int8)
        bits[::10] = 0
        assert cusum_test(bits) < ALPHA


#: (seed, bits, share of ones) -> (frequency, cusum forward, cusum
#: backward) p-values as recorded with SciPy 1.17.1's ``erfc`` and
#: ``norm.cdf``.
PINNED = [
    (1, 6400, 0.5, 0.5485062355001471, 0.6638336553168549,
     0.31556037689994787),
    (2, 12800, 0.5, 0.6585313664984052, 0.5366097517121685,
     0.917288610256179),
    (3, 1000, 0.52, 0.12904130509946812, 0.07966523709260409,
     0.12415438803160761),
    (4, 25600, 0.5, 0.6983860849257155, 0.8732574037680236,
     0.7807037325627766),
    (5, 640, 0.45, 0.1547289234853786, 0.22768839314140965,
     0.24632911525320278),
]

#: The exact p-values of the same cases under ``math.erfc``, by seed.
PINNED_ERFC = {
    1: (0.5485062355001472, 0.6638336553168547, 0.31556037689994776),
    2: (0.658531366498405, 0.5366097517121685, 0.917288610256179),
    3: (0.12904130509946807, 0.07966523709260454, 0.12415438803160761),
    4: (0.6983860849257155, 0.8732574037680235, 0.7807037325627767),
    5: (0.15472892348537862, 0.22768839314140976, 0.2463291152532031),
}


@pytest.mark.parametrize("seed, n, p_one, frequency, forward, backward",
                         PINNED)
def test_pinned_p_values(seed, n, p_one, frequency, forward, backward):
    rng = np.random.default_rng(seed)
    bits = (rng.random(n) < p_one).astype(np.int8)
    got = (frequency_test(bits), cusum_test(bits, forward=True),
           cusum_test(bits, forward=False))
    assert got == PINNED_ERFC[seed]
    assert got == pytest.approx((frequency, forward, backward), rel=1e-12)


class TestBattery:
    def test_random_is_random(self, random_bits):
        results = run_battery(random_bits)
        assert results.is_random()
        assert all(results.passes().values())

    def test_structured_addresses_fail(self):
        addrs = [i + 1 for i in range(200)]  # low-byte style IIDs
        bits = bits_from_addresses(addrs, take_bits=64, skip_high=64)
        assert not run_battery(bits).is_random()

    def test_random_addresses_pass(self):
        rng = np.random.default_rng(0)
        addrs = [int.from_bytes(rng.bytes(16), "big") for _ in range(200)]
        bits = bits_from_addresses(addrs, take_bits=64, skip_high=64)
        assert run_battery(bits).is_random()

    def test_passes_dict_keys(self):
        results = NistResults(frequency=1, runs=1, fft=1,
                              cusum_forward=1, cusum_backward=1)
        assert set(results.passes()) \
            == {"frequency", "runs", "fft", "cusum0", "cusum1"}
