"""NIST SP 800-22 randomness tests (the Appendix B subset).

The paper excludes tests needing >1000 bits or extra parameters, keeping
four: frequency (monobit), runs, discrete Fourier transform (spectral), and
cumulative sums (forward/backward). Each test maps a bit sequence to a
p-value in [0, 1]; p >= 0.01 is treated as "random" (significance
alpha = 0.01).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError

#: The paper's significance level.
ALPHA = 0.01

#: Minimum input length the paper's session filter guarantees (100 packets
#: of >= 64 bits each); individual tests have their own minima below.
MIN_BITS_FREQUENCY = 100
MIN_BITS_RUNS = 100
MIN_BITS_FFT = 100
MIN_BITS_CUSUM = 100

_erfc = np.frompyfunc(math.erfc, 1, 1)


def erfc(x):
    """Complementary error function (``math.erfc``), element-wise over
    arrays; a scalar gives a 0-d array."""
    return np.asarray(_erfc(x), dtype=np.float64)


def bits_from_addresses(addresses, take_bits: int = 64,
                        skip_high: int = 0) -> np.ndarray:
    """Flatten address sections into a bit array.

    For each address, ``skip_high`` most-significant bits are discarded and
    the following ``take_bits`` bits are appended. Appendix B tests the IID
    (last 64 bits: ``skip_high=64, take_bits=64``) and the subnet section
    separately.
    """
    if take_bits < 1 or skip_high < 0 or take_bits + skip_high > 128:
        raise AnalysisError(
            f"invalid bit section take={take_bits} skip={skip_high}")
    n = len(addresses)
    if n == 0:
        return np.empty(0, dtype=np.int8)
    # one 16-byte big-endian blob per section, then a single unpackbits —
    # replaces the former per-bit Python loop (``take_bits`` iterations
    # per address) with two int ops per address plus vectorized bit work
    shift = 128 - skip_high - take_bits
    mask = (1 << take_bits) - 1
    raw = b"".join(((addr >> shift) & mask).to_bytes(16, "big")
                   for addr in addresses)
    sections = np.frombuffer(raw, dtype=np.uint8).reshape(n, 16)
    bits = np.unpackbits(sections, axis=1)  # (n, 128), MSB first
    return bits[:, 128 - take_bits:].ravel().astype(np.int8)


def frequency_test(bits: np.ndarray) -> float:
    """Monobit frequency test: balance of ones and zeros."""
    n = len(bits)
    if n < MIN_BITS_FREQUENCY:
        raise AnalysisError(f"frequency test needs >= {MIN_BITS_FREQUENCY} "
                            f"bits, got {n}")
    return float(monobit_pvalue(int(np.sum(bits, dtype=np.int64)), n))


def monobit_pvalue(ones, n):
    """Frequency-test p-value of ``n`` bits holding ``ones`` one bits.

    Element-wise over arrays, so per-session one counts from a segmented
    popcount get their p-values in one call.
    """
    s_obs = np.abs(2 * ones - n) / np.sqrt(n)
    return erfc(s_obs / math.sqrt(2))


def runs_test(bits: np.ndarray) -> float:
    """Runs test: oscillation rate between zeros and ones.

    Per SP 800-22 the test presupposes the frequency test passes; when the
    ones-proportion precondition fails the p-value is 0.0.
    """
    n = len(bits)
    if n < MIN_BITS_RUNS:
        raise AnalysisError(f"runs test needs >= {MIN_BITS_RUNS} bits")
    pi = float(np.mean(bits))
    tau = 2.0 / math.sqrt(n)
    if abs(pi - 0.5) >= tau:
        return 0.0
    v_obs = 1 + int(np.sum(bits[1:] != bits[:-1]))
    denom = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    if denom == 0:
        return 0.0
    return float(erfc(abs(v_obs - 2.0 * n * pi * (1.0 - pi)) / denom))


def fft_test(bits: np.ndarray) -> float:
    """Discrete Fourier transform (spectral) test: periodic features."""
    n = len(bits)
    if n < MIN_BITS_FFT:
        raise AnalysisError(f"FFT test needs >= {MIN_BITS_FFT} bits")
    x = 2 * bits.astype(np.float64) - 1
    spectrum = np.abs(np.fft.fft(x))[: n // 2]
    threshold = math.sqrt(math.log(1.0 / 0.05) * n)
    n0 = 0.95 * n / 2.0
    n1 = float(np.sum(spectrum < threshold))
    d = (n1 - n0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return float(erfc(abs(d) / math.sqrt(2)))


def cusum_test(bits: np.ndarray, forward: bool = True) -> float:
    """Cumulative sums test (cusum0 forward / cusum1 backward)."""
    n = len(bits)
    if n < MIN_BITS_CUSUM:
        raise AnalysisError(f"cusum test needs >= {MIN_BITS_CUSUM} bits")
    x = 2 * bits.astype(np.int64) - 1
    if not forward:
        x = x[::-1]
    z = int(np.max(np.abs(np.cumsum(x))))
    if z == 0:
        return 0.0
    sqrt_n = math.sqrt(n)

    def terms(first: int, upper: int, lower: int) -> list[float]:
        # cdf((4k + upper) z / sqrt n) - cdf((4k + lower) z / sqrt n)
        k = np.arange(first, (n // z - 1) // 4 + 1)
        x = np.concatenate(((4 * k + upper) * z, (4 * k + lower) * z))
        cdf = 0.5 * erfc(-x / sqrt_n / math.sqrt(2))
        return (cdf[:len(k)] - cdf[len(k):]).tolist()

    # summed one term at a time in k order, as SP 800-22 does
    total = 0.0
    for term in terms((-n // z + 1) // 4, 1, -1):
        total += term
    for term in terms((-n // z - 3) // 4, 3, 1):
        total -= term
    p = 1.0 - total
    return float(min(max(p, 0.0), 1.0))


@dataclass(frozen=True, slots=True)
class NistResults:
    """p-values of the Appendix B test battery for one bit sequence."""

    frequency: float
    runs: float
    fft: float
    cusum_forward: float
    cusum_backward: float

    def passes(self, alpha: float = ALPHA) -> dict[str, bool]:
        return {
            "frequency": self.frequency >= alpha,
            "runs": self.runs >= alpha,
            "fft": self.fft >= alpha,
            "cusum0": self.cusum_forward >= alpha,
            "cusum1": self.cusum_backward >= alpha,
        }

    def is_random(self, alpha: float = ALPHA) -> bool:
        """Paper criterion: the frequency test decides randomness (§5.3)."""
        return self.frequency >= alpha


def run_battery(bits: np.ndarray) -> NistResults:
    """Run all Appendix B tests on one bit sequence."""
    return NistResults(
        frequency=frequency_test(bits),
        runs=runs_test(bits),
        fft=fft_test(bits),
        cusum_forward=cusum_test(bits, forward=True),
        cusum_backward=cusum_test(bits, forward=False),
    )
