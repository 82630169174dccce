"""Experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ExperimentError
from repro.scanners.population import PopulationConfig
from repro.sim.clock import WEEK


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry behavior of the shard supervisor (DESIGN §11).

    ``max_attempts`` counts executions, not retries: 1 means fail fast.
    ``base_delay`` seeds the exponential backoff before attempt ``k+1``
    (``base_delay * 2**(k-1)`` seconds). ``timeout_factor`` relaxes the
    per-shard wall-clock timeout on each retry (a shard killed for
    stalling may simply have landed on a loaded machine), multiplying
    the derived timeout by ``timeout_factor**(attempt-1)``.
    """

    max_attempts: int = 3
    base_delay: float = 0.25
    timeout_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ExperimentError(
                f"retry max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ExperimentError(
                f"retry base_delay must be >= 0, got {self.base_delay}")
        if self.timeout_factor < 1.0:
            raise ExperimentError(
                f"retry timeout_factor must be >= 1, "
                f"got {self.timeout_factor}")

    def delay(self, attempt: int) -> float:
        """Backoff before launching ``attempt + 1`` (1-based attempts)."""
        return self.base_delay * (2.0 ** max(0, attempt - 1))

    @classmethod
    def of(cls, value: "RetryPolicy | Mapping | None") -> "RetryPolicy":
        """Normalize a config value (policy, kwargs mapping, or None)."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            unknown = set(value) - {"max_attempts", "base_delay",
                                    "timeout_factor"}
            if unknown:
                raise ExperimentError(
                    f"unknown retry_policy keys: {sorted(unknown)}")
            return cls(**value)
        raise ExperimentError(
            f"retry_policy must be a RetryPolicy or a mapping, "
            f"got {type(value).__name__}")


#: Valid ``on_shard_failure`` modes: ``raise`` keeps a hard failure
#: fatal; ``degrade`` quarantines the shard as coverage gaps.
SHARD_FAILURE_MODES = ("raise", "degrade")


@dataclass
class ExperimentConfig:
    """All knobs of one experiment run.

    Defaults reproduce the paper's timeline: 12 baseline weeks, then 16
    bi-weekly split cycles (~8 months), 44 weeks (~11 months) total.
    ``scale`` shrinks the scanner population and packet volumes uniformly;
    tests use small scales, benchmarks moderate ones.
    """

    seed: int = 42
    scale: float = 1.0
    baseline_weeks: int = 12
    cycle_weeks: int = 2
    num_cycles: int = 16
    num_tier1: int = 4
    num_tier2: int = 12
    num_stubs: int = 60
    feed_delay: float = 60.0
    population: PopulationConfig = field(default=None)  # type: ignore[assignment]
    #: shard-supervision knobs (sharded runs only; see DESIGN §11).
    retry_policy: RetryPolicy = field(default=None)  # type: ignore[assignment]
    #: wall-clock budget in seconds for the heaviest shard's first attempt
    #: (lighter shards get proportionally less). None = no timeout.
    shard_timeout: float | None = None
    #: what to do when a shard exhausts its retries: "raise" (default)
    #: or "degrade" (quarantine the shard as coverage gaps).
    on_shard_failure: str = "raise"

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ExperimentError(f"scale must be > 0, got {self.scale}")
        if self.baseline_weeks < 1 or self.cycle_weeks < 1 \
                or self.num_cycles < 0:
            raise ExperimentError("invalid experiment timeline")
        if self.population is None:
            self.population = PopulationConfig(scale=self.scale)
        self.retry_policy = RetryPolicy.of(self.retry_policy)
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ExperimentError(
                f"shard_timeout must be > 0, got {self.shard_timeout}")
        if self.on_shard_failure not in SHARD_FAILURE_MODES:
            raise ExperimentError(
                f"on_shard_failure must be one of {SHARD_FAILURE_MODES}, "
                f"got {self.on_shard_failure!r}")

    @property
    def duration(self) -> float:
        """Total simulated time (end of the last announcement cycle)."""
        return (self.baseline_weeks
                + self.num_cycles * self.cycle_weeks) * WEEK

    @property
    def split_start(self) -> float:
        return self.baseline_weeks * WEEK

    @classmethod
    def tiny(cls, seed: int = 42) -> "ExperimentConfig":
        """A fast configuration for unit tests (seconds to run)."""
        return cls(seed=seed, scale=0.04, baseline_weeks=4, num_cycles=4,
                   num_stubs=12, num_tier2=6)

    @classmethod
    def small(cls, seed: int = 42) -> "ExperimentConfig":
        """A mid-size configuration for integration tests."""
        return cls(seed=seed, scale=0.1, baseline_weeks=6, num_cycles=8,
                   num_stubs=20)

    @classmethod
    def bench(cls, seed: int = 42) -> "ExperimentConfig":
        """The benchmark configuration: full timeline, reduced volume."""
        return cls(seed=seed, scale=0.35)
