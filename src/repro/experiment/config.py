"""Experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.scanners.population import PopulationConfig
from repro.sim.clock import WEEK


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
    #: shard-supervision knobs (fan-out runs only; see DESIGN §11).
    #: executions per shard before it fails or degrades: 1 = fail fast.
    shard_attempts: int = 3
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
        if self.shard_attempts < 1:
            raise ExperimentError(
                f"shard_attempts must be >= 1, got {self.shard_attempts}")
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
