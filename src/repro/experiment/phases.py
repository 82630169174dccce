"""Observation phases.

The paper analyzes two windows: the *initial observation period* (the 12
baseline weeks with only the stable /32) and the *split period* (the ~8
months of bi-weekly prefix splitting). Analyses bucket packets by phase.
"""

from __future__ import annotations

import enum

from repro.errors import ExperimentError
from repro.experiment.config import ExperimentConfig
from repro.sim.clock import WEEK


class Phase(enum.Enum):
    INITIAL = "initial"
    SPLIT = "split"
    FULL = "full"


def phase_bounds(config: ExperimentConfig, phase: Phase) \
        -> tuple[float, float]:
    """[start, end) of a phase for the given configuration."""
    baseline_end = config.baseline_weeks * WEEK
    if phase is Phase.INITIAL:
        return 0.0, baseline_end
    if phase is Phase.SPLIT:
        return baseline_end, config.duration
    if phase is Phase.FULL:
        return 0.0, config.duration
    raise ExperimentError(f"unknown phase {phase}")
