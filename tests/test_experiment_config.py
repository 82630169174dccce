"""Tests for repro.experiment.config and phases."""

import pytest

from repro.errors import ExperimentError
from repro.experiment.config import ExperimentConfig
from repro.experiment.phases import Phase, phase_bounds
from repro.sim.clock import WEEK


class TestExperimentConfig:
    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.duration == 44 * WEEK
        assert config.split_start == 12 * WEEK

    def test_population_derives_scale(self):
        config = ExperimentConfig(scale=0.5)
        assert config.population.scale == 0.5

    def test_invalid_scale(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(scale=0)

    def test_invalid_timeline(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(baseline_weeks=0)

    def test_presets(self):
        assert ExperimentConfig.tiny().duration \
            < ExperimentConfig.small().duration \
            < ExperimentConfig.bench().duration


class TestPhases:
    def test_bounds(self):
        config = ExperimentConfig()
        assert phase_bounds(config, Phase.INITIAL) == (0.0, 12 * WEEK)
        assert phase_bounds(config, Phase.SPLIT) == (12 * WEEK, 44 * WEEK)
        assert phase_bounds(config, Phase.FULL) == (0.0, 44 * WEEK)
