"""Tests for repro.scanners.population, atlas, heavyhitter."""

import pytest

from repro.bgp.controller import build_split_schedule
from repro.errors import ExperimentError
from repro.net.prefix import Prefix
from repro.scanners.base import TemporalKind
from repro.scanners.population import (PopulationConfig, PopulationInputs,
                                       build_population, uniform_packets)
from repro.scanners.registry import ASRegistry
from repro.sim.clock import WEEK
from repro.sim.rng import RngStreams

T1 = Prefix.parse("3fff:1000::/32")


@pytest.fixture(scope="module")
def inputs():
    schedule = build_split_schedule(T1, baseline_weeks=4, num_cycles=4)
    return PopulationInputs(
        schedule=schedule,
        announced=lambda: schedule[0].prefixes,
        t1_prefix=T1,
        t2_prefix=Prefix.parse("3fff:2000::/48"),
        t3_prefix=Prefix.parse("3fff:4000:3::/48"),
        t4_prefix=Prefix.parse("3fff:4000:4::/48"),
        attractor_addr=Prefix.parse("3fff:2000::/48").network | 0x80,
        duration=12 * WEEK)


@pytest.fixture(scope="module")
def population(inputs):
    config = PopulationConfig(scale=0.05)
    return build_population(config, inputs, ASRegistry(), RngStreams(3))


class TestHelpers:
    def test_uniform_packets_range(self):
        sampler = uniform_packets(2, 5)
        import numpy as np
        rng = np.random.default_rng(0)
        draws = {sampler(rng) for _ in range(100)}
        assert draws == {2, 3, 4, 5}

    def test_uniform_packets_invalid(self):
        with pytest.raises(ExperimentError):
            uniform_packets(0, 5)
        with pytest.raises(ExperimentError):
            uniform_packets(5, 2)


class TestPopulationConfig:
    def test_scaled_minimum(self):
        config = PopulationConfig(scale=0.001)
        assert config.scaled(10) == 1
        assert config.scaled(10, minimum=3) == 3

    def test_invalid_scale_rejected(self, inputs):
        with pytest.raises(ExperimentError):
            build_population(PopulationConfig(scale=0.0), inputs,
                             ASRegistry(), RngStreams(0))


class TestPopulationComposition:
    def test_unique_scanner_ids(self, population):
        ids = [s.scanner_id for s in population]
        assert len(ids) == len(set(ids))

    def test_all_temporal_kinds_present(self, population):
        kinds = {s.temporal.kind for s in population}
        assert TemporalKind.ONE_OFF in kinds
        assert TemporalKind.PERIODIC in kinds
        assert TemporalKind.INTERMITTENT in kinds
        assert TemporalKind.REACTIVE in kinds

    def test_heavy_hitters_included(self, population):
        names = {s.name for s in population}
        assert "hh-t1-bulletproof" in names
        assert "hh-t2-6sense" in names

    def test_shared_address_pair(self, population):
        pair = [s for s in population
                if s.name.startswith("sweeper-yarrp")]
        assert len(pair) == 2
        assert pair[0].source_address() == pair[1].source_address()

    def test_atlas_majority_of_oneoffs(self, population):
        one_offs = [s for s in population
                    if s.temporal.kind is TemporalKind.ONE_OFF]
        atlas = [s for s in one_offs if s.name.startswith("atlas")]
        # at tiny scales the per-component minimums compress the ratio;
        # the full-scale share (~55%) is asserted in the benchmark suite
        assert len(atlas) > len(one_offs) * 0.15

    def test_ground_truth_labels_present(self, population):
        labelled = [s for s in population if s.truth_network_class]
        assert len(labelled) > len(population) * 0.9

    def test_scanners_validate(self, population):
        for scanner in population:
            scanner.validate()

    def test_scale_changes_size(self, inputs):
        small = build_population(PopulationConfig(scale=0.05), inputs,
                                 ASRegistry(), RngStreams(3))
        large = build_population(PopulationConfig(scale=0.2), inputs,
                                 ASRegistry(), RngStreams(3))
        assert len(large) > len(small) * 2
