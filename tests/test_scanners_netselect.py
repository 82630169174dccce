"""Tests for repro.scanners.netselect."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.net.prefix import Prefix
from repro.scanners.base import ScannerContext
from repro.scanners.netselect import (AllAnnouncedPolicy, CombinedPolicy,
                                      FixedPrefixPolicy,
                                      SingleAnnouncedPolicy,
                                      SizeDependentPolicy, SwitchingPolicy)
from repro.sim.events import Simulator
from repro.telescope.telescope import prefix_router

P32 = Prefix.parse("3fff:1000::/32")
LOW33, HIGH33 = P32.split()
P48 = Prefix.parse("3fff:2000::/48")
ANNOUNCED = (LOW33, HIGH33, P48)


@pytest.fixture
def ctx():
    return ScannerContext(simulator=Simulator(), route=prefix_router([]))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestFixedPrefixPolicy:
    def test_returns_all(self, ctx, rng):
        policy = FixedPrefixPolicy((P32, P48))
        assert policy.select(ctx, rng) == [(P32, 1.0), (P48, 1.0)]

    def test_custom_weights(self, ctx, rng):
        policy = FixedPrefixPolicy((P32, P48), weights=(0.9, 0.1))
        assert policy.select(ctx, rng) == [(P32, 0.9), (P48, 0.1)]

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            FixedPrefixPolicy(())

    def test_misaligned_weights_rejected(self):
        with pytest.raises(ExperimentError):
            FixedPrefixPolicy((P32,), weights=(1.0, 2.0))


class TestSingleAnnouncedPolicy:
    def test_selects_one(self, ctx, rng):
        policy = SingleAnnouncedPolicy(lambda: ANNOUNCED)
        selection = policy.select(ctx, rng)
        assert len(selection) == 1
        assert selection[0][0] in ANNOUNCED

    def test_trigger_preferred(self, ctx, rng):
        policy = SingleAnnouncedPolicy(lambda: ANNOUNCED)
        selection = policy.select(ctx, rng, trigger=P48)
        assert selection == [(P48, 1.0)]

    def test_empty_when_nothing_announced(self, ctx, rng):
        policy = SingleAnnouncedPolicy(lambda: ())
        assert policy.select(ctx, rng) == []


class TestAllAnnouncedPolicy:
    def test_equal_shares(self, ctx, rng):
        policy = AllAnnouncedPolicy(lambda: ANNOUNCED)
        selection = policy.select(ctx, rng)
        assert len(selection) == 3
        assert all(w == 1.0 for _, w in selection)


class TestSizeDependentPolicy:
    def test_prefers_large_prefixes(self, ctx, rng):
        policy = SizeDependentPolicy(lambda: ANNOUNCED)
        picks = [policy.select(ctx, rng)[0][0] for _ in range(300)]
        large = sum(1 for p in picks if p.length == 33)
        small = sum(1 for p in picks if p.length == 48)
        assert large > 290
        assert small == 0 or small < 5

    def test_single_selection_per_session(self, ctx, rng):
        policy = SizeDependentPolicy(lambda: ANNOUNCED)
        assert len(policy.select(ctx, rng)) == 1


class TestSwitchingPolicy:
    def test_switches_at_time(self, ctx, rng):
        policy = SwitchingPolicy(
            before=FixedPrefixPolicy((P32,)),
            after=FixedPrefixPolicy((P48,)),
            switch_time=100.0)
        assert policy.select(ctx, rng)[0][0] == P32
        ctx.simulator.run_until(200.0)
        assert policy.select(ctx, rng)[0][0] == P48


class TestCombinedPolicy:
    def test_union(self, ctx, rng):
        policy = CombinedPolicy((FixedPrefixPolicy((P32,)),
                                 FixedPrefixPolicy((P48,), weights=(5.0,))))
        assert policy.select(ctx, rng) == [(P32, 1.0), (P48, 5.0)]
