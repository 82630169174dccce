"""Tests for repro.experiment.triggers (§8 outlook item i)."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiment.triggers import (BgpAnnouncementTrigger,
                                       DnsExposureTrigger,
                                       TriggerExperiment, compare_triggers)
from repro.net.prefix import Prefix
from repro.sim.clock import WEEK

PREFIX = Prefix.parse("3fff:aaaa::/48")


class TestTriggers:
    def test_dns_exposed_addresses_inside_prefix(self):
        trigger = DnsExposureTrigger(num_addresses=5)
        addrs = trigger.exposed_addresses(PREFIX,
                                          np.random.default_rng(0))
        assert len(addrs) == 5
        assert len(set(addrs)) == 5
        assert all(PREFIX.contains_address(a) for a in addrs)

    def test_bgp_exposed_are_low_byte(self):
        trigger = BgpAnnouncementTrigger(num_addresses=4)
        addrs = trigger.exposed_addresses(PREFIX,
                                          np.random.default_rng(0))
        assert all(a & 0xFFFF == 1 for a in addrs)

    def test_cohort_scaling(self):
        assert DnsExposureTrigger(attraction=1.0).cohort_size(10) == 10
        assert BgpAnnouncementTrigger(attraction=1.4).cohort_size(10) == 14


class TestTriggerExperiment:
    def test_exposure_attracts(self):
        experiment = TriggerExperiment(trigger=DnsExposureTrigger())
        result = experiment.run()
        assert result.effective
        assert result.attraction_factor > 3.0
        assert result.reacting_sources > 0
        assert "attraction" in result.render()

    def test_before_window_is_unbiased(self):
        """Exposed and control addresses look alike pre-exposure."""
        result = TriggerExperiment(trigger=DnsExposureTrigger()).run()
        before_total = (result.exposed_packets_before
                        + result.control_packets_before)
        if before_total:
            share = result.exposed_packets_before / before_total
            assert 0.3 < share < 0.7

    def test_control_keeps_background_only(self):
        result = TriggerExperiment(trigger=DnsExposureTrigger()).run()
        # control addresses keep receiving background probes after the
        # exposure too
        assert result.control_packets_after > 0

    def test_exposure_outside_run_rejected(self):
        trigger = DnsExposureTrigger(expose_at=10 * WEEK)
        experiment = TriggerExperiment(trigger=trigger, duration=6 * WEEK)
        with pytest.raises(ExperimentError):
            experiment.run()

    def test_deterministic(self):
        a = TriggerExperiment(trigger=DnsExposureTrigger(), seed=3).run()
        b = TriggerExperiment(trigger=DnsExposureTrigger(), seed=3).run()
        assert a == b


class TestCompareTriggers:
    def test_ranked_by_attraction(self):
        results = compare_triggers([
            DnsExposureTrigger(attraction=0.5),
            BgpAnnouncementTrigger(attraction=2.0),
        ])
        assert len(results) == 2
        assert results[0].attraction_factor \
            >= results[1].attraction_factor
        assert results[0].trigger_name == "bgp-announcement"

    def test_renders_recorded_results(self):
        """The column tally reproduces the per-packet tally's results,
        recorded before the port."""
        results = compare_triggers([DnsExposureTrigger(),
                                    BgpAnnouncementTrigger()])
        assert [r.render() for r in results] == [
            "trigger 'bgp-announcement' @ day 14: exposed 81->1496 pkts, "
            "control 69->132, 33 reacting sources, attraction 11.3x",
            "trigger 'dns-exposure' @ day 14: exposed 81->1091 pkts, "
            "control 69->132, 23 reacting sources, attraction 8.3x"]
