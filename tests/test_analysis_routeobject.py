"""Tests for repro.analysis.routeobject (§3.2 no-effect finding)."""

import numpy as np
import pytest

from repro.analysis.routeobject import (RouteObjectEffect, mann_whitney_u,
                                       route_object_effect)
from repro.core.columnar import PacketTable
from repro.errors import AnalysisError
from repro.net.prefix import Prefix
from repro.sim.clock import DAY
from repro.telescope.packet import ICMPV6, Packet

PREFIX = Prefix.parse("3fff:1000::/33")
CREATED = 100 * DAY


def steady_packets(rate_per_day: float, start: float, end: float,
                   rng) -> list[Packet]:
    packets = []
    t = start
    while t < end:
        packets.append(Packet(time=t, src=int(rng.integers(1, 1000)),
                              dst=PREFIX.network | 1, protocol=ICMPV6))
        t += DAY / rate_per_day * float(rng.uniform(0.5, 1.5))
    return packets


def table_of(packets: list[Packet]) -> PacketTable:
    return PacketTable.from_packets(packets)


#: (x, y) -> two-sided p-value of SciPy 1.17.1's ``mannwhitneyu`` with its
#: default ``method="auto"``.
MANN_WHITNEY_SCIPY = {
    "exact_4_5": ([1, 3, 5, 7], [2, 4, 6, 8, 10], 0.4126984126984127),
    "exact_8_8_separated": (list(range(1, 9)), list(range(9, 17)),
                            0.0001554001554001554),
    "exact_3_20": ([30, 31, 2], list(range(3, 23)), 0.4042913608130999),
    "exact_1_1": ([1], [2], 1.0),
    "exact_6_7_interleaved": ([1.5, 4.0, 2.25, 9.0, 11.0, 0.5],
                              [3.0, 5.0, 6.0, 7.5, 8.0, 10.0, 12.0],
                              0.23426573426573427),
    "ties_small": ([1, 2, 2, 3, 5], [2, 3, 3, 4, 6, 7],
                   0.16304505585423734),
    "ties_one_small_one_large": ([4, 4, 9], list(range(1, 13)),
                                 0.7718372320230663),
    "large_no_ties": (list(range(20)), [i + 3.5 for i in range(30)],
                      0.0012046262366718443),
    "large_with_ties": ([3, 5, 5, 6, 7, 8, 8, 8, 9, 10, 12, 12],
                        [1, 2, 2, 4, 5, 6, 6, 7, 7, 8, 11],
                        0.06325176979271731),
    "identical": (list(range(5, 14)), list(range(5, 14)), 1.0),
    "all_tied": ([4, 4, 4], [4, 4, 4, 4], 1.0),
    "daily_counts_28": (
        [3, 5, 4, 6, 2, 5, 7, 4, 3, 6, 5, 4, 8, 2, 3, 5, 6, 4, 5, 3, 4, 6,
         7, 5, 4, 3, 2, 6],
        [5, 7, 6, 8, 4, 6, 9, 5, 6, 7, 8, 5, 9, 4, 6, 7, 8, 6, 5, 7, 6, 8,
         9, 7, 6, 5, 4, 8],
        9.918034307830332e-05),
}


@pytest.mark.parametrize("x, y, expected", MANN_WHITNEY_SCIPY.values(),
                         ids=MANN_WHITNEY_SCIPY.keys())
def test_mann_whitney_matches_scipy(x, y, expected):
    assert mann_whitney_u(x, y) == pytest.approx(expected, rel=1e-12)
    assert mann_whitney_u(y, x) == pytest.approx(expected, rel=1e-12)


class TestRouteObjectEffect:
    def test_steady_traffic_not_noticeable(self):
        rng = np.random.default_rng(0)
        packets = steady_packets(20, CREATED - 40 * DAY,
                                 CREATED + 40 * DAY, rng)
        effect = route_object_effect(table_of(packets), PREFIX, CREATED)
        assert not effect.is_noticeable()
        assert abs(effect.packet_change) < 0.3

    def test_step_change_detected(self):
        rng = np.random.default_rng(1)
        before = steady_packets(5, CREATED - 40 * DAY, CREATED, rng)
        after = steady_packets(50, CREATED, CREATED + 40 * DAY, rng)
        effect = route_object_effect(table_of(before + after), PREFIX,
                                     CREATED)
        assert effect.is_noticeable()
        assert effect.packet_change > 2.0

    def test_other_prefix_ignored(self):
        rng = np.random.default_rng(2)
        packets = steady_packets(20, CREATED - 10 * DAY,
                                 CREATED + 10 * DAY, rng)
        other = Prefix.parse("3fff:9999::/48")
        with pytest.raises(AnalysisError):
            route_object_effect(table_of(packets), other, CREATED)

    def test_counts_reported(self):
        rng = np.random.default_rng(3)
        packets = steady_packets(10, CREATED - 28 * DAY,
                                 CREATED + 28 * DAY, rng)
        effect = route_object_effect(table_of(packets), PREFIX, CREATED)
        assert effect.packets_before > 0
        assert effect.packets_after > 0
        assert effect.sources_before > 0

    def test_window_validation(self):
        with pytest.raises(AnalysisError):
            route_object_effect(PacketTable.empty(), PREFIX, CREATED,
                                window_days=1)

    def test_change_without_baseline_rejected(self):
        effect = RouteObjectEffect(created_at=0, window_days=5,
                                   packets_before=0, packets_after=10,
                                   sources_before=0, sources_after=1,
                                   daily_sources_before=(0, 0),
                                   daily_sources_after=(1, 1),
                                   p_value=0.001)
        with pytest.raises(AnalysisError):
            effect.packet_change
        with pytest.raises(AnalysisError):
            effect.source_change

    def test_on_simulated_corpus(self, small_result):
        """The simulated campaign reproduces the paper's null finding."""
        deployment = small_result.deployment
        if deployment.route_object_created_at is None:
            pytest.skip("route object never created in this config")
        corpus = small_result.corpus
        stable_33 = corpus.t1_prefix.split()[0]
        effect = route_object_effect(
            corpus.table("T1"), stable_33,
            deployment.route_object_created_at, window_days=21)
        assert not effect.is_noticeable()

    def test_on_tiny_corpus(self, tiny_corpus):
        """The column port reproduces the per-packet helper's result on
        ``ExperimentConfig.tiny()`` (recorded before the port) around
        the split start; the tiny run ends before a route object."""
        effect = route_object_effect(
            tiny_corpus.table("T1"), tiny_corpus.t1_prefix.split()[0],
            tiny_corpus.config.split_start, window_days=21)
        assert effect == RouteObjectEffect(
            created_at=2_419_200.0, window_days=21,
            packets_before=700, packets_after=5_626,
            sources_before=17, sources_after=21,
            daily_sources_before=(3, 7, 4, 3, 3, 3, 5, 3, 4, 4, 3, 4, 3, 4,
                                  4, 5, 3, 3, 3, 3, 0),
            daily_sources_after=(7, 5, 4, 5, 4, 3, 3, 2, 6, 4, 4, 1, 5, 0,
                                 3, 1, 2, 3, 2, 2, 2),
            p_value=0.4512495146243873)
