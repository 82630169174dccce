"""Tests for repro.telescope.deployment."""

import numpy as np
import pytest

from repro.net.addr import parse_addr
from repro.sim.clock import DAY, WEEK
from repro.sim.rng import RngStreams
from repro.telescope.deployment import (COVERING_PREFIX, T1_PREFIX,
                                        T2_PREFIX, T3_PREFIX, T4_PREFIX,
                                        build_deployment)
from repro.telescope.packet import ICMPV6


@pytest.fixture(scope="module")
def deployment():
    dep = build_deployment(RngStreams(11), baseline_weeks=2, num_cycles=2,
                           num_stubs=10, num_tier2=6)
    dep.simulator.run_until(DAY)
    return dep


class TestPrefixLayout:
    def test_t3_t4_inside_covering(self):
        assert COVERING_PREFIX.covers(T3_PREFIX)
        assert COVERING_PREFIX.covers(T4_PREFIX)
        assert not T3_PREFIX.overlaps(T4_PREFIX)

    def test_t1_t2_disjoint(self):
        assert not T1_PREFIX.overlaps(T2_PREFIX)
        assert not T1_PREFIX.overlaps(COVERING_PREFIX)


class TestVisibility:
    def test_announced_prefixes_visible(self, deployment):
        assert deployment.looking_glass.is_visible(T1_PREFIX)
        assert deployment.looking_glass.is_visible(T2_PREFIX)
        assert deployment.looking_glass.is_visible(COVERING_PREFIX)

    def test_silent_subnets_not_separately_visible(self, deployment):
        assert not deployment.looking_glass.is_visible(T3_PREFIX)
        assert not deployment.looking_glass.is_visible(T4_PREFIX)


class TestRouting:
    def test_telescope_routing(self, deployment):
        assert deployment.route(T1_PREFIX.low_byte_address).name == "T1"
        assert deployment.route(T2_PREFIX.low_byte_address).name == "T2"
        assert deployment.route(T3_PREFIX.low_byte_address).name == "T3"
        assert deployment.route(T4_PREFIX.low_byte_address).name == "T4"

    def test_other_covering_space_unrouted(self, deployment):
        other = COVERING_PREFIX.network | (1 << 70)
        assert deployment.route(other) is None

    def test_unannounced_space_unrouted(self, deployment):
        assert deployment.route(parse_addr("3fff:9999::1")) is None

    def test_t1_unrouted_in_gap_day(self, deployment):
        gap_time = 2 * WEEK - DAY / 2
        assert deployment.route(T1_PREFIX.low_byte_address,
                                now=gap_time) is None

    def test_attractor_routes_to_t2(self, deployment):
        target = deployment.productive.attractor_addr
        assert deployment.route(target).name == "T2"

    def test_productive_subnet_excluded_by_filter(self, deployment):
        t2 = deployment.t2
        excluded = deployment.productive.subnet.network | 7
        before = len(t2.capture)
        t2.deliver_batch(
            time=np.array([DAY]), src_hi=np.zeros(1, dtype=np.uint64),
            src_lo=np.ones(1, dtype=np.uint64),
            dst_hi=np.array([excluded >> 64], dtype=np.uint64),
            dst_lo=np.array([excluded & ((1 << 64) - 1)], dtype=np.uint64),
            protocol=np.full(1, int(ICMPV6), dtype=np.uint8),
            dst_port=np.zeros(1, dtype=np.uint16),
            src_asn=np.zeros(1, dtype=np.uint32),
            scanner_id=np.full(1, -1, dtype=np.int64))
        assert len(t2.capture) == before
        assert t2.capture.dropped >= 1


class TestSchedule:
    def test_cycles_match_config(self, deployment):
        assert len(deployment.cycles()) == 3
        assert deployment.split_start() == 2 * WEEK

    def test_hitlist_seeded(self, deployment):
        published = {e.prefix for e in deployment.hitlist.published()}
        assert T2_PREFIX in published
        assert COVERING_PREFIX in published
