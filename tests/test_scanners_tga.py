"""Tests for repro.scanners.tga (dynamic TGA feedback loop)."""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.net.prefix import Prefix
from repro.scanners.base import ScannerContext
from repro.scanners.registry import ASRegistry, NetworkType
from repro.scanners.tga import CandidateNode, DynamicTGAScanner
from repro.sim.clock import DAY, WEEK
from repro.sim.events import Simulator
from repro.telescope.capture import PacketCapture
from repro.telescope.reactive import ReactiveResponder
from repro.telescope.packet import ICMPV6
from repro.telescope.telescope import (Telescope, TelescopeKind,
                                       prefix_router)

SPACE = Prefix.parse("3fff:4000::/29")
RESPONSIVE = Prefix.parse("3fff:4000:4::/48")
SILENT = Prefix.parse("3fff:4000:3::/48")


@pytest.fixture
def world():
    """A covering space with one reactive /48 and one silent /48."""
    reactive = Telescope(name="T4", kind=TelescopeKind.ACTIVE,
                         prefixes=[RESPONSIVE], capture=PacketCapture(),
                         responder=ReactiveResponder())
    silent = Telescope(name="T3", kind=TelescopeKind.PASSIVE,
                       prefixes=[SILENT], capture=PacketCapture())

    ctx = ScannerContext(simulator=Simulator(),
                         route=prefix_router([reactive, silent]),
                         window_start=0.0, window_end=8 * WEEK)
    return ctx, reactive, silent


def make_tga(**kwargs) -> DynamicTGAScanner:
    registry = ASRegistry()
    defaults = dict(
        scanner_id=1, name="tga-test",
        as_record=registry.allocate(NetworkType.EDUCATION),
        rng=np.random.default_rng(5), space=SPACE, period=DAY,
        # one seed each in the responsive and the silent /48, as a prior
        # campaign would have collected
        seeds=(RESPONSIVE.network | 0x1234, SILENT.low_byte_address),
        probes_per_round=96, probes_per_node=6)
    defaults.update(kwargs)
    return DynamicTGAScanner(**defaults)


class TestConstruction:
    def test_seeded_with_first_split_and_seed_prefixes(self):
        tga = make_tga()
        prefixes = {n.prefix for n in tga.candidates}
        assert set(SPACE.split()) <= prefixes
        assert RESPONSIVE in prefixes
        assert SILENT in prefixes

    def test_seed_outside_space_rejected(self):
        with pytest.raises(ExperimentError):
            make_tga(seeds=(1,))

    def test_validation(self):
        with pytest.raises(ExperimentError):
            make_tga(period=0)
        with pytest.raises(ExperimentError):
            make_tga(probes_per_round=0)
        with pytest.raises(ExperimentError):
            make_tga(max_prefix_len=20)

    def test_candidate_node_scoring(self):
        node = CandidateNode(SPACE)
        node.reward()
        assert node.score > 0
        node.penalize()
        node.penalize()
        assert node.score < 1.0


class TestFeedbackLoop:
    def test_converges_onto_responsive_space(self, world):
        """After enough rounds the TGA focuses on the reactive /48."""
        ctx, reactive, silent = world
        tga = make_tga()
        tga.start(ctx)
        ctx.simulator.run_until(8 * WEEK)
        focus = tga.focus_prefixes(top=1)[0]
        assert RESPONSIVE.overlaps(focus)
        # the reactive telescope received far more probes than the
        # silent one in the same covering space
        assert reactive.packet_count > 5 * max(silent.packet_count, 1)

    def test_descends_below_initial_split(self, world):
        ctx, _, _ = world
        tga = make_tga()
        tga.start(ctx)
        ctx.simulator.run_until(8 * WEEK)
        deepest = max(n.prefix.length for n in tga.candidates)
        assert deepest > SPACE.length + 1

    def test_hit_rate_improves(self, world):
        """Feedback raises the hit rate well above blind scanning.

        Blind scanning of the /29 hits the single responsive /48 with
        probability 2^-19; the TGA should do orders of magnitude better.
        """
        ctx, _, _ = world
        tga = make_tga()
        tga.start(ctx)
        ctx.simulator.run_until(8 * WEEK)
        assert tga.hit_rate() > 0.01

    def test_candidate_tree_bounded(self, world):
        ctx, _, _ = world
        tga = make_tga()
        tga.start(ctx)
        ctx.simulator.run_until(8 * WEEK)
        assert len(tga.candidates) <= 64

    def test_unresponsive_space_stays_shallow(self):
        """Without any responder the TGA never rewards a candidate."""
        ctx = ScannerContext(simulator=Simulator(),
                             route=prefix_router([]),
                             window_start=0.0, window_end=4 * WEEK)
        tga = make_tga()
        tga.start(ctx)
        ctx.simulator.run_until(4 * WEEK)
        assert all(n.hits == 0 for n in tga.candidates)
        assert tga.hit_rate() == 0.0

    def test_probes_carry_scanner_metadata(self, world):
        ctx, reactive, _ = world
        tga = make_tga(scanner_id=99)
        tga.start(ctx)
        ctx.simulator.run_until(8 * WEEK)
        assert reactive.packet_count > 0
        table = reactive.capture.table()
        assert np.all(table.scanner_id == 99)
        assert np.all(table.src_asn == tga.as_record.asn)
        assert np.all(table.protocol == int(ICMPV6))
