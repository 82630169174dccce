"""Integration tests for repro.experiment.driver."""

import pytest

from repro import obs
from repro.errors import AnalysisError
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.driver import STAGES
from repro.experiment.phases import Phase
from repro.experiment.store import corpus_digest
from repro.scanners.base import SourceModel


class TestRunExperiment:
    def test_produces_all_telescopes(self, tiny_corpus):
        assert tiny_corpus.telescopes() == ("T1", "T2", "T3", "T4")
        for t in tiny_corpus.telescopes():
            assert isinstance(tiny_corpus.packets(t), list)

    def test_nonempty_main_telescopes(self, tiny_corpus):
        assert len(tiny_corpus.packets("T1")) > 100
        assert len(tiny_corpus.packets("T2")) > 100

    def test_packet_times_inside_duration(self, tiny_corpus):
        for name in ("T1", "T2", "T3", "T4"):
            for p in tiny_corpus.packets(name):
                assert 0.0 <= p.time <= tiny_corpus.config.duration * 1.01

    def test_deterministic_given_seed(self):
        a = run_experiment(ExperimentConfig.tiny(seed=9))
        b = run_experiment(ExperimentConfig.tiny(seed=9))
        assert a.corpus.total_packets() == b.corpus.total_packets()
        pa = a.corpus.packets("T1")[:50]
        pb = b.corpus.packets("T1")[:50]
        assert [(p.time, p.src, p.dst) for p in pa] \
            == [(p.time, p.src, p.dst) for p in pb]

    def test_different_seeds_differ(self):
        a = run_experiment(ExperimentConfig.tiny(seed=1))
        b = run_experiment(ExperimentConfig.tiny(seed=2))
        assert a.corpus.total_packets() != b.corpus.total_packets()

    def test_ground_truth_accessors(self, tiny_result):
        truth = tiny_result.ground_truth_temporal()
        assert set(truth) == {s.scanner_id for s in tiny_result.population}

    def test_rdns_registered_for_fixed_sources(self, tiny_result):
        corpus = tiny_result.corpus
        named = [s for s in tiny_result.population
                 if s.rdns_name and s.source_model is SourceModel.FIXED]
        assert named
        scanner = named[0]
        assert corpus.rdns(scanner.source_address()) == scanner.rdns_name

    def test_src_asn_stamped(self, tiny_corpus):
        for p in tiny_corpus.packets("T1")[:200]:
            assert p.src_asn > 0
            record = tiny_corpus.registry.lookup_source(p.src)
            assert record is not None
            assert record.asn == p.src_asn


class TestStageTiming:
    def test_stage_seconds_always_populated(self, tiny_result):
        assert tuple(tiny_result.stage_seconds) == STAGES
        assert all(v >= 0.0 for v in tiny_result.stage_seconds.values())
        # stages run inside the total; simulation dominates any campaign
        assert sum(tiny_result.stage_seconds.values()) \
            <= tiny_result.wall_seconds + 0.05
        assert tiny_result.stage_seconds["simulate"] > 0.0

    def test_recorder_collects_driver_spans_and_metrics(self):
        with obs.FlightRecorder() as recorder:
            result = run_experiment(ExperimentConfig.tiny(seed=5))
        roots = recorder.tracer.roots()
        assert [r.name for r in roots] == ["driver.run_experiment"]
        child_names = [c.name for c in roots[0].children]
        assert child_names == [f"driver.{s}" for s in STAGES]
        # sim.run_until nests under driver.simulate
        simulate = roots[0].children[STAGES.index("simulate")]
        assert "sim.run_until" in [c.name for c in simulate.children]
        snap = recorder.metrics.snapshot()
        for telescope in ("T1", "T2"):
            key = f"telescope.packets_total{{telescope={telescope}}}"
            assert snap["counters"][key] \
                == len(result.corpus.packets(telescope))
        assert snap["counters"]["sim.events_executed_total"] > 0
        assert snap["counters"]["bgp.announcements_total"] > 0
        # heartbeat disabled by default: hook removed after the run
        assert result.deployment.simulator.heartbeat is None


class TestCorpusDigest:
    """The corpus of each fixture config, pinned at its recorded digest."""

    def test_tiny(self, tiny_result):
        assert corpus_digest(tiny_result.corpus) == (
            "b99aca366915de5f0c00b63e261714302f1e273f0d10cfa07581f511de562587")

    def test_small(self, small_result):
        assert corpus_digest(small_result.corpus) == (
            "170c4dc354240d964f3604bb00e69db71538fd8595c832c10884d42a3384bc09")


class TestCorpus:
    def test_phase_packets_partition(self, tiny_corpus):
        full = len(tiny_corpus.packets("T1"))
        initial = len(tiny_corpus.phase_table("T1", Phase.INITIAL))
        split = len(tiny_corpus.phase_table("T1", Phase.SPLIT))
        assert initial + split == full

    def test_unknown_telescope_rejected(self, tiny_corpus):
        with pytest.raises(AnalysisError):
            tiny_corpus.packets("T9")

    def test_cycle_lookup(self, tiny_corpus):
        assert tiny_corpus.cycle_at(60.0).index == 0
        assert tiny_corpus.cycle_at(tiny_corpus.config.duration + 1) is None

    def test_split_cycles(self, tiny_corpus):
        cycles = tiny_corpus.split_cycles()
        assert len(cycles) == tiny_corpus.config.num_cycles
        assert all(c.index > 0 for c in cycles)
