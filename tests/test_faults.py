"""Tests for repro.faults (fault injection) and graceful degradation."""

import warnings

import numpy as np
import pytest

from repro import obs
from repro.analysis.context import CorpusAnalysis
from repro.analysis.degrade import DegradationWarning
from repro.analysis.figures import fig9
from repro.analysis.tables import table5
from repro.errors import FaultError
from repro.experiment import ExperimentConfig, run_experiment
from repro.experiment.store import corpus_digest
from repro.faults import (BgpFlap, BlackoutWindow, FaultInjector, FaultPlan)
from repro.telescope.capture import PacketCapture


def _batch(times):
    times = np.asarray(times, dtype=np.float64)
    n = len(times)
    ones = np.ones(n, dtype=np.uint64)
    return dict(
        time=times, src_hi=ones, src_lo=ones, dst_hi=ones, dst_lo=ones,
        protocol=np.full(n, 6, dtype=np.uint8),
        dst_port=np.full(n, 80, dtype=np.uint16),
        src_asn=np.ones(n, dtype=np.uint32),
        scanner_id=np.ones(n, dtype=np.uint32))


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty()
        plan.validate()

    def test_json_round_trip(self):
        plan = FaultPlan(
            blackouts=(BlackoutWindow("T1", 10.0, 20.0),
                       BlackoutWindow("T3", 5.0, 7.5)),
            flaps=(BgpFlap(100.0, 200.0),),
            loss_rate=0.02,
            corrupt_segments=("T2",))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_blackouts_for_sorts_and_filters(self):
        plan = FaultPlan(blackouts=(BlackoutWindow("T1", 30.0, 40.0),
                                    BlackoutWindow("T2", 0.0, 1.0),
                                    BlackoutWindow("T1", 10.0, 20.0)))
        assert plan.blackouts_for("T1") == ((10.0, 20.0), (30.0, 40.0))
        assert plan.blackouts_for("T4") == ()

    @pytest.mark.parametrize("text", [
        "not json", "[1, 2]", '{"nope": 1}',
        '{"blackouts": [{"telescope": "T9", "start": 0, "end": 1}]}',
        '{"blackouts": [{"telescope": "T1", "start": 5, "end": 5}]}',
        '{"flaps": [{"start": -1, "end": 4}]}',
        '{"loss_rate": 1.5}',
        '{"corrupt_segments": ["T7"]}',
    ])
    def test_malformed_plans_rejected(self, text):
        with pytest.raises(FaultError):
            FaultPlan.from_json(text)

    def test_double_install_rejected(self, tiny_result):
        injector = FaultInjector(FaultPlan())
        injector.install(tiny_result.deployment)
        with pytest.raises(FaultError):
            injector.install(tiny_result.deployment)


class TestBlackoutBoundary:
    """[start, end) semantics, identical for one-row and whole batches."""

    WINDOW = (100.0, 200.0)

    def test_scalar_edges(self):
        capture = PacketCapture(name="T1", blackout_windows=(self.WINDOW,))
        assert capture.append_batch(**_batch([100.0])) == 0  # at start
        assert capture.append_batch(**_batch([199.99])) == 0  # inside
        assert capture.append_batch(**_batch([200.0])) == 1  # at end: kept
        assert capture.append_batch(**_batch([99.99])) == 1  # before
        assert capture.blackout_dropped == 2
        assert capture.dropped == 0  # never counted as filter drops

    def test_batch_edges_match_scalar(self):
        times = [99.99, 100.0, 150.0, 199.99, 200.0]
        scalar = PacketCapture(name="T1", blackout_windows=(self.WINDOW,))
        kept_scalar = [t for t in times
                       if scalar.append_batch(**_batch([t]))]
        batch = PacketCapture(name="T1", blackout_windows=(self.WINDOW,))
        stored = batch.append_batch(**_batch(times))
        assert stored == len(kept_scalar) == 2
        assert batch.blackout_dropped == scalar.blackout_dropped == 3
        np.testing.assert_array_equal(
            batch.table().time, np.array(kept_scalar))

    def test_shared_counter_no_double_count(self):
        with obs.FlightRecorder() as recorder:
            capture = PacketCapture(name="T2",
                                    blackout_windows=(self.WINDOW,))
            capture.append_batch(**_batch([150.0]))  # one-row drop
            capture.append_batch(**_batch([150.0, 160.0, 250.0]))
        assert capture.blackout_dropped == 3
        counters = recorder.metrics.snapshot()["counters"]
        assert counters[
            "telescope.blackout_dropped_total{telescope=T2}"] == 3

    def test_all_dropped_batch_stores_nothing(self):
        capture = PacketCapture(name="T3", blackout_windows=((0.0, 1e9),))
        assert capture.append_batch(**_batch([1.0, 2.0])) == 0
        assert len(capture) == 0
        assert capture.blackout_dropped == 2


class TestEmptyPlanDifferential:
    """The fault layer armed with no faults must not change one byte."""

    def test_batch_path_identical(self, tiny_result):
        faulted = run_experiment(ExperimentConfig.tiny(),
                                 faults=FaultPlan())
        assert corpus_digest(faulted.corpus) \
            == corpus_digest(tiny_result.corpus)


@pytest.fixture(scope="module")
def blackout_result():
    config = ExperimentConfig.tiny()
    plan = FaultPlan(
        blackouts=(BlackoutWindow("T1", config.duration * 0.2,
                                  config.duration * 0.35),),
        flaps=(BgpFlap(config.duration * 0.5, config.duration * 0.52),),
        loss_rate=0.01)
    return run_experiment(config, faults=plan), plan


class TestFaultedRun:
    def test_faults_reduce_traffic_and_record_gaps(self, tiny_result,
                                                   blackout_result):
        result, plan = blackout_result
        assert result.corpus.total_packets() \
            < tiny_result.corpus.total_packets()
        assert result.corpus.coverage_gaps["T1"] \
            == plan.blackouts_for("T1")
        assert 0.0 < result.corpus.covered_fraction("T1") < 1.0

    def test_deterministic_under_faults(self, blackout_result):
        result, plan = blackout_result
        again = run_experiment(ExperimentConfig.tiny(), faults=plan)
        assert corpus_digest(again.corpus) == corpus_digest(result.corpus)

    def test_blackout_window_is_empty_in_capture(self, blackout_result):
        result, plan = blackout_result
        start, end = plan.blackouts_for("T1")[0]
        table = result.corpus.table("T1")
        in_window = (table.time >= start) & (table.time < end)
        assert not in_window.any()

    def test_degraded_analyses_warn_not_raise(self, blackout_result):
        result, _ = blackout_result
        analysis = CorpusAnalysis(result.corpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fig_result = fig9(analysis)
            table_result = table5(analysis)
        degraded = [w for w in caught
                    if issubclass(w.category, DegradationWarning)]
        assert degraded
        assert all(w.message.telescope == "T1" for w in degraded)
        # normalized series scale up exactly where coverage dipped
        coverage = fig_result.coverage["T1"]
        assert any(f < 1.0 for f in coverage)
        for count, fraction, scaled in zip(fig_result.weekly["T1"],
                                           coverage,
                                           fig_result.normalized["T1"]):
            if fraction > 0.0:
                assert scaled == pytest.approx(count / fraction)
        assert table_result.coverage["T1"] < 1.0
        assert table_result.packets_normalized["T1"] \
            > table_result.packets["T1"]

    def test_flap_emits_control_plane_churn(self, tiny_result,
                                            blackout_result):
        result, plan = blackout_result
        flap = plan.flaps[0]
        window = (flap.start, flap.end + 3600)

        def churn(deployment):
            return [e for e in deployment.collector.announcements()
                    if window[0] <= e.time <= window[1]]

        # the re-announcement at flap end reaches the public feed; the
        # unfaulted run is mid-cycle there and shows no such churn
        assert len(churn(result.deployment)) \
            > len(churn(tiny_result.deployment))


class TestCorruptStore:
    def test_corrupt_then_quarantine(self, tmp_path, tiny_result):
        """v2 store: the fault corrupts every chunk of the telescope, so
        a lenient load quarantines them all — reproducing the v1
        whole-telescope outcome at chunk granularity."""
        from repro.experiment.store import load_corpus, save_corpus
        from repro.errors import StoreError
        path = tmp_path / "corpus"
        save_corpus(tiny_result.corpus, path)
        injector = FaultInjector(FaultPlan(corrupt_segments=("T2",)),
                                 seed=3)
        corrupted = injector.corrupt_store(path)
        assert corrupted
        assert all(p.parent.name == "T2" and p.name.startswith("chunk_")
                   for p in corrupted)
        # eager verification surfaces the corruption at load time ...
        with pytest.raises(StoreError) as exc_info:
            load_corpus(path, verify="eager")
        assert exc_info.value.check == "sha256"
        # ... a lazy strict load raises on first touch instead
        lazy = load_corpus(path)
        with pytest.raises(StoreError):
            lazy.table("T2").materialize()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            corpus = load_corpus(path, strict=False)
            corpus.table("T2").materialize()
        assert any(issubclass(w.category, DegradationWarning)
                   for w in caught)
        assert len(corpus.table("T2")) == 0
        assert corpus.covered_fraction("T2") == 0.0
        assert len(corpus.table("T1")) \
            == len(tiny_result.corpus.table("T1"))

    def test_corrupt_missing_segment_rejected(self, tmp_path):
        injector = FaultInjector(FaultPlan(corrupt_segments=("T1",)))
        with pytest.raises(FaultError):
            injector.corrupt_store(tmp_path)
