"""Integration tests for the figure generators."""

import numpy as np
import pytest

from repro.analysis import figures
from repro.analysis.degrade import DegradationWarning
from repro.core.temporal import TemporalClass
from repro.errors import AnalysisError


class TestFig3:
    def test_series_and_knee(self, small_analysis):
        result = figures.fig3(small_analysis)
        assert sum(result.daily_new) > 0
        assert 0 <= result.knee_day() < len(result.daily_new)
        assert "Fig 3" in result.render()


class TestFig4:
    def test_series_monotone(self, small_analysis):
        result = figures.fig4(small_analysis)
        for name, values in result.series.items():
            assert values == sorted(values), name
            assert values[-1] > 0, name

    def test_source_aggregation_divergence(self, small_analysis):
        """/128 sources grow at least as fast as /64 (Fig 4 divergence)."""
        result = figures.fig4(small_analysis)
        assert result.series["sources_128"][-1] \
            >= result.series["sources_64"][-1]
        assert result.series["sessions_128"][-1] \
            >= result.series["sessions_64"][-1]


class TestFig5:
    def test_heavy_hitters_found(self, small_analysis):
        result = figures.fig5(small_analysis)
        assert result.hitters
        first = result.hitters[0]
        assert result.active_days(first.source, first.telescope) > 0


class TestFig7:
    def test_hourly_and_classification(self, small_analysis):
        result = figures.fig7(small_analysis)
        assert sum(result.hourly["T1"]) > 0
        assert sum(result.hourly["T2"]) > 0
        assert result.classification["T1"]


class TestFig8:
    def test_exclusive_share_high(self, small_analysis):
        result = figures.fig8(small_analysis)
        assert result.exclusive_source_share() > 0.5
        assert result.asns.set_sizes["T1"] > 0


class TestFig9:
    def test_weekly_buckets(self, small_analysis):
        result = figures.fig9(small_analysis)
        weeks = small_analysis.corpus.config.baseline_weeks
        for series in result.weekly.values():
            assert len(series) == weeks


class TestFig10:
    def test_cumulative_series(self, small_analysis):
        result = figures.fig10(small_analysis)
        assert result.cumulative
        for series in result.cumulative.values():
            assert series == sorted(series)


class TestFig11:
    def test_cycle_alignment(self, small_analysis):
        result = figures.fig11(small_analysis)
        assert len(result.t1) == len(result.others) \
            == len(small_analysis.corpus.schedule)

    def test_t1_grows_during_split(self, small_analysis):
        result = figures.fig11(small_analysis)
        split = [a for a in result.t1 if a.cycle_index > 0]
        assert split[-1].sources > split[0].sources


class TestFig12And13:
    def test_structured_session_found(self, small_analysis):
        result = figures.fig12(small_analysis)
        assert result.structured is not None
        assert result.structured.nibbles.shape[1] == 32

    def test_structured_iid_entropy_low(self, small_analysis):
        result = figures.fig12(small_analysis)
        matrix = result.structured
        iid_entropy = np.mean([matrix.column_entropy(c)
                               for c in range(24, 32)])
        assert iid_entropy < 2.0

    def test_fig13_sorted(self, small_analysis):
        matrix = figures.fig13(small_analysis)
        rows = [tuple(r) for r in matrix.nibbles]
        assert rows == sorted(rows)


class TestFig14:
    def test_ranked_series_descending(self, small_analysis):
        result = figures.fig14(small_analysis)
        for series in result.ranked.values():
            assert series == sorted(series, reverse=True)


class TestFig15:
    def test_histogram_nonempty(self, small_analysis):
        result = figures.fig15(small_analysis)
        assert sum(result.histogram.values()) > 0
        assert any(cls is TemporalClass.PERIODIC
                   for cls, _ in result.histogram)


class TestFig16:
    def test_everywhere_sources(self, small_analysis):
        result = figures.fig16(small_analysis)
        assert len(result.everywhere_sources) >= 1
        for source in result.everywhere_sources:
            assert set(result.daily_activity[source]) \
                <= {"T1", "T2", "T3", "T4"}

    def test_weekly_share_bounded(self, small_analysis):
        result = figures.fig16(small_analysis)
        assert all(0.0 <= v <= 1.0
                   for v in result.weekly_same_day_share)


class TestFig17:
    def test_pass_shares_bounded(self, small_analysis):
        result = figures.fig17(small_analysis)
        assert result.sessions_tested > 0
        for share in result.pass_shares.values():
            assert 0.0 <= share <= 1.0

    def test_subnet_less_random_than_iid(self, small_analysis):
        """Appendix B: scanners structure subnets, randomize IIDs."""
        result = figures.fig17(small_analysis)
        iid = [v for (cls, section, test), v in result.pass_shares.items()
               if section == "iid" and test == "frequency"]
        subnet = [v for (cls, section, test), v
                  in result.pass_shares.items()
                  if section == "subnet" and test == "frequency"]
        if iid and subnet:
            assert np.mean(iid) >= np.mean(subnet)


class TestDegradedFigures:
    """fig4 and fig13 degrade, rather than raise, when coverage gaps
    have emptied the corpus, and raise when nothing explains it."""

    @pytest.fixture(scope="class")
    def dark_analysis(self, tmp_path_factory, tiny_corpus):
        from repro.analysis.context import CorpusAnalysis
        from repro.experiment.store import load_corpus, save_corpus
        from repro.faults import FaultInjector, FaultPlan
        path = tmp_path_factory.mktemp("dark") / "corpus"
        save_corpus(tiny_corpus, path)
        FaultInjector(FaultPlan(
            corrupt_segments=("T1", "T2", "T3", "T4"))).corrupt_store(path)
        with pytest.warns(DegradationWarning):
            corpus = load_corpus(path, strict=False)
            for telescope in corpus.telescopes():
                corpus.table(telescope).materialize()
        return CorpusAnalysis(corpus)

    @pytest.fixture(scope="class")
    def empty_analysis(self, tiny_corpus):
        import dataclasses
        from repro.analysis.context import CorpusAnalysis
        from repro.core.columnar import PacketTable
        empty = dataclasses.replace(
            tiny_corpus, packets_by_telescope={}, coverage_gaps={},
            tables_by_telescope={t: PacketTable.empty()
                                 for t in tiny_corpus.telescopes()},
            _phase_table_cache={})
        return CorpusAnalysis(empty)

    def test_fig4_zero_series_when_every_capture_is_dark(self,
                                                         dark_analysis):
        assert dark_analysis.has_gaps()
        with pytest.warns(DegradationWarning) as caught:
            result = figures.fig4(dark_analysis)
        assert caught[0].message.artifact == "fig4"
        assert result.weeks
        assert result.series
        for values in result.series.values():
            assert values == [0.0] * len(result.weeks)

    def test_fig13_empty_matrix_when_every_capture_is_dark(self,
                                                          dark_analysis):
        with pytest.warns(DegradationWarning) as caught:
            matrix = figures.fig13(dark_analysis)
        assert caught[0].message.artifact == "fig13"
        assert matrix.nibbles.shape == (0, 32)

    def test_empty_corpus_without_gaps_raises(self, empty_analysis):
        assert not empty_analysis.has_gaps()
        with pytest.raises(AnalysisError):
            figures.fig4(empty_analysis)
        with pytest.raises(AnalysisError):
            figures.fig13(empty_analysis)
