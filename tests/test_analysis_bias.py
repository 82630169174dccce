"""Tests for repro.analysis.bias and guidance."""

import pytest

from repro.analysis.bias import (bias_report, profile_telescope,
                                 total_variation)
from repro.analysis.guidance import derive_guidance
from repro.errors import AnalysisError


class TestTotalVariation:
    def test_identical(self):
        assert total_variation({"a": 0.5, "b": 0.5},
                               {"a": 0.5, "b": 0.5}) == 0.0

    def test_disjoint(self):
        assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0

    def test_partial(self):
        assert total_variation({"a": 1.0}, {"a": 0.5, "b": 0.5}) \
            == pytest.approx(0.5)

    def test_empty(self):
        assert total_variation({}, {}) == 0.0


class TestProfiles:
    def test_profile_shape(self, small_analysis):
        profile = profile_telescope(small_analysis, "T1")
        assert profile.sources > 0
        assert profile.sessions > 0
        assert sum(profile.temporal_mix.values()) == pytest.approx(1.0)
        assert profile.rotation_ratio >= 1.0

    def test_t2_rotation_exceeds_t1(self, small_analysis):
        t1 = profile_telescope(small_analysis, "T1")
        t2 = profile_telescope(small_analysis, "T2")
        assert t2.rotation_ratio > t1.rotation_ratio

    def test_empty_telescope_profile(self, small_analysis):
        profile = profile_telescope(small_analysis, "T3")
        # T3 is almost silent; the profile must not crash
        assert profile.sources >= 0


class TestBiasReport:
    def test_report_structure(self, small_analysis):
        report = bias_report(small_analysis)
        assert set(report.profiles) == {"T1", "T2", "T3", "T4"}
        assert report.divergences
        for value in report.divergences.values():
            assert 0.0 <= value <= 1.0

    def test_t1_t2_populations_differ(self, small_analysis):
        """BGP- and DNS-drawn populations are measurably different."""
        report = bias_report(small_analysis)
        assert report.divergences[("T1", "T2")] > 0.1

    def test_render(self, small_analysis):
        text = bias_report(small_analysis).render()
        assert "T1 vs T2" in text


class TestGuidance:
    def test_all_five_recommendations(self, small_analysis):
        report = derive_guidance(small_analysis)
        keys = {r.key for r in report.recommendations}
        assert keys == {"announce", "count-over-size",
                        "attractor-diversity", "react",
                        "structured-targets"}

    def test_announce_factor_enormous(self, small_analysis):
        """(i): own announcements beat silent subnets by orders of
        magnitude."""
        report = derive_guidance(small_analysis)
        assert report.get("announce").factor > 100

    def test_count_over_size(self, small_analysis):
        """(ii): session yield shrinks far slower than prefix size."""
        report = derive_guidance(small_analysis)
        assert report.get("count-over-size").factor > 10

    def test_reactive_factor(self, small_analysis):
        report = derive_guidance(small_analysis)
        assert report.get("react").factor > 10

    def test_structured_share(self, small_analysis):
        report = derive_guidance(small_analysis)
        assert 0.4 < report.get("structured-targets").factor <= 1.0

    def test_render(self, small_analysis):
        text = derive_guidance(small_analysis).render()
        assert "announce" in text
        assert "evidence" in text

    def test_unknown_key_rejected(self, small_analysis):
        report = derive_guidance(small_analysis)
        with pytest.raises(AnalysisError):
            report.get("nope")
