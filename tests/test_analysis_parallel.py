"""Tests for repro.analysis.parallel (fail-fast fan-out)."""

import pytest

from repro.analysis.parallel import fan_out
from repro.errors import AnalysisError


class TestFanOut:
    def test_results_in_insertion_order(self):
        tasks = {"c": lambda: 3, "a": lambda: 1, "b": lambda: 2}
        for jobs in (1, 3):
            results = fan_out(tasks, jobs=jobs)
            assert list(results) == ["c", "a", "b"]
            assert [r for _, r in results.values()] == [3, 1, 2]

    def test_invalid_jobs(self):
        with pytest.raises(AnalysisError):
            fan_out({"a": lambda: 1}, jobs=0)

    def test_permanent_failure_propagates(self):
        """A raising task runs once; the error names it and chains the
        original exception."""
        for jobs in (1, 2):
            calls = []

            def doomed():
                calls.append("doomed")
                raise ValueError("always broken")

            with pytest.raises(AnalysisError, match="'doomed'") as exc_info:
                fan_out({"solid": lambda: 7, "doomed": doomed}, jobs=jobs)
            assert isinstance(exc_info.value.__cause__, ValueError)
            assert "always broken" in str(exc_info.value.__cause__)
            assert calls == ["doomed"]
