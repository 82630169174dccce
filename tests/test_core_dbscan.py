"""Tests for repro.core.dbscan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dbscan import NOISE, dbscan, num_clusters
from repro.errors import AnalysisError


class TestBasicClustering:
    def test_two_clusters_and_noise(self):
        points = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2, 50.0]
        labels = dbscan(points, eps=0.5, min_samples=2)
        assert num_clusters(labels) == 2
        assert labels[-1] == NOISE
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_single_cluster(self):
        labels = dbscan([1.0, 1.1, 1.2, 1.3], eps=0.5, min_samples=2)
        assert num_clusters(labels) == 1
        assert NOISE not in labels

    def test_all_noise(self):
        labels = dbscan([0.0, 10.0, 20.0], eps=1.0, min_samples=2)
        assert labels == [NOISE, NOISE, NOISE]

    def test_empty(self):
        assert dbscan([], eps=1.0, min_samples=2) == []

    def test_min_samples_one_clusters_everything(self):
        labels = dbscan([0.0, 100.0], eps=1.0, min_samples=1)
        assert NOISE not in labels
        assert num_clusters(labels) == 2

    def test_2d_points(self):
        points = [[0, 0], [0, 1], [10, 10], [10, 11]]
        labels = dbscan(points, eps=1.5, min_samples=2)
        assert num_clusters(labels) == 2

    def test_chain_expansion(self):
        """Density-reachable chains join one cluster."""
        points = [float(i) for i in range(10)]
        labels = dbscan(points, eps=1.0, min_samples=2)
        assert num_clusters(labels) == 1

    def test_custom_metric(self):
        """A caller's own metric enters as a precomputed distance
        matrix."""
        words = ["a", "bb", "ccc", "dddddddddd"]
        distances = [[abs(len(a) - len(b)) for b in words] for a in words]
        labels = dbscan(distances, eps=1.0, min_samples=2,
                        metric="precomputed")
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == NOISE

    def test_precomputed_must_be_square(self):
        with pytest.raises(AnalysisError):
            dbscan([[0.0, 1.0]], eps=1.0, min_samples=1,
                   metric="precomputed")
        with pytest.raises(AnalysisError):
            dbscan([1.0], eps=1.0, min_samples=1, metric="cosine")

    def test_invalid_parameters(self):
        with pytest.raises(AnalysisError):
            dbscan([1.0], eps=0.0, min_samples=2)
        with pytest.raises(AnalysisError):
            dbscan([1.0], eps=1.0, min_samples=0)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=1, max_size=40),
           st.floats(min_value=0.1, max_value=10),
           st.integers(min_value=1, max_value=5))
    def test_every_point_labelled(self, points, eps, min_samples):
        labels = dbscan(points, eps=eps, min_samples=min_samples)
        assert len(labels) == len(points)
        assert all(isinstance(label, int) for label in labels)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100,
                              allow_nan=False), min_size=2, max_size=30))
    def test_identical_points_share_cluster(self, points):
        doubled = points + points
        labels = dbscan(doubled, eps=0.5, min_samples=2)
        n = len(points)
        for i in range(n):
            assert labels[i] == labels[i + n]


class TestBorderUpgrade:
    def test_expansion_reaches_early_noise(self):
        """A point first labelled NOISE must become a border point when a
        later cluster expands into its neighborhood (reviewed bug)."""
        labels = dbscan([3.0, 0.0, 1.0, 2.0], eps=1.0, min_samples=3)
        assert labels == [0, 0, 0, 0]

    def test_border_point_keeps_first_cluster(self):
        """A border point density-reachable from two clusters belongs to
        the cluster that reaches it first, even after it was NOISE."""
        border = [2.0]
        first = [3.0, 3.5, 4.0, 4.5, 5.0]
        second = [-1.0, -0.5, 0.0, 0.5, 1.0]
        labels = dbscan(border + first + second, eps=1.0, min_samples=4)
        # the border point has 3 neighbours (itself, 1.0 and 3.0): NOISE
        # on its own visit, then claimed by the first cluster
        assert labels == [0] * 6 + [1] * 5


class TestPairwisePath:
    """The precomputed-distance-matrix path must match the re-scan path."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32), st.integers(2, 6))
    def test_matches_scan_path(self, seed, dims):
        import repro.core.dbscan as mod
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(60, dims)) * 3.0
        fast = dbscan(points, eps=1.5, min_samples=3)
        original = mod.PAIRWISE_LIMIT
        mod.PAIRWISE_LIMIT = 0
        try:
            slow = dbscan(points, eps=1.5, min_samples=3)
        finally:
            mod.PAIRWISE_LIMIT = original
        assert fast == slow
