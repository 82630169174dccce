"""DBSCAN density-based clustering.

The paper uses DBSCAN twice: to classify network-selection behavior (§5.2)
and to cluster probe payloads (§5.4). sklearn is unavailable offline, so
this is a from-scratch implementation over Euclidean numeric data or a
caller's precomputed distance matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AnalysisError

#: Label assigned to noise points.
NOISE = -1

#: Up to this many points the Euclidean path precomputes the full pairwise
#: distance matrix (n^2 floats; 2048^2 ~ 32 MiB) so each neighborhood
#: query is a row slice instead of an O(n) re-scan per expanded point.
PAIRWISE_LIMIT = 2048


def dbscan(points: Sequence, eps: float, min_samples: int,
           metric: str = "euclidean") -> list[int]:
    """Cluster ``points``; returns one label per point (-1 = noise).

    With ``metric="euclidean"`` points must be numeric vectors (or
    scalars) and neighborhoods come from a vectorized distance query;
    with ``metric="precomputed"`` ``points`` is the square matrix of
    pairwise distances. Either way a neighborhood lists its points in
    ascending index order.
    """
    n = len(points)
    if n == 0:
        return []
    if eps <= 0:
        raise AnalysisError(f"eps must be > 0, got {eps}")
    if min_samples < 1:
        raise AnalysisError(f"min_samples must be >= 1, got {min_samples}")

    if metric == "precomputed":
        distances = np.asarray(points)
        if distances.shape != (n, n):
            raise AnalysisError(f"precomputed distances must be {n} x {n}, "
                                f"got {distances.shape}")
        adjacency = distances <= eps
    elif metric == "euclidean":
        data = np.asarray(points, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        adjacency = None
        if n <= PAIRWISE_LIMIT:
            # ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a.b, computed once for all
            # pairs; comparing squared distances avoids the sqrt entirely
            sq = (data ** 2).sum(axis=1)
            d2 = sq[:, None] + sq[None, :] - 2.0 * (data @ data.T)
            adjacency = d2 <= eps * eps + 1e-12
    else:
        raise AnalysisError(f"unknown metric {metric!r}")

    if adjacency is not None:
        def neighbors_of(i: int) -> list[int]:
            return np.flatnonzero(adjacency[i]).tolist()
    else:
        def neighbors_of(i: int) -> list[int]:
            dist = ((data - data[i]) ** 2).sum(axis=1)
            return np.flatnonzero(dist <= eps * eps).tolist()

    labels = [None] * n  # type: list[int | None]
    cluster = 0
    for i in range(n):
        if labels[i] is not None:
            continue
        neighborhood = neighbors_of(i)
        if len(neighborhood) < min_samples:
            labels[i] = NOISE
            continue
        labels[i] = cluster
        queue = _claim(neighborhood, labels, cluster)
        while queue:
            j_neighbors = neighbors_of(queue.pop())
            if len(j_neighbors) >= min_samples:
                queue.extend(_claim(j_neighbors, labels, cluster))
        cluster += 1
    return labels


def _claim(neighborhood: list[int], labels: list, cluster: int) -> list[int]:
    """Give ``cluster`` the points of a core point's neighbourhood that
    no cluster holds; returns the unvisited ones, which still need
    expanding. Labelling a point when it is queued queues it at most
    once; a NOISE point is a border point and is never expanded."""
    fresh = []
    for k in neighborhood:
        if labels[k] is None:
            labels[k] = cluster
            fresh.append(k)
        elif labels[k] == NOISE:
            labels[k] = cluster
    return fresh


def num_clusters(labels: Sequence[int]) -> int:
    """Number of proper clusters (noise excluded)."""
    return len({label for label in labels if label != NOISE})
