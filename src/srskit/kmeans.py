"""Plain Lloyd k-means on column data, plus the balanced-centers check.

Centers are initialized at data columns drawn uniformly at random, the
best of several restarts by within-cluster sum of squares wins, and
iterations stop once assignments stabilize.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import TooManySamplesError
from .matrix import ClusterLabels, as_matrix


def kmeans(
    D: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int = 100,
    restarts: int = 10,
) -> np.ndarray:
    """Cluster the columns of ``D``; returns the k centers as columns."""
    D = as_matrix(D)
    n2 = D.shape[1]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n2:
        raise TooManySamplesError(f"k={k} exceeds {n2} columns")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    points = np.ascontiguousarray(D.T)
    best_centers = None
    best_inertia = np.inf
    for _ in range(restarts):
        init = points[rng.permutation(n2)[:k]].copy()
        centers, _, inertia, _ = _kernels.lloyd(points, init, max_iters)
        if inertia < best_inertia:
            best_inertia = inertia
            best_centers = centers
    return best_centers.T.copy()


def assign_to_columns(centers: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Index of the nearest data column for each center (ties: lowest)."""
    centers = as_matrix(centers)
    D = as_matrix(D)
    return _kernels.nearest(centers.T, D.T)


def balanced_centers_check(
    centers: np.ndarray, D: np.ndarray, labels: ClusterLabels
) -> bool:
    """True when every ground-truth cluster owns at least one center.

    A center belongs to the cluster of its nearest data column.
    """
    owners = labels.values[assign_to_columns(centers, D)]
    return np.unique(owners).size == labels.n_clusters
