"""Plain Lloyd k-means on column data, plus the balanced-centers check.

Centers are initialized at data columns drawn uniformly at random, the
best of several restarts by within-cluster sum of squares wins, and
iterations stop once assignments stabilize.  Restarts run in lockstep,
in tile-sized groups whose inits are drawn restart by restart: results
and generator state are those of one restart after another.
"""

from __future__ import annotations

import numpy as np

from . import _kernels, _parallel
from .errors import TooManySamplesError, check_count
from .matrix import ClusterLabels, checked_with_squares, in_range, pow2_scaled


def check_kmeans_args(n2: int, k: int, restarts: int, max_iters: int):
    """The argument checks of ``kmeans`` on ``n2`` columns, in its order."""
    check_count("k", k)
    if k > n2:
        raise TooManySamplesError(f"k={k} exceeds {n2} columns")
    check_count("restarts", restarts)
    check_count("max_iters", max_iters)


def kmeans(D: np.ndarray, k: int, rng: np.random.Generator, max_iters: int = 100,
           restarts: int = 10) -> np.ndarray:
    """Cluster the columns of ``D``; returns the k centers as columns."""
    D, _, by = in_range(*checked_with_squares(D))  # centers scaled back
    n2 = D.shape[1]
    check_kmeans_args(n2, k, restarts, max_iters)
    points = np.ascontiguousarray(D.T)
    # a group's (group k, max(n, d)) scores and centers fit one tile
    group = max(1, _parallel.TILE_BYTES // (8 * k * max(points.shape)))
    best_centers = None
    best_inertia = np.inf
    for s in range(0, restarts, group):
        inits = np.stack([points[rng.permutation(n2)[:k]]
                          for _ in range(min(group, restarts - s))])
        centers, _, inertia, _ = _kernels.lloyd(points, inits, max_iters)
        j = int(np.argmin(inertia))  # the first of the group's least
        if inertia[j] < best_inertia:
            best_inertia = inertia[j]
            best_centers = centers[j]
    return pow2_scaled(best_centers, by=-by)[0].T.copy()


def assign_to_columns(centers: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Index of the nearest data column for each center (ties: lowest)."""
    centers = checked_with_squares(centers)[0]
    D, _, by = in_range(*checked_with_squares(D))  # centers by D's power
    return _kernels.nearest(pow2_scaled(centers, by=by)[0].T, D.T)


def balanced_centers_check(
    centers: np.ndarray, D: np.ndarray, labels: ClusterLabels
) -> bool:
    """True when every ground-truth cluster owns at least one center.

    A center belongs to the cluster of its nearest data column.
    """
    return bool(labels.counts(assign_to_columns(centers, D)).all())
