"""Numpy inner loops: exclusion argmax, Lloyd, pairwise distances.

Kernels here are the sequential loops that numpy cannot vectorize:
the exclusion argmax of without-replacement spatial sampling and the
Lloyd iteration of k-means.  BLAS-bound steps (Q = Phi @ X, residual
updates) stay in numpy in their home modules.
"""

from __future__ import annotations

import numpy as np


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(m, n) squared Euclidean distances between rows of ``a`` and ``b``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("mnd,mnd->mn", diff, diff)


def pick_distinct_argmax(absq: np.ndarray) -> np.ndarray:
    """Row-by-row argmax with exclusion of already-picked columns.

    ``absq`` is the (n, N2) matrix of absolute projections; row i picks
    the largest not-yet-chosen entry, ties to the lowest column index.
    """
    n, n2 = absq.shape
    out = np.empty(n, dtype=np.int64)
    taken = np.zeros(n2, dtype=bool)
    for i in range(n):
        h = np.where(taken, -1.0, absq[i])
        k = int(np.argmax(h))
        out[i] = k
        taken[k] = True
    return out


def lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int):
    """Lloyd iterations on row-vector points; stops when labels stabilize.

    Returns (centers, labels, inertia, iterations).  An emptied center
    keeps its previous position.
    """
    n = points.shape[0]
    k = centers.shape[0]
    centers = centers.copy()
    labels = np.full(n, -1, dtype=np.int64)
    it = 0
    for it in range(1, max_iters + 1):
        new_labels = np.argmin(sq_dists(points, centers), axis=1)
        for c in range(k):
            mask = new_labels == c
            if np.any(mask):
                centers[c] = points[mask].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    dist = sq_dists(points, centers)
    labels = np.argmin(dist, axis=1)
    inertia = float(dist[np.arange(n), labels].sum())
    return centers, labels, inertia, it
