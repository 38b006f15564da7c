"""Numpy inner loops: exclusion argmax, Lloyd, nearest center.

Kernels here are the inner loops of sampling and k-means: the exclusion
argmax of without-replacement spatial sampling, the nearest-center search
and the Lloyd iteration.  Other BLAS-bound steps (Q = Phi @ X, residual
updates) stay in numpy in their home modules; spatial selection hands the
exclusion argmax one row block of |Phi . X| at a time.
"""

from __future__ import annotations

import numpy as np


def nearest(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Index of the nearest row of ``b`` for each row of ``a`` (ties: lowest).

    ||a_i - b_j||^2 - ||a_i||^2 = ||b_j||^2 - 2 a_i.b_j comes from one
    (m, n) GEMM, with no (m, n, d) difference temporary.  The GEMM rounds
    equal distances apart (even for duplicate rows of ``b``), so every
    candidate within the rounding bound of a row's minimum is settled by
    its exact distance ||a_i - b_j||^2, and the labels are those of the
    exact distances.
    """
    bb = np.einsum("ij,ij->i", b, b)
    scores = bb - 2.0 * (a @ b.T)
    # each form rounds by at most (d + 3) eps/2 (||a_i|| + ||b_j||)^2, so the
    # exact argmin scores within twice both errors of the minimum; tol
    # allows twice that
    radius = np.sqrt(np.einsum("ij,ij->i", a, a)) + np.sqrt(bb.max())
    tol = 4.0 * (a.shape[1] + 3) * np.finfo(np.float64).eps * radius**2
    rows, cols = np.nonzero(scores <= (scores.min(axis=1) + tol)[:, None])
    if rows.size == a.shape[0]:
        return cols  # one candidate per row: the argmin
    diff = a[rows] - b[cols]
    dist = np.einsum("ij,ij->i", diff, diff)
    order = np.lexsort((cols, dist, rows))  # by row, distance, index
    first = np.flatnonzero(np.diff(rows[order], prepend=-1))
    return cols[order[first]]


def pick_distinct_argmax(
    absq: np.ndarray, taken: np.ndarray | None = None
) -> np.ndarray:
    """Row-by-row argmax with exclusion of already-picked columns.

    ``absq`` is an (n, N2) block of absolute projections; row i picks
    the largest not-yet-taken entry, ties to the lowest column index.
    ``taken`` is the (N2,) mask of columns picked before this block
    (none when omitted); the block's picks are marked in it in place.
    Only rows whose unrestricted argmax is already taken are searched
    again with the taken columns masked out.
    """
    if taken is None:
        taken = np.zeros(absq.shape[1], dtype=bool)
    out = absq.argmax(axis=1)
    for i, k in enumerate(out):
        if taken[k]:
            k = np.where(taken, -1.0, absq[i]).argmax()
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
        new_labels = nearest(points, centers)
        for c in range(k):
            mask = new_labels == c
            if np.any(mask):
                centers[c] = points[mask].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    labels = nearest(points, centers)
    # exact residuals, so rounding in the GEMM form never ranks restarts
    resid = points - centers[labels]
    inertia = float(np.einsum("ij,ij->i", resid, resid).sum())
    return centers, labels, inertia, it
