"""Numpy inner loops: spatial winners, Lloyd, nearest center.

Kernels here are the inner loops of sampling and k-means: the row-wise
argmax of spatial sampling (with or without exclusion of picked
columns), the nearest-center search and the Lloyd iteration.  The
argmax and the nearest-center search rank by a fast score first and
settle every candidate within its rounding bound by an exact one, in
``lowest_best``; a result therefore depends on the inputs alone, not on
how a BLAS rounded the fast score.  The GEMMs behind the fast scores stay
in their home modules; spatial selection reduces its |Phi . X| screen tile
by tile itself, and hands the argmax whole screen rows: a tile of every
column, or a batch of the rows it screens again.
"""

from __future__ import annotations

import numpy as np


def lowest_best(rows: np.ndarray, cols: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """For each distinct value of ``rows``, ascending, the ``cols`` entry
    with the smallest key; among equal keys the lowest ``cols`` entry."""
    order = np.lexsort((cols, keys, rows))  # by row, key, index
    first = np.flatnonzero(np.diff(rows[order], prepend=-1))
    return cols[order[first]]


def exact_abs_dots(a: np.ndarray, b: np.ndarray, rows, cols) -> np.ndarray:
    """|a[r] . b[:, c]| for each pair (r, c) of ``rows`` and ``cols``.

    The float64 products are summed left to right, so a score is a fixed
    function of the bits of the two vectors: it does not depend on the
    BLAS, its threads, or which other pairs are scored with it.
    """
    out = np.empty(rows.size)
    step = max(1, (1 << 17) // a.shape[1])  # 1 MiB of products at a time
    for s in range(0, rows.size, step):
        r = rows[s : s + step]
        products = b[:, cols[s : s + step]]
        # the pairs of one row (all candidates of a selection row) use it
        # as is: a gathered copy per pair is a second large temporary, and
        # on 100 x 50,000 data of 10 distinct columns (n=400, with
        # replacement) it made a first call fault in 10 times the pages
        products *= a[r[0], :, None] if (r == r[0]).all() else a[r].T
        acc = np.zeros(products.shape[1])
        for p in products:
            acc += p
        out[s : s + step] = np.abs(acc)
    return out


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
    return lowest_best(rows, cols, np.einsum("ij,ij->i", diff, diff))


def pick_argmax(
    absq: np.ndarray, tol: np.ndarray | None = None, score=None
) -> np.ndarray:
    """Row-wise argmax of a block of absolute projections.

    Without ``score`` the entries of ``absq`` are exact: row i picks its
    largest entry, ties to the lowest column index.  With it, ``absq`` is
    a screen: each entry of row i is within ``tol[i] / 2`` of its exact
    score, which ``score(rows, cols)`` returns for (row, column) pairs.
    Row i then picks, among its entries within ``tol[i]`` of the row's
    maximum, the best exact score, ties to the lowest index; exact scores
    are computed only for rows with two or more such entries.  ``absq``
    is written to and restored.
    """
    best = absq.argmax(axis=1)
    if score is None:
        return best
    r = np.arange(absq.shape[0])
    top = absq[r, best]
    # top - tol in float64, rounded to the screen's dtype and then one step
    # down, so the cut is never above it
    cut = np.nextafter((top - tol).astype(absq.dtype), -np.inf)
    absq[r, best] = -np.inf
    near = np.flatnonzero(absq.max(axis=1) >= cut)  # a second candidate
    absq[r, best] = top
    # settle a few rows at a time, so the candidate mask stays far smaller
    # than the block
    step = max(1, (1 << 16) // absq.shape[1])
    for s in range(0, near.size, step):
        rows = near[s : s + step]
        ids, cols = np.nonzero(absq[rows] >= cut[rows, None])
        best[rows] = lowest_best(ids, cols, -score(rows[ids], cols))
    return best


def pick_distinct_argmax(
    absq: np.ndarray,
    taken: np.ndarray | None = None,
    tol: np.ndarray | None = None,
    score=None,
) -> np.ndarray:
    """Row-by-row argmax with exclusion of already-picked columns.

    ``absq`` is an (n, N2) block of absolute projections; row i picks
    the best not-yet-taken column by the rule of ``pick_argmax`` (which
    ``tol`` and ``score`` are passed to).  ``taken`` is the (N2,) mask
    of columns picked before this block (none when omitted); the block's
    picks are marked in it in place.  Only rows whose unrestricted pick
    is already taken are searched again with the taken columns masked.
    """
    if taken is None:
        taken = np.zeros(absq.shape[1], dtype=bool)
    out = pick_argmax(absq, tol, score)
    for i, k in enumerate(out):
        if taken[k]:
            row = np.where(taken, -np.inf, absq[i : i + 1])
            if score is None:
                k = row.argmax()
            else:
                k = pick_argmax(row, tol[i : i + 1], lambda r, c: score(r + i, c))[0]
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
