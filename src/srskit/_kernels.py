"""Numpy inner loops: spatial winners, Lloyd, nearest center.

Kernels here are the inner loops of sampling and k-means: the row-wise
argmax of spatial sampling (with or without exclusion of picked
columns), the nearest-center search and Lloyd, whose restarts share one
nearest-center GEMM per round.  Both searches rank by a fast score and
settle every candidate within its rounding bound by an exact one, in
``lowest_best``; a result depends on the inputs alone, not on how a BLAS
rounded the fast score or which restarts shared its GEMM.  Spatial
selection keeps its GEMMs and reduces each |Phi . X| screen tile, and
``pick_argmax`` whole screen rows, with ``top_two``, which checks the
values: a non-finite row maximum is an InternalError.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError


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
    """Index of the nearest row of ``b`` for each row of ``a`` (ties: lowest)."""
    return nearest_stack(a, np.sqrt(np.einsum("ij,ij->i", a, a)), b[None])[0]


def nearest_stack(a: np.ndarray, a_norms: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(R, m) labels: for each row i of ``a`` the nearest row of ``B[r]``.

    ``a_norms`` holds the row norms of ``a``.  ||a_i - b_j||^2 - ||a_i||^2
    = ||b_j||^2 - 2 a_i.b_j comes from one (R k, m) GEMM for every stack,
    with no (m, k, d) difference temporary; the layout makes the min over
    the k rows of a stack an elementwise pass.  The GEMM rounds equal
    distances apart (even for duplicate rows of ``B[r]``), so every
    candidate within the rounding bound of the minimum is settled by its
    exact distance ||a_i - b_j||^2, and the labels are those of the exact
    distances.
    """
    R, k, d = B.shape
    m = a.shape[0]
    bb = np.einsum("rjd,rjd->rj", B, B)
    scores = (B.reshape(R * k, d) @ a.T).reshape(R, k, m)
    scores *= -2.0
    scores += bb[:, :, None]
    # each form rounds by at most (d + 3) eps/2 (||a_i|| + ||b_j||)^2, so the
    # exact argmin scores within twice both errors of the minimum; the cut
    # allows twice that
    cut = (a_norms + np.sqrt(bb.max(axis=1))[:, None]) ** 2
    cut *= 4.0 * (d + 3) * np.finfo(np.float64).eps
    cut += scores.min(axis=1)
    near = scores <= cut[:, None, :]
    del cut, scores  # the tile is not held while candidates are settled
    # where a (restart, point) has one candidate, its index is the argmin
    labels = (np.arange(k, dtype=np.float64) @ near).astype(np.int64)
    if np.count_nonzero(near) > R * m:
        rr, cc, ii = np.nonzero(near & (near.sum(axis=1) > 1)[:, None, :])
        rows = rr * m + ii
        diff = a[ii] - B[rr, cc]
        keys = np.einsum("ij,ij->i", diff, diff)
        labels.reshape(-1)[np.unique(rows)] = lowest_best(rows, cc, keys)
    return labels


def top_two(q: np.ndarray):
    """Per row of ``q``: the argmax (ties to the lowest index), the maximum
    and the largest other entry; ``q`` is written to and restored.  A NaN
    or infinite maximum, which checked inputs cannot give, is an InternalError."""
    k = q.argmax(axis=1)
    r = np.arange(q.shape[0])
    t = q[r, k]
    if not np.isfinite(t).all():
        raise InternalError("the |Phi . X| screen has a non-finite entry")
    q[r, k] = -np.inf
    s = q.max(axis=1)
    q[r, k] = t
    return k, t, s


def candidate_cut(top: np.ndarray, tol: np.ndarray, dtype) -> np.ndarray:
    """Per row, the least screen value a pick may have: ``top - tol`` in
    float64, rounded to the screen's ``dtype`` and one step down."""
    return np.nextafter((top - tol).astype(dtype), -np.inf)


def pick_argmax(absq: np.ndarray, tol: np.ndarray, score) -> np.ndarray:
    """Row-wise argmax of a screen of absolute projections.

    Each entry of row i of ``absq`` is within ``tol[i] / 2`` of its exact
    score, which ``score(rows, cols)`` returns for (row, column) pairs.
    Row i picks, among its entries within ``tol[i]`` of the row's
    maximum, the best exact score, ties to the lowest index; exact scores
    are computed only for rows with two or more such entries.  ``absq``
    is written to and restored.
    """
    best, top, second = top_two(absq)
    cut = candidate_cut(top, tol, absq.dtype)
    near = np.flatnonzero(second >= cut)  # a second candidate
    # settle a few rows at a time, so the candidate mask stays far smaller
    # than the block
    step = max(1, (1 << 16) // absq.shape[1])
    for s in range(0, near.size, step):
        rows = near[s : s + step]
        ids, cols = np.nonzero(absq[rows] >= cut[rows, None])
        best[rows] = lowest_best(ids, cols, -score(rows[ids], cols))
    return best


def pick_distinct_argmax(
    absq: np.ndarray, taken: np.ndarray, tol: np.ndarray, score
) -> np.ndarray:
    """Row-by-row argmax with exclusion of already-picked columns.

    ``absq`` is an (n, N2) block of absolute projections; row i picks
    the best not-yet-taken column by the rule of ``pick_argmax`` (which
    ``tol`` and ``score`` are passed to).  ``taken`` is the (N2,) mask
    of columns picked before this block; the block's picks are marked in
    it in place.  Only rows whose unrestricted pick is already taken are
    searched again with the taken columns masked.
    """
    out = pick_argmax(absq, tol, score)
    for i, k in enumerate(out):
        if taken[k]:
            row = np.where(taken, -np.inf, absq[i : i + 1])
            k = pick_argmax(row, tol[i : i + 1], lambda r, c: score(r + i, c))[0]
            out[i] = k
        taken[k] = True
    return out


def lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int):
    """Lloyd on row-vector points from an (R, k, d) stack of inits, run in
    lockstep; a run stops when its labels repeat (its centers would
    recompute bit for bit).  Returns (centers, labels, inertia, iterations),
    each per run but the summed iterations.  Only clusters whose members
    changed are recomputed; an emptied one stays.
    """
    C = np.array(centers, dtype=np.float64)
    R, k, _ = C.shape
    norms = np.sqrt(np.einsum("ij,ij->i", points, points))
    labels = np.full((R, points.shape[0]), -1, dtype=np.int64)
    act = np.arange(R)
    iters = 0
    for _ in range(max_iters):
        iters += act.size
        new = nearest_stack(points, norms, C[act])
        # moved[r, c]: a point joined or left cluster c (c = k: label -1)
        moved = np.zeros((act.size, k + 1), dtype=bool)
        r, i = np.nonzero(labels[act] != new)
        moved[r, new[r, i]] = moved[r, labels[act[r], i]] = True
        for p, c in zip(*np.nonzero(moved[:, :k])):
            members = np.flatnonzero(new[p] == c)
            if members.size:  # the sequential sum of .mean(axis=0)
                C[act[p], c] = np.add.reduce(points[members], axis=0) / members.size
        labels[act] = new
        act = act[moved.any(axis=1)]
        del new, r, i  # no (R, n) temporaries held through the next GEMM
        if not act.size:
            break
    if act.size:
        labels[act] = nearest_stack(points, norms, C[act])
    # exact residuals, so rounding in the GEMM form never ranks restarts
    inertia = np.empty(R)
    resid = np.empty_like(points)
    for r in range(R):
        np.take(C[r], labels[r], axis=0, out=resid, mode="clip")
        np.subtract(points, resid, out=resid)
        inertia[r] = np.einsum("ij,ij->i", resid, resid).sum()
    return C, labels, inertia, iters
