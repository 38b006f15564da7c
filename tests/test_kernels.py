"""The numpy kernels checked against plain-loop reference implementations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from srskit import _kernels


def oracle_pick_distinct_argmax(absq):
    """Scan each row for the largest untaken entry; strict > keeps ties low."""
    n, n2 = absq.shape
    out = np.empty(n, dtype=np.int64)
    taken = np.zeros(n2, dtype=bool)
    for i in range(n):
        best = -1.0
        arg = -1
        for j in range(n2):
            if not taken[j] and absq[i, j] > best:
                best = absq[i, j]
                arg = j
        out[i] = arg
        taken[arg] = True
    return out


def exact_pick_distinct_argmax(absq, taken=None):
    """``pick_distinct_argmax`` on an exact screen: ``tol`` is zero and the
    exact score of an entry is the entry itself."""
    if taken is None:
        taken = np.zeros(absq.shape[1], dtype=bool)
    exact = absq.copy()
    return _kernels.pick_distinct_argmax(
        absq, taken, np.zeros(absq.shape[0]), lambda r, c: exact[r, c])


def oracle_lloyd(points, centers, max_iters):
    """Lloyd with explicit per-point loops and running cluster sums."""
    n, d = points.shape
    k = centers.shape[0]
    centers = centers.copy()
    labels = np.full(n, -1, dtype=np.int64)

    def nearest(p):
        dists = [sum((points[p, j] - centers[c, j]) ** 2 for j in range(d))
                 for c in range(k)]
        arg = int(np.argmin(dists))
        return arg, dists[arg]

    it = 0
    for it in range(1, max_iters + 1):
        changed = False
        sums = np.zeros((k, d))
        counts = np.zeros(k, dtype=np.int64)
        for p in range(n):
            arg, _ = nearest(p)
            changed |= labels[p] != arg
            labels[p] = arg
            counts[arg] += 1
            sums[arg] += points[p]
        for c in range(k):
            if counts[c] > 0:
                centers[c] = sums[c] / counts[c]
        if not changed:
            break
    inertia = 0.0
    for p in range(n):
        labels[p], dist = nearest(p)
        inertia += dist
    return centers, labels, inertia, it


def test_pick_distinct_argmax_backends_agree():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n2 = int(rng.integers(1, 40))
        n = int(rng.integers(1, n2 + 1))
        absq = np.abs(rng.standard_normal((n, n2)))
        a = exact_pick_distinct_argmax(absq)
        b = oracle_pick_distinct_argmax(absq)
        assert (a == b).all()


@st.composite
def tie_heavy_matrices(draw):
    n2 = draw(st.integers(1, 12))
    n = draw(st.integers(1, n2))
    values = arrays(np.int64, (n, n2), elements=st.integers(0, 3))
    return draw(values).astype(np.float64)


@settings(deadline=None)
@given(tie_heavy_matrices())
def test_pick_distinct_argmax_matches_oracle_on_ties(absq):
    picked = exact_pick_distinct_argmax(absq)
    assert (picked == oracle_pick_distinct_argmax(absq)).all()
    assert np.unique(picked).size == picked.size


@settings(deadline=None)
@given(tie_heavy_matrices(), st.data())
def test_pick_distinct_argmax_blocks_share_taken(absq, data):
    # row blocks handed in order with one taken mask pick what the whole
    # matrix picks, and the mask ends up marking exactly those columns
    cut = data.draw(st.integers(0, absq.shape[0]))
    taken = np.zeros(absq.shape[1], dtype=bool)
    picked = np.concatenate([
        exact_pick_distinct_argmax(absq[:cut], taken),
        exact_pick_distinct_argmax(absq[cut:], taken),
    ])
    assert (picked == oracle_pick_distinct_argmax(absq)).all()
    assert (np.flatnonzero(taken) == np.sort(picked)).all()


def test_pick_distinct_argmax_tie_lowest_index():
    absq = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    assert list(exact_pick_distinct_argmax(absq)) == [0, 1]


def test_pick_distinct_argmax_exclusion():
    # one dominant column; later rows must fall back to the runner-up
    absq = np.array([[9.0, 1.0, 2.0], [9.0, 1.0, 2.0], [9.0, 1.0, 2.0]])
    assert list(exact_pick_distinct_argmax(absq)) == [0, 2, 1]


def test_lloyd_backends_agree():
    rng = np.random.default_rng(1)
    # two well-separated blobs
    pts = np.vstack([
        rng.standard_normal((40, 3)) * 0.1 + 5.0,
        rng.standard_normal((60, 3)) * 0.1 - 5.0,
    ])
    init = pts[[0, 50]].copy()
    c_np, l_np, i_np, _ = _kernels.lloyd(pts, init, 50)
    c_or, l_or, i_or, _ = oracle_lloyd(pts, init, 50)
    assert np.allclose(c_np, c_or, atol=1e-10)
    assert (l_np == l_or).all()
    assert abs(i_np - i_or) < 1e-8 * (1.0 + abs(i_np))


def test_lloyd_k1_fixed_point():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((30, 4))
    centers, labels, inertia, _ = _kernels.lloyd(pts, pts[:1].copy(), 50)
    assert np.allclose(centers[0], pts.mean(axis=0), atol=1e-12)
    assert (labels == 0).all()
    assert inertia > 0


def test_lloyd_empty_cluster_keeps_center():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
    init = np.array([[0.1, 0.0], [50.0, 50.0]])
    centers, labels, _, _ = _kernels.lloyd(pts, init, 10)
    assert (labels == 0).all()
    assert np.allclose(centers[1], [50.0, 50.0])


def oracle_nearest(a, b):
    """Argmin of every exact squared distance; argmin keeps ties low."""
    return np.argmin(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2), axis=1)


@st.composite
def integer_rows_with_duplicates(draw):
    # small integers keep every product and sum exact in float64, so ties
    # are exact and frequent
    d = draw(st.integers(1, 6))
    a = draw(arrays(np.int64, (draw(st.integers(1, 8)), d), elements=st.integers(-3, 3)))
    b = draw(arrays(np.int64, (draw(st.integers(1, 8)), d), elements=st.integers(-3, 3)))
    copies = draw(st.lists(st.integers(0, b.shape[0] - 1), max_size=4))
    b = np.vstack([b, b[copies]])
    return a.astype(np.float64), b.astype(np.float64)


@settings(deadline=None)
@given(integer_rows_with_duplicates())
def test_nearest_matches_oracle_on_ties(ab):
    a, b = ab
    assert (_kernels.nearest(a, b) == oracle_nearest(a, b)).all()


def test_nearest_matches_oracle_random_with_duplicate_rows():
    rng = np.random.default_rng(3)
    # (150, 129, 65) is a size at which a plain GEMM argmin was seen to
    # pick the later copy of a duplicated row
    for m, n, d in [(5, 7, 4), (40, 9, 100), (150, 129, 65)]:
        a = rng.standard_normal((m, d))
        b = rng.standard_normal((n, d))
        for dup in (b, b[::-1]):
            bb = np.vstack([b, dup])  # ties must go to the first copy
            got = _kernels.nearest(a, bb)
            assert (got == oracle_nearest(a, bb)).all()
            assert (got < n).all()
