import numpy as np
import pytest

from srskit import _kernels, _parallel
from srskit import (
    ClusterLabels,
    assign_to_columns,
    balanced_centers_check,
    kmeans,
)


def blobs(rng, centers, per, spread=0.05):
    cols = []
    for c in centers:
        cols.append(np.asarray(c)[:, None] + spread * rng.standard_normal((len(c), per)))
    return np.hstack(cols)


def test_k1_center_is_column_mean():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((3, 40))
    centers = kmeans(D, 1, np.random.default_rng(1), restarts=2)
    assert centers.shape == (3, 1)
    assert np.allclose(centers[:, 0], D.mean(axis=1), atol=1e-10)


def test_recovers_separated_blobs():
    rng = np.random.default_rng(2)
    D = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], per=30)
    centers = kmeans(D, 2, np.random.default_rng(3))
    got = np.sort(centers[0])
    assert abs(got[0] + 5.0) < 0.2
    assert abs(got[1] - 5.0) < 0.2


def test_deterministic_given_rng_seed():
    rng = np.random.default_rng(4)
    D = rng.standard_normal((2, 50))
    a = kmeans(D, 3, np.random.default_rng(5))
    b = kmeans(D, 3, np.random.default_rng(5))
    assert (a == b).all()


def test_assign_to_columns():
    # one nearest data column per center
    D = np.array([[0.0, 1.0, 10.0], [0.0, 0.0, 0.0]])
    centers = np.array([[0.2, 9.0], [0.0, 0.0]])
    nearest = assign_to_columns(centers, D)
    assert list(nearest) == [0, 2]


def test_balanced_centers_check_both_sides():
    rng = np.random.default_rng(6)
    D = blobs(rng, [(-4.0, 0.0), (4.0, 0.0)], per=20)
    labels = ClusterLabels(np.repeat([0, 1], 20), 2)
    good = np.array([[-4.0, 4.0], [0.0, 0.0]])
    bad = np.array([[-4.5, -3.5], [0.0, 0.0]])
    assert balanced_centers_check(good, D, labels)
    assert not balanced_centers_check(bad, D, labels)


def test_restarts_pick_lower_inertia():
    # with enough restarts the two-blob optimum is found even though
    # some single inits collapse both centers into one blob
    rng = np.random.default_rng(7)
    D = blobs(rng, [(-6.0, 0.0), (6.0, 0.0)], per=25)
    centers = kmeans(D, 2, np.random.default_rng(8), restarts=10)
    spread = abs(centers[0, 0] - centers[0, 1])
    assert spread > 10.0


def test_restarts_below_one_rejected():
    D = np.random.default_rng(0).standard_normal((2, 10))
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        kmeans(D, 2, np.random.default_rng(1), restarts=0)


# ---------------------------------------------------------------------------
# the restart-by-restart k-means that lockstep Lloyd must reproduce bit for bit


def oracle_nearest(a, b):
    bb = np.einsum("ij,ij->i", b, b)
    scores = bb - 2.0 * (a @ b.T)
    radius = np.sqrt(np.einsum("ij,ij->i", a, a)) + np.sqrt(bb.max())
    tol = 4.0 * (a.shape[1] + 3) * np.finfo(np.float64).eps * radius**2
    rows, cols = np.nonzero(scores <= (scores.min(axis=1) + tol)[:, None])
    if rows.size == a.shape[0]:
        return cols
    diff = a[rows] - b[cols]
    return _kernels.lowest_best(rows, cols, np.einsum("ij,ij->i", diff, diff))


def oracle_lloyd(points, centers, max_iters):
    n = points.shape[0]
    k = centers.shape[0]
    centers = centers.copy()
    labels = np.full(n, -1, dtype=np.int64)
    it = 0
    for it in range(1, max_iters + 1):
        new_labels = oracle_nearest(points, centers)
        for c in range(k):
            mask = new_labels == c
            if np.any(mask):
                centers[c] = points[mask].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    labels = oracle_nearest(points, centers)
    resid = points - centers[labels]
    inertia = float(np.einsum("ij,ij->i", resid, resid).sum())
    return centers, labels, inertia, it


def oracle_kmeans(D, k, rng, max_iters=100, restarts=10):
    points = np.ascontiguousarray(D.T)
    best_centers = None
    best_inertia = np.inf
    for _ in range(restarts):
        init = points[rng.permutation(D.shape[1])[:k]].copy()
        centers, _, inertia, _ = oracle_lloyd(points, init, max_iters)
        if inertia < best_inertia:
            best_inertia = inertia
            best_centers = centers
    return best_centers.T.copy()


def assert_matches_oracle(D, k, seed, max_iters, restarts):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = kmeans(D, k, got_rng, max_iters=max_iters, restarts=restarts)
    want = oracle_kmeans(D, k, want_rng, max_iters=max_iters, restarts=restarts)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def generated_case(rng):
    d = int(rng.integers(1, 7))
    n2 = int(rng.integers(1, 31))
    kind = rng.integers(5)
    if kind == 0:  # small integers: exact ties everywhere
        D = rng.integers(-2, 3, size=(d, n2)).astype(np.float64)
    elif kind == 1:  # column scales 1e-8 to 1e8
        D = rng.standard_normal((d, n2)) * 10.0 ** rng.integers(-8, 9, size=n2)
    elif kind == 2:  # a few points with many exact copies
        base = rng.standard_normal((d, int(rng.integers(1, 4))))
        D = base[:, rng.integers(base.shape[1], size=n2)]
    else:
        D = rng.standard_normal((d, n2))
    # duplicate columns, and zero and -0.0 entries
    D[:, rng.integers(n2, size=n2 // 3)] = D[:, rng.integers(n2, size=n2 // 3)]
    D[rng.random(D.shape) < 0.1] = 0.0
    D[rng.random(D.shape) < 0.1] = -0.0
    k = int(rng.choice([1, n2, rng.integers(1, n2 + 1)]))
    max_iters = int(rng.choice([1, 2, 3, 100]))
    return D, k, max_iters, int(rng.integers(1, 9))


@pytest.mark.parametrize("max_iters", [1, 2, 3, 100])
@pytest.mark.parametrize("shape,k", [((100, 475), 4), ((100, 20), 4), ((3, 40), 1),
                                     ((2, 12), 12), ((5, 60), 7)])
def test_kmeans_matches_restart_by_restart_oracle_seeded(shape, k, max_iters):
    rng = np.random.default_rng(shape[1] + k)
    D = blobs(rng, rng.standard_normal((k, shape[0])) * 3.0, per=shape[1] // k + 1)
    D = D[:, rng.permutation(D.shape[1])[: shape[1]]]
    for seed in range(3):
        assert_matches_oracle(D, k, seed, max_iters, restarts=seed + 4)


def test_kmeans_matches_restart_by_restart_oracle_generated():
    rng = np.random.default_rng(20)
    for case in range(1200):
        D, k, max_iters, restarts = generated_case(rng)
        assert_matches_oracle(D, k, case, max_iters, restarts)


def test_lloyd_stack_equals_each_run_alone():
    # per run: centers, labels and inertia; the summed iterations are the
    # int a benchmark tracer reads as result[3]
    rng = np.random.default_rng(13)
    for _ in range(300):
        D, k, max_iters, runs = generated_case(rng)
        points = np.ascontiguousarray(D.T)
        inits = np.stack([points[rng.permutation(D.shape[1])[:k]]
                          for _ in range(runs)])
        centers, labels, inertia, iters = _kernels.lloyd(points, inits, max_iters)
        alone = [oracle_lloyd(points, init, max_iters) for init in inits]
        assert centers.tobytes() == np.stack([a[0] for a in alone]).tobytes()
        assert labels.tolist() == [a[1].tolist() for a in alone]
        assert inertia.tolist() == [a[2] for a in alone]
        assert type(iters) is int and iters == sum(a[3] for a in alone)


@pytest.mark.parametrize("budget", [1, 8 * 3 * 60 * 2, 8 * 3 * 60 * 5])
def test_restart_group_size_does_not_change_results(monkeypatch, budget):
    # groups of 1, 2 and 5 restarts (3 centers, 60 columns) against all 7 at once
    rng = np.random.default_rng(9)
    D = blobs(rng, rng.standard_normal((3, 4)) * 2.0, per=20)
    want_rng, got_rng = np.random.default_rng(10), np.random.default_rng(10)
    want = kmeans(D, 3, want_rng, restarts=7)
    monkeypatch.setattr(_parallel, "TILE_BYTES", budget)
    got = kmeans(D, 3, got_rng, restarts=7)
    assert got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_lockstep_memory_is_bounded_by_groups(traced_peak):
    D = np.random.default_rng(11).standard_normal((100, 2000))
    _, peak = traced_peak(
        kmeans, D, 8, np.random.default_rng(12), max_iters=2, restarts=200)
    assert peak < D.nbytes + 2 * _parallel.TILE_BYTES
