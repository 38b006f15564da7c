import numpy as np
import pytest

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
