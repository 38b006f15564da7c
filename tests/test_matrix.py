import numpy as np
import pytest

from srskit import (
    ClusterLabels,
    EmptySketchError,
    ShapeError,
    SketchResult,
    ZeroColumnError,
    approximation_error,
    as_matrix,
    column_norms_ok,
    normalize_columns,
    numerical_rank,
)


def test_as_matrix_basic():
    D = as_matrix([[1, 2], [3, 4]])
    assert D.dtype == np.float64
    assert D.shape == (2, 2)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        as_matrix(np.empty((0, 3)))
    with pytest.raises(ShapeError):
        as_matrix([[np.nan, 1.0]])
    with pytest.raises(ShapeError):
        as_matrix([[np.inf], [0.0]])


def test_cluster_labels_counts():
    labels = ClusterLabels(np.array([0, 1, 1, 2, 2, 2]), 3)
    assert list(labels.counts()) == [1, 2, 3]
    assert len(labels) == 6


def test_cluster_labels_range_checked():
    with pytest.raises(ShapeError):
        ClusterLabels(np.array([0, 3]), 3)
    with pytest.raises(ShapeError):
        ClusterLabels(np.array([-1, 0]), 2)


def test_sketch_result_distinct_unless_replacement():
    cols = np.eye(2)
    with pytest.raises(ShapeError):
        SketchResult(np.array([0, 0]), cols, "srs")
    r = SketchResult(np.array([0, 0]), cols, "srs_repl", with_replacement=True)
    assert r.indices[0] == r.indices[1]


def test_normalize_columns_unit_and_idempotent():
    rng = np.random.default_rng(0)
    D = rng.standard_normal((5, 8)) * 3.0
    X = normalize_columns(D)
    norms = np.linalg.norm(X, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert np.allclose(normalize_columns(X), X, atol=1e-12)
    assert column_norms_ok(X)
    assert not column_norms_ok(D)


def test_normalize_columns_zero_column():
    D = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroColumnError) as info:
        normalize_columns(D)
    assert info.value.column == 1


def test_numerical_rank_known_cases():
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((3, 3))) == 0
    # rank-2 outer-product construction
    u = np.arange(1.0, 6.0)[:, None]
    v = np.arange(2.0, 9.0)[None, :]
    D = u @ v + np.roll(u, 1) @ np.roll(v, 2)
    assert numerical_rank(D) == 2


def test_numerical_rank_transpose_invariant():
    rng = np.random.default_rng(1)
    for _ in range(5):
        D = rng.standard_normal((6, 9))
        D[:, 5:] = D[:, :4] @ rng.standard_normal((4, 4))
        assert numerical_rank(D) == numerical_rank(D.T)


def test_approximation_error_exact_span():
    rng = np.random.default_rng(2)
    D = rng.standard_normal((6, 10))
    assert approximation_error(D, D) < 1e-10
    # any basis of the column space annihilates D
    q, _ = np.linalg.qr(D)
    assert approximation_error(D, q) < 1e-10


def test_approximation_error_hand_value():
    D = np.eye(2)
    C = np.array([[1.0], [0.0]])
    err = approximation_error(D, C)
    assert abs(err - 1.0 / np.sqrt(2.0)) < 1e-12


def test_approximation_error_empty_sketch():
    D = np.eye(2)
    with pytest.raises(EmptySketchError):
        approximation_error(D, np.empty((2, 0)))


def test_approximation_error_shape_mismatch():
    with pytest.raises(ShapeError):
        approximation_error(np.eye(3), np.eye(2))


def test_approximation_error_nested_monotone():
    rng = np.random.default_rng(3)
    D = rng.standard_normal((8, 30))
    perm = rng.permutation(30)
    prev = 1.0 + 1e-10
    for size in (2, 5, 9, 14, 20):
        err = approximation_error(D, D[:, perm[:size]])
        assert err <= prev + 1e-10
        prev = err


@pytest.mark.parametrize("rel_tol", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_numerical_rank_needs_finite_positive_rel_tol(rel_tol):
    with pytest.raises(ValueError, match=r"^rel_tol must be finite and > 0$"):
        numerical_rank(np.eye(3), rel_tol=rel_tol)
