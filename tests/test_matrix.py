import math

import numpy as np
import pytest

from srskit import (
    ClusterLabels,
    EmptySketchError,
    ShapeError,
    SketchResult,
    ZeroColumnError,
    _parallel,
    approximation_error,
    as_matrix,
    column_norms_ok,
    norm_sampling,
    normalize_columns,
    numerical_rank,
)
from srskit.matrix import column_norms


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


def test_a_ragged_or_non_numeric_matrix_is_a_shape_error():
    # numpy's conversion raised a bare ValueError before any check
    ragged = [[1.0], [1.0, 2.0]]
    for call in (lambda: as_matrix(ragged),
                 lambda: approximation_error(np.eye(2), ragged),
                 lambda: column_norms_ok("ab")):
        with pytest.raises(ShapeError, match="real numeric matrix"):
            call()


def test_a_complex_matrix_is_a_shape_error():
    # the cast to float64 dropped the imaginary parts, with a warning, and
    # left two zero columns: ZeroMatrixError
    with pytest.raises(ShapeError, match="complex"):
        norm_sampling(1j * np.eye(2), 1, np.random.default_rng(0))


def test_cluster_labels_reject_values_that_are_not_integers():
    # the int64 cast truncated 0.5 and 1.7 to 0 and 1, and "a" ended in a
    # bare ValueError
    for values in (np.array([0.5, 1.7]), ["a"], [np.nan, 0.0], [[0, 1]]):
        with pytest.raises(ShapeError, match="1-D integer vector"):
            ClusterLabels(values, 2)
    assert ClusterLabels([1.0, 0.0], 2).values.tolist() == [1, 0]


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


def test_sketch_result_takes_columns_as_a_list():
    r = SketchResult(np.array([0]), [[1.0]], "x")
    assert isinstance(r.columns, np.ndarray) and r.columns.shape == (1, 1)
    with pytest.raises(ShapeError):
        SketchResult(np.array([0]), [1.0], "x")


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("workers", [2, 3])
def test_column_norms_do_not_depend_on_the_split(monkeypatch, order, workers):
    monkeypatch.setattr(_parallel, "TILE_BYTES", 1 << 10)
    rng = np.random.default_rng(workers)
    X = rng.standard_normal((37, 501)) * rng.uniform(1e-3, 1e3, size=501)
    X = np.asarray(X, order=order)
    serial = np.sqrt(np.einsum("ij,ij->j", X, X))
    monkeypatch.setattr(_parallel, "workers", lambda: workers)
    assert np.array_equal(column_norms(X), serial)


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


def test_approximation_error_checks_the_sketch_first():
    # C is read only after the one check: a list is a matrix, and a 1-D or
    # 3-D C is not 2-D, not a sketch without columns
    D = np.eye(2)
    assert approximation_error(D, [[1.0], [0.0]]) == approximation_error(
        D, np.array([[1.0], [0.0]]))
    for C in (np.ones(2), np.ones((2, 1, 1))):
        with pytest.raises(ShapeError, match="2-D"):
            approximation_error(D, C)


def test_column_norms_ok_checks_its_matrix():
    assert column_norms_ok([[0.6], [0.8]])
    for X in (np.ones(3), [[np.nan], [1.0]], [[np.inf, 1.0]]):
        with pytest.raises(ShapeError):
            column_norms_ok(X)


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


# nonzero columns whose sums of squares leave float64's normal range:
# they overflow, round to 0, or are subnormal
OUT_OF_RANGE = {"overflow": [1e200, 1e200], "zero": [3e-170, 4e-170],
                "subnormal": [1.234e-160, 3.1e-161], "tiny": [5e-324, 0.0]}


@pytest.mark.parametrize("col", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_norms_out_of_range_are_taken_again(col):
    # the normal column beside them keeps the bits of its plain root
    D = np.array([[3.0, col[0]], [4.0, col[1]]])
    norms = column_norms(D)
    assert norms[0] == 5.0
    assert norms[1] == pytest.approx(math.hypot(*col), rel=4e-16)
    X = normalize_columns(D)
    assert np.array_equal(X[:, 0], [0.6, 0.8])
    assert column_norms_ok(X, tol=4e-16)


def test_a_column_is_zero_only_when_its_entries_are():
    D = np.array([[3e-170, 0.0, 1.0], [4e-170, 0.0, 0.0]])
    assert list(column_norms(D) > 0.0) == [True, False, True]
    with pytest.raises(ZeroColumnError) as info:
        normalize_columns(D)
    assert info.value.column == 1
    # no rows: every norm is 0
    assert np.array_equal(column_norms(np.empty((0, 3))), np.zeros(3))


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e160, 1e300])
def test_approximation_error_does_not_depend_on_the_scale(scale):
    # ||D||_F underflows to 0, or overflows (with a warning, which fails)
    D = np.array([[3.0, 1.0, 2.0], [1.0, 4.0, 1.0]])
    want = approximation_error(D, D[:, :1])
    assert want == 0.6174544517614234
    got = approximation_error(D * scale, D[:, :1] * scale)
    assert got == pytest.approx(want, rel=1e-14)
