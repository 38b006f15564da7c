"""Core data model: column matrices, cluster labels, sketches.

A data matrix is a plain 2-D float64 ndarray whose columns are the data
points (ambient dimension x point count).  Helper types wrap the pieces
that need bookkeeping beyond a bare array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    EmptySketchError,
    NotNormalizedError,
    ShapeError,
    ZeroColumnError,
    check_seed,
)

DEFAULT_RANK_TOL = 1e-8

NORM_TOL = 1e-6


def column_norms(X: np.ndarray) -> np.ndarray:
    """l2-norm of every column of ``X``."""
    squares = np.einsum("ij,ij->j", X, X)
    return np.sqrt(squares, out=squares)


def checked_with_norms(values, norms=column_norms) -> tuple[np.ndarray, np.ndarray]:
    """``as_matrix(values)`` and its column norms ``norms(arr)``: one pass.

    A finite sum of squares proves its column finite, so the entries are
    checked one by one only when a norm is not: an entry is not, or its
    square overflows (which passes)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"matrix must be at least 1x1, got {arr.shape}")
    col_norms = norms(arr)
    if not (np.isfinite(col_norms).all() or np.isfinite(arr).all()):
        raise ShapeError("matrix contains non-finite entries")
    return arr, col_norms


def fits_array(rows: int, cols: int = 1) -> bool:
    """Whether a ``rows`` x ``cols`` array of 8-byte items is within numpy's
    size limit; past it, numpy raises a bare ValueError."""
    return 8 * rows * cols <= np.iinfo(np.intp).max


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a validated 2-D float64 matrix; ShapeError when
    it is not 2-D, is empty or has a non-finite entry."""
    return checked_with_norms(values)[0]


@dataclass(frozen=True)
class ClusterLabels:
    """Per-column cluster assignment, values in 0..n_clusters-1."""

    values: np.ndarray
    n_clusters: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise ShapeError("labels must be a 1-D integer vector")
        if self.n_clusters < 1:
            raise ShapeError("n_clusters must be >= 1")
        if not fits_array(self.n_clusters):  # an int64 count each
            raise ShapeError(f"n_clusters={self.n_clusters} is too many to count")
        if vals.size and (vals.min() < 0 or vals.max() >= self.n_clusters):
            raise ShapeError(
                f"label values must lie in 0..{self.n_clusters - 1}"
            )

    def __len__(self):
        return self.values.size

    def counts(self) -> np.ndarray:
        """Population of each cluster, length n_clusters."""
        return np.bincount(self.values, minlength=self.n_clusters)


@dataclass(frozen=True)
class SketchResult:
    """Columns selected by a sampler, in selection order.

    ``indices`` are zero-based column indices into the source matrix and
    ``columns`` holds the corresponding columns of that matrix.  When
    ``with_replacement`` is False the indices are pairwise distinct.
    """

    indices: np.ndarray
    columns: np.ndarray
    method: str
    seed: int | None = None
    with_replacement: bool = False

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        object.__setattr__(self, "indices", idx)
        if self.columns.shape[1] != idx.size:
            raise ShapeError("columns count must equal number of indices")
        if not self.with_replacement and np.unique(idx).size != idx.size:
            raise ShapeError("indices must be distinct without replacement")

    @property
    def n(self) -> int:
        return self.indices.size


def spec_rng(rng: np.random.Generator | None, spec) -> np.random.Generator:
    """``rng``, else ``default_rng`` of the checked ``spec.seed``; one is required."""
    if rng is not None:
        return rng
    if spec.seed is None:
        raise ArgumentError("either rng or spec.seed is required")
    check_seed(spec.seed)
    return np.random.default_rng(spec.seed)


def normalize_columns(D: np.ndarray) -> np.ndarray:
    """Scale every column of ``D`` to unit l2-norm.

    Raises ZeroColumnError for the first column whose norm is exactly
    zero; near-zero but nonzero columns are normalized as usual.
    """
    D, norms = checked_with_norms(D)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroColumnError(int(zero[0]))
    return D / norms


def column_norms_ok(X: np.ndarray, tol: float = NORM_TOL) -> bool:
    """True when every column norm is within ``tol`` of 1."""
    return bool(np.all(np.abs(column_norms(X) - 1.0) <= tol))


def check_unit_columns(X: np.ndarray, norms: np.ndarray | None = None) -> np.ndarray:
    """Return ``X``; raise NotNormalizedError when a column norm is off 1
    by > NORM_TOL.

    ``norms`` are the column norms of ``X`` when the caller has them.
    """
    if norms is None:
        norms = column_norms(X)
    bad = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
    if bad.size:
        j = int(bad[0])
        raise NotNormalizedError(
            f"column {j} has norm {norms[j]:.6g}; call normalize_columns first"
        )
    return X


def check_rel_tol(rel_tol: float) -> None:
    """Raise ArgumentError unless ``rel_tol`` is finite and > 0 (NaN is not)."""
    if not 0.0 < rel_tol < np.inf:
        raise ArgumentError("rel_tol must be finite and > 0")


def numerical_rank(D: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rel_tol`` times the largest.

    Returns 0 for the all-zero matrix.  ``rel_tol`` must be finite, > 0.
    """
    check_rel_tol(rel_tol)
    D = as_matrix(D)
    return singular_value_rank(np.linalg.svd(D, compute_uv=False), rel_tol)


def singular_value_rank(sv: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank from descending singular values: the count above ``rel_tol * sv[0]``.

    Returns 0 when there are none or the largest is zero.
    """
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    with np.errstate(over="ignore"):  # no value is above an infinite cut
        return int(np.count_nonzero(sv > rel_tol * sv[0]))


def approximation_error(D: np.ndarray, C: np.ndarray) -> float:
    """Relative residual of projecting ``D`` onto the span of ``C``.

    Computes ||D - C pinv(C) D||_F / ||D||_F through a least-squares
    solve (no explicit pseudoinverse).  Raises EmptySketchError when C
    has no columns and ShapeError on a row-count mismatch.
    """
    D = as_matrix(D)
    if C.ndim != 2 or C.shape[1] == 0:
        raise EmptySketchError("sketch has no columns")
    C = as_matrix(C)
    if C.shape[0] != D.shape[0]:
        raise ShapeError(
            f"sketch has {C.shape[0]} rows, data has {D.shape[0]}"
        )
    denom = np.linalg.norm(D)
    if denom == 0.0:
        return 0.0
    # lstsq uses an SVD-based solve; rcond trims directions that are
    # numerically zero so duplicated columns do not blow up.
    coeffs, _, _, _ = np.linalg.lstsq(C, D, rcond=None)
    resid = D - C @ coeffs
    return float(np.linalg.norm(resid) / denom)
