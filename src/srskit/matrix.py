"""Core data model: column matrices, cluster labels, sketches.

A data matrix is a plain 2-D float64 ndarray whose columns are the data
points (ambient dimension x point count).  Helper types wrap the pieces
that need bookkeeping beyond a bare array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptySketchError,
    NotNormalizedError,
    ShapeError,
    ZeroColumnError,
)

DEFAULT_RANK_TOL = 1e-8

NORM_TOL = 1e-6


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a validated 2-D float64 matrix.

    Raises ShapeError when the input is not two-dimensional, is empty,
    or contains non-finite entries.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"matrix must be at least 1x1, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ShapeError("matrix contains non-finite entries")
    return arr


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


def column_norms(X: np.ndarray) -> np.ndarray:
    """l2-norm of every column of ``X``."""
    return np.sqrt(np.einsum("ij,ij->j", X, X))


def normalize_columns(D: np.ndarray) -> np.ndarray:
    """Scale every column of ``D`` to unit l2-norm.

    Raises ZeroColumnError for the first column whose norm is exactly
    zero; near-zero but nonzero columns are normalized as usual.
    """
    D = as_matrix(D)
    norms = column_norms(D)
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


def numerical_rank(D: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rel_tol`` times the largest.

    Returns 0 for the all-zero matrix.  ``rel_tol`` must be positive.
    """
    if rel_tol <= 0:
        raise ValueError("rel_tol must be > 0")
    D = as_matrix(D)
    return singular_value_rank(np.linalg.svd(D, compute_uv=False), rel_tol)


def singular_value_rank(sv: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Rank from descending singular values: the count above ``rel_tol * sv[0]``.

    Returns 0 when there are none or the largest is zero.
    """
    if sv.size == 0 or sv[0] == 0.0:
        return 0
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
