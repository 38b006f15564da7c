"""Core data model: column matrices, cluster labels, sketches.

A data matrix is a plain 2-D float64 ndarray whose columns are the data
points (ambient dimension x point count).  Helper types wrap the pieces
that need bookkeeping beyond a bare array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _parallel
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


def column_squares(X: np.ndarray) -> np.ndarray:
    """Sum of squares of every column of ``X``, in column spans across workers
    (``_parallel.map_spans``) of at least two columns, as numpy sums a
    one-column view of a tall X in another order; so a column's sum does
    not depend on its span.  In C order, X is summed row by row."""

    def span(a, b):  # a last span of one column is summed with the one before
        c = max(0, min(a, b - 2))
        return np.einsum("ij,ij->j", X[:, c:b], X[:, c:b])[a - c :]

    return np.concatenate(_parallel.map_spans(span, X, 2))


def pow2_scaled(A: np.ndarray, axis: int | None = None, by=None):
    """``(A * 2**by, by)``, exact where normal; by default ``by`` brings the
    largest |entry| of each column (``axis`` 0), row (1) or of ``A`` (None)
    into [1/2, 1).  ``pow2_scaled(B, by=-by)`` scales back."""
    if by is None:  # max and -min: no |A| temporary
        by = -np.frexp(np.maximum(A.max(axis, keepdims=True, initial=0.0),
                                  -A.min(axis, keepdims=True, initial=0.0)))[1]
    return np.ldexp(A, by), by


# A matrix (in_range) or column (column_norms) whose largest sum of squares
# lies here keeps its sums of squares, squared distances, their totals over
# 2^400 columns and rounding bounds to 2^-400 of them normal in float64
SQUARES_RANGE = (2.0**-512, 2.0**512)


def in_range(X: np.ndarray, squares: np.ndarray):
    """``(X, squares, 0)`` if X's largest column sum of squares lies in
    SQUARES_RANGE; else X scaled by ``pow2_scaled``, its sums and ``by``."""
    if SQUARES_RANGE[0] <= squares.max() <= SQUARES_RANGE[1]:
        return X, squares, 0
    X, by = pow2_scaled(X)
    return X, column_squares(X), by


def column_norms(X: np.ndarray, squares: np.ndarray | None = None) -> np.ndarray:
    """l2-norm of every column of ``X``, the roots of its sums of squares
    ``squares`` (by default ``column_squares(X)``); a sum outside
    SQUARES_RANGE is taken again from its column scaled by a power of two."""
    sq = column_squares(X) if squares is None else squares
    norms = np.sqrt(sq)
    lost = np.flatnonzero((sq < SQUARES_RANGE[0]) | (sq > SQUARES_RANGE[1]))
    step = max(1, _parallel.TILE_BYTES // max(1, 8 * X.shape[0]))
    for a in range(0, lost.size, step):  # a tile at a time, a lone column
        j = lost[a : a + step]  # twice: numpy sums one column alone in another order
        Y, by = pow2_scaled(X.take(np.resize(j, max(2, j.size)), axis=1), axis=0)
        norms[j] = pow2_scaled(np.sqrt(column_squares(Y)), by=-by[0])[0][: j.size]
    return norms


def _real_array(values) -> np.ndarray:
    """C-ordered float64 ``values``; ShapeError if complex, ragged or not numeric."""
    if np.dtype(getattr(values, "dtype", float)).kind == "c":  # a cast drops .imag
        raise ShapeError("expected a real matrix, got complex entries")
    try:
        return np.asarray(values, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"expected a real numeric matrix: {exc}") from None


def checked_with_squares(values) -> tuple[np.ndarray, np.ndarray]:
    """``as_matrix(values)`` and its column sums of squares: one pass.

    The matrix is C-ordered, a copy unless ``values`` is, so that the sums
    and every result taken from them depend on its values alone, not on
    its memory layout.  A finite sum proves its column finite, so the
    entries are checked one by one only when a sum is not: an entry is
    not, or its square overflows (which passes)."""
    arr = _real_array(values)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"matrix must be at least 1x1, got {arr.shape}")
    squares = column_squares(arr)
    if not (np.isfinite(squares).all() or np.isfinite(arr).all()):
        raise ShapeError("matrix contains non-finite entries")
    return arr, squares


def fits_array(rows: int, cols: int = 1) -> bool:
    """Whether a ``rows`` x ``cols`` array of 8-byte items is within numpy's
    size limit; past it, numpy raises a bare ValueError."""
    return 8 * rows * cols <= np.iinfo(np.intp).max


def as_matrix(values) -> np.ndarray:
    """Coerce ``values`` to a validated 2-D float64 matrix; ShapeError when
    it is not a real 2-D array, is empty or has a non-finite entry."""
    return checked_with_squares(values)[0]


@dataclass(frozen=True)
class ClusterLabels:
    """Per-column cluster assignment, values in 0..n_clusters-1."""

    values: np.ndarray
    n_clusters: int

    def __post_init__(self):
        vals = None
        try:  # real numbers or objects (not strings) whose int64 cast is exact
            raw = np.asarray(self.values)
            if raw.dtype.kind in "biufO":
                with np.errstate(invalid="ignore"):  # NaN casts to no equal int
                    vals = raw.astype(np.int64, copy=False)
        except (TypeError, ValueError, OverflowError):  # ragged, or "a" in objects
            pass
        if vals is None or vals.ndim != 1 or not (vals == raw).all():
            raise ShapeError("labels must be a 1-D integer vector")
        object.__setattr__(self, "values", vals)
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

    def counts(self, idx=slice(None)) -> np.ndarray:
        """Per-cluster count, length n_clusters, of the columns ``idx`` (a
        repeat counts again), by default of every column."""
        return np.bincount(self.values[idx], minlength=self.n_clusters)


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
        object.__setattr__(self, "columns", np.asarray(self.columns))
        if self.columns.shape[1:] != (idx.size,):
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

    Raises ZeroColumnError for the first column whose entries are all
    zero; near-zero but nonzero columns are normalized as usual.
    """
    D, norms = checked_with_squares(D)
    norms = column_norms(D, norms)  # one name: the sums go before D / norms
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroColumnError(int(zero[0]))
    out = D / norms
    sub = np.flatnonzero(norms < np.finfo(np.float64).tiny)  # norms that lost bits
    if sub.size:  # divided as their columns' scaled copies, a lone one twice
        Y = pow2_scaled(D.take(np.resize(sub, max(2, sub.size)), axis=1), axis=0)[0]
        out[:, sub] = (Y / column_norms(Y))[:, : sub.size]
    return out


def column_norms_ok(X: np.ndarray, tol: float = NORM_TOL) -> bool:
    """True when every column norm of the checked matrix ``X`` is within
    ``tol`` of 1; ShapeError when X is not a finite 2-D matrix."""
    return bool(np.all(np.abs(column_norms(*checked_with_squares(X)) - 1.0) <= tol))


def check_unit_columns(X: np.ndarray, squares: np.ndarray) -> np.ndarray:
    """Return ``X``; raise NotNormalizedError when a column norm, the plain
    root of its sum of squares in ``squares``, is off 1 by > NORM_TOL (a
    sum out of float64's range is far from 1)."""
    bad = np.flatnonzero(np.abs(np.sqrt(squares) - 1.0) > NORM_TOL)
    if bad.size:
        j = int(bad[0])
        norm = float(np.sqrt(squares[j]))  # repr: all its digits
        raise NotNormalizedError(f"column {j} has norm {norm!r}; "
                                 "call normalize_columns first")
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

    Computes ||D - U U^T D||_F / ||D||_F, U the left singular vectors of C
    above ``lstsq``'s cut (eps max(C.shape) times the largest); it holds
    U^T D and one array of D's shape.  Raises EmptySketchError when C has
    no columns, and ShapeError when D or C is not a finite 2-D matrix or on
    a row-count mismatch.
    """
    D = in_range(*checked_with_squares(D))[0]  # scale-free: rescaled out of range
    C = _real_array(C)
    if C.ndim == 2 and C.shape[1] == 0:
        raise EmptySketchError("sketch has no columns")
    C = in_range(*checked_with_squares(C))[0]  # the same span
    if C.shape[0] != D.shape[0]:
        raise ShapeError(
            f"sketch has {C.shape[0]} rows, data has {D.shape[0]}"
        )
    denom = np.linalg.norm(D)
    if denom == 0.0:
        return 0.0
    U, sv, _ = np.linalg.svd(C, full_matrices=False)
    U = U[:, : singular_value_rank(sv, np.finfo(np.float64).eps * max(C.shape))]
    resid = U @ (U.T @ D)
    return float(np.linalg.norm(np.subtract(D, resid, out=resid)) / denom)
