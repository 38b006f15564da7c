"""Column-sampling methods.

The spatial samplers pick, for each random direction on the unit
sphere, the unit-norm data column with the largest absolute inner
product along that direction.  That product is summed in float64 in a
fixed order, so a pick depends on the data and the directions alone; a
fast screen of |Phi . X| decides which columns need the exact sum.
Baselines cover uniform index sampling, norm-proportional sampling,
leverage-score sampling, and adaptive residual (volume) sampling.

All samplers are pure given an explicit ``numpy.random.Generator``.
Callers running parallel trials should derive one generator per trial
as ``default_rng(master_seed + trial_index)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._kernels import exact_abs_dots, pick_argmax, pick_distinct_argmax
from .errors import (
    RankDeficientKError,
    ShapeError,
    TooManySamplesError,
    ZeroMatrixError,
)
from .matrix import (
    NORM_TOL,
    SketchResult,
    as_matrix,
    check_unit_columns,
    singular_value_rank,
)

# method name -> sampler run by sample_columns.  The lambdas look the
# sampler up by name at call time, so a rebinding of a module attribute
# (a test double, a tracer) is honoured.
_SAMPLERS = {
    "srs": lambda M, spec, rng: srs_without_replacement(M, spec.n, rng),
    "srs_repl": lambda M, spec, rng: srs_with_replacement(M, spec.n, rng),
    "ris": lambda M, spec, rng: ris(M, spec.n, False, rng),
    "ris_repl": lambda M, spec, rng: ris(M, spec.n, True, rng),
    "norm": lambda M, spec, rng: norm_sampling(
        M, spec.n, rng, squared=spec.norm_squared
    ),
    "leverage": lambda M, spec, rng: leverage_sampling(
        M, spec.n, rng, k=spec.leverage_k
    ),
    "volume": lambda M, spec, rng: volume_sampling(M, spec.n, rng),
}

METHODS = tuple(_SAMPLERS)

# row blocks of the |Phi . X| screen: with the float32 copy of X above
# the cut below, one block is the only large temporary of spatial
# selection and of the region-area estimate.  A block has N1 rows, as many
# bytes as the screen's copy of X, within the bounds below.  Each block's
# GEMM packs X once, and fewer than about 16 rows leave that unamortized
# (1 BLAS thread): at 8 x 200,000, 8-row blocks took 1.3 times as long as
# 16-row ones, and at 100 x 50,000, 1 MiB (5-row) blocks 2.7 times as long
# as 16 MiB ones.  The byte floor keeps per-block overhead small on small
# data.
_BLOCK_BYTES = 16 << 20
_MIN_BLOCK_BYTES = 1 << 20
_MIN_BLOCK_ROWS = 16
# ambient dimension N1 from which the screen GEMM runs in float32; at
# N1 = 2 and 20,000 columns a float32 screen left every row with
# near-tied candidates to settle, and took twice the float64 time
_FLOAT32_MIN_N1 = 4


@dataclass(frozen=True)
class SamplerSpec:
    """Which sampler to run and with what parameters."""

    method: str
    n: int
    seed: int | None = None
    leverage_k: int | None = None
    norm_squared: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}, expected one of {METHODS}"
            )
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def sample_gaussian_directions(n: int, N1: int, rng: np.random.Generator) -> np.ndarray:
    """n x N1 matrix of i.i.d. standard normal entries.

    Each row, once normalized, is a uniformly distributed point on the
    unit sphere in R^N1.
    """
    if n < 1 or N1 < 1:
        raise ValueError("n and N1 must be >= 1")
    return rng.standard_normal((n, N1))


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k: k rounding errors of unit u compound to at most this."""
    return k * u / (1.0 - k * u)


def abs_projection_blocks(X: np.ndarray, n: int, directions):
    """Yield ``(start, stop, phi, q, tol)`` over row blocks of the directions.

    ``directions(start, stop)`` returns rows start..stop-1 of the n-row
    direction matrix, so it may be drawn block by block.  ``phi`` is that
    block with each row scaled by a power of two (exactly), so that its
    largest entry lies in [1/2, 1).  ``q`` is the screen |phi @ X|,
    computed in float32 when X has at least ``_FLOAT32_MIN_N1`` rows and
    in float64 otherwise.  For unit columns x_j, every q[i, j] is within
    tol[i] / 2 of ``exact_abs_dots`` of phi_i and x_j, so the best exact
    score of row i lies within tol[i] of the row's largest screen value.
    A block has N1 rows, as many bytes as the screen's copy of X, but at
    least ``_MIN_BLOCK_ROWS`` rows and ``_MIN_BLOCK_BYTES``, and at most
    ``_BLOCK_BYTES`` (and at least one row); every block reuses one
    buffer: consume it before advancing.
    """
    n1, n2 = X.shape
    # a float32 sum of N1 products has a useful bound only while N1 u << 1
    dtype = np.float32 if _FLOAT32_MIN_N1 <= n1 < 1 << 20 else np.float64
    X = X.astype(dtype, copy=False)
    u64 = np.finfo(np.float64).eps / 2
    # Higham (Accuracy and Stability of Numerical Algorithms, 3.1): the
    # screen's two casts and its sum round by at most gamma_{N1+2}(u) and
    # the exact score's sum by gamma_{N1}(u64), each times
    # sum_k |phi_ik x_kj| <= ||phi_i|| (1 + NORM_TOL) for a unit column.
    # tol is twice that; its last factor covers the rounding of ||phi_i||
    # and of tol, and eta the underflow of casts and products.
    rel = (
        2 * (_gamma(n1 + 2, np.finfo(dtype).eps / 2) + _gamma(n1, u64))
        * (1 + NORM_TOL) * (1 + _gamma(n1 + 8, u64))
    )
    eta = 16 * n1 * float(np.finfo(dtype).tiny)
    row_bytes = X.itemsize * n2
    rows = max(n1, _MIN_BLOCK_ROWS, _MIN_BLOCK_BYTES // row_bytes)
    rows = max(1, min(rows, _BLOCK_BYTES // row_bytes))
    buf = np.empty((min(rows, n), n2), dtype)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        phi = directions(start, stop)
        phi = np.ldexp(phi, -np.frexp(np.abs(phi).max(axis=1))[1][:, None])
        q = np.matmul(phi.astype(dtype, copy=False), X, out=buf[: stop - start])
        tol = rel * np.sqrt(np.einsum("ij,ij->i", phi, phi)) + eta
        yield start, stop, phi, np.abs(q, out=q), tol


def srs_select_indices(
    X: np.ndarray, phi: np.ndarray, with_replacement: bool = False
) -> np.ndarray:
    """Deterministic spatial selection given an explicit direction matrix.

    Row i of ``phi`` selects the column maximizing |phi_i . x_j|; ties go
    to the lowest column index.  Without replacement, columns picked by
    earlier rows are excluded before taking the argmax.  The score is
    ``exact_abs_dots``, a fixed-order float64 sum, so the picks depend
    on (X, phi) alone, not on the BLAS, its threads or the block layout.
    It is evaluated only for the columns a fast |phi . X| screen cannot
    tell apart.  The screen is streamed in row blocks sized to the data
    (see ``abs_projection_blocks``), so one block, of at most
    ``_BLOCK_BYTES``, is held at a time, never the dense n x N2 matrix,
    plus a float32 copy of X when it has ``_FLOAT32_MIN_N1`` rows or more.
    """
    X = as_matrix(X)
    phi = as_matrix(phi)
    if phi.shape[1] != X.shape[0]:
        raise ShapeError(
            f"phi has {phi.shape[1]} columns, data has {X.shape[0]} rows"
        )
    check_unit_columns(X)
    n = phi.shape[0]
    if not with_replacement and n > X.shape[1]:
        raise TooManySamplesError(
            f"requested {n} distinct columns from {X.shape[1]}"
        )
    out = np.empty(n, dtype=np.int64)
    taken = np.zeros(X.shape[1], dtype=bool)
    blocks = abs_projection_blocks(X, n, lambda a, b: phi[a:b])
    for start, stop, phi_b, q, tol in blocks:
        score = partial(exact_abs_dots, phi_b, X)
        if with_replacement:
            out[start:stop] = pick_argmax(q, tol, score)
        else:
            out[start:stop] = pick_distinct_argmax(q, taken, tol, score)
    return out


def _sketch(M, idx, method, with_replacement):
    return SketchResult(
        indices=idx,
        columns=M[:, idx],
        method=method,
        with_replacement=with_replacement,
    )


def srs_without_replacement(
    X: np.ndarray, n: int, rng: np.random.Generator
) -> SketchResult:
    """Spatial sampling of n distinct columns of unit-norm ``X``."""
    X = as_matrix(X)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > X.shape[1]:
        raise TooManySamplesError(
            f"requested {n} distinct columns from {X.shape[1]}"
        )
    phi = sample_gaussian_directions(n, X.shape[0], rng)
    idx = srs_select_indices(X, phi, with_replacement=False)
    return _sketch(X, idx, "srs", False)


def srs_with_replacement(
    X: np.ndarray, n: int, rng: np.random.Generator
) -> SketchResult:
    """Spatial sampling of n columns, one independent draw per direction."""
    X = as_matrix(X)
    if n < 1:
        raise ValueError("n must be >= 1")
    phi = sample_gaussian_directions(n, X.shape[0], rng)
    idx = srs_select_indices(X, phi, with_replacement=True)
    return _sketch(X, idx, "srs_repl", True)


def ris(
    D: np.ndarray, n: int, with_replacement: bool, rng: np.random.Generator
) -> SketchResult:
    """Uniform sampling over the column index set."""
    D = as_matrix(D)
    n2 = D.shape[1]
    if n < 1:
        raise ValueError("n must be >= 1")
    if with_replacement:
        idx = rng.integers(0, n2, size=n)
        return _sketch(D, idx, "ris_repl", True)
    if n > n2:
        raise TooManySamplesError(f"requested {n} distinct columns from {n2}")
    idx = rng.permutation(n2)[:n]
    return _sketch(D, idx, "ris", False)


def norm_sampling(
    D: np.ndarray,
    n: int,
    rng: np.random.Generator,
    squared: bool = True,
) -> SketchResult:
    """i.i.d. draws proportional to column norms.

    With ``squared`` (the usual convention) column j is drawn with
    probability ||d_j||^2 / ||D||_F^2; otherwise plain norms are used.
    """
    D = as_matrix(D)
    if n < 1:
        raise ValueError("n must be >= 1")
    w = np.einsum("ij,ij->j", D, D)
    if not squared:
        w = np.sqrt(w)
    total = w.sum()
    if total == 0.0:
        raise ZeroMatrixError("all columns have zero norm")
    idx = rng.choice(D.shape[1], size=n, p=w / total)
    return _sketch(D, idx, "norm", True)


def leverage_sampling(
    D: np.ndarray,
    n: int,
    rng: np.random.Generator,
    k: int | None = None,
) -> SketchResult:
    """i.i.d. draws from leverage scores of the top-k right singular vectors."""
    D = as_matrix(D)
    if n < 1:
        raise ValueError("n must be >= 1")
    p = leverage_probabilities(D, k)
    idx = rng.choice(D.shape[1], size=n, p=p)
    return _sketch(D, idx, "leverage", True)


def leverage_probabilities(D: np.ndarray, k: int | None = None) -> np.ndarray:
    """Sampling distribution p_j = ||row j of V_k||^2 / k.

    ``k`` defaults to the numerical rank; values above it raise
    RankDeficientKError because trailing singular vectors of a rank
    deficient matrix are numerical noise.
    """
    D = as_matrix(D)
    _, sv, vt = np.linalg.svd(D, full_matrices=False)
    rank = singular_value_rank(sv)
    if k is None:
        k = min(rank, D.shape[0])
    if k < 1 or k > rank:
        raise RankDeficientKError(
            f"k={k} outside 1..numerical_rank={rank}"
        )
    p = np.einsum("ij,ij->j", vt[:k], vt[:k]) / k
    return p / p.sum()


def volume_sampling(
    D: np.ndarray, n: int, rng: np.random.Generator
) -> SketchResult:
    """Adaptive residual sampling, restarted in passes.

    Within a pass, column j is drawn with probability proportional to
    the squared norm of its residual after projecting out the columns
    already sampled in that pass.  When every remaining residual norm
    drops below 1e-10 * ||D||_F the pass is exhausted: sampled columns
    stay removed and a fresh pass starts on the remaining ones, until n
    total columns are collected.
    """
    D = as_matrix(D)
    N1, n2 = D.shape
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > n2:
        raise TooManySamplesError(f"requested {n} distinct columns from {n2}")
    tol_sq = (1e-10 * np.linalg.norm(D)) ** 2
    uniforms = rng.random(n)
    active = np.ones(n2, dtype=bool)
    chosen = np.empty(n, dtype=np.int64)
    R = np.empty_like(D)
    # a pass adds orthonormal vectors of R^N1; after N1 of them every
    # residual is at rounding level, far below tol_sq, and the pass ends
    basis = np.empty((N1, N1))
    t = 0
    while t < n:
        np.copyto(R, D)
        m = 0
        fresh = True
        while t < n:
            res_sq = np.einsum("ij,ij->j", R, R)
            res_sq[~active] = 0.0
            if res_sq.max(initial=0.0) <= tol_sq:
                if not fresh:
                    break  # pass exhausted, restart on remaining columns
                # remaining columns are numerically zero: fall back to a
                # uniform draw so the requested count is still reached
                act = np.flatnonzero(active)
                j = int(act[min(int(uniforms[t] * act.size), act.size - 1)])
            else:
                pos = np.flatnonzero(res_sq > 0.0)
                cum = np.cumsum(res_sq[pos])
                slot = np.searchsorted(cum, uniforms[t] * cum[-1], side="right")
                j = int(pos[min(slot, pos.size - 1)])
                b = R[:, j].copy()
                if m:
                    b -= basis[:, :m] @ (basis[:, :m].T @ b)
                b /= np.linalg.norm(b)
                basis[:, m] = b
                m += 1
                R -= np.outer(b, b @ R)
            chosen[t] = j
            active[j] = False
            fresh = False
            t += 1
        # loop restarts with a new pass
    return _sketch(D, chosen, "volume", False)


def sample_columns(
    M: np.ndarray, spec: SamplerSpec, rng: np.random.Generator | None = None
) -> SketchResult:
    """Dispatch on ``spec.method``.

    ``M`` must already be column-normalized for the spatial methods;
    normalization is deliberately not applied here.  When ``rng`` is
    omitted it is derived from ``spec.seed``.
    """
    if rng is None:
        if spec.seed is None:
            raise ValueError("either rng or spec.seed is required")
        rng = np.random.default_rng(spec.seed)
    result = _SAMPLERS[spec.method](M, spec, rng)
    if spec.seed is not None:
        result = dataclasses.replace(result, seed=spec.seed)
    return result
