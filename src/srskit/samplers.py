"""Column-sampling methods.

The spatial samplers pick, for each random direction on the unit
sphere, the unit-norm data column with the largest absolute inner
product along that direction.  That product is summed in float64 in a
fixed order, so a pick depends on the data and the directions alone; a
fast screen of |Phi . X|, computed and reduced in cache-sized tiles,
decides which columns need the exact sum.  The data is checked once, in
one pass over it, and bound once to the one selector, ``spatial_selector``,
which takes its directions a row group at a time.  Each direction picks
its column independently, so the large passes over X (its check, its
float32 copy, the screen and the rows screened again) are split across
workers with unchanged picks (see ``_parallel``).
Baselines cover uniform index sampling, norm-proportional sampling,
leverage-score sampling, and adaptive residual (volume) sampling.

Each sampler is a binder, which checks its matrix and does every step
that needs no random numbers, and the draw it returns, which consumes the
generator; ``bind`` runs the binder of a ``SamplerSpec``, so a trial loop
binds once and draws once per trial.

All samplers are pure given an explicit ``numpy.random.Generator``.
Callers running parallel trials should derive one generator per trial
as ``default_rng(master_seed + trial_index)``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from . import _kernels, _parallel, matrix
from ._kernels import exact_abs_dots, pick_argmax, pick_distinct_argmax, top_two
from .errors import (
    ArgumentError,
    RankDeficientKError,
    ShapeError,
    TooManySamplesError,
    ZeroMatrixError,
    check_count,
    check_seed,
)
from .matrix import (
    NORM_TOL,
    SketchResult,
    as_matrix,
    check_unit_columns,
    checked_with_squares,
    fits_array,
    singular_value_rank,
    spec_rng,
)

# method name -> binder run by bind: ``(M, spec) -> draw``, where
# ``draw(rng)`` is one sketch.  The lambdas look the binder up by name at
# call time, so a rebinding of a module attribute (a test double, a
# tracer) is honoured.
_SAMPLERS = {
    "srs": lambda M, spec: _bind_srs(M, spec.n, False),
    "srs_repl": lambda M, spec: _bind_srs(M, spec.n, True),
    "ris": lambda M, spec: _bind_ris(M, spec.n, False),
    "ris_repl": lambda M, spec: _bind_ris(M, spec.n, True),
    "norm": lambda M, spec: _bind_norm(M, spec.n, spec.norm_squared),
    "leverage": lambda M, spec: _bind_leverage(M, spec.n, spec.leverage_k),
    "volume": lambda M, spec: _bind_volume(M, spec.n),
}

METHODS = tuple(_SAMPLERS)

# tiles of the |Phi . X| screen, each computed into one reused buffer and
# reduced while it is still in cache: as many bytes as the screen's copy
# of X, within [_parallel.TILE_BYTES / 2, _parallel.TILE_BYTES]; the
# floor keeps the tile count, and the per-tile overhead, low on small
# data.  A tile spans every column when _MIN_FULL_ROWS rows fit: each GEMM
# packs X once, and fewer rows leave that unamortized (at 8 x 200,000,
# 8-row blocks took 1.3 times as long as 16-row ones, 1 BLAS thread).
# Otherwise it spans up to _MAX_TILE_ROWS rows and as many columns as fit.
_MIN_FULL_ROWS = 16
_MAX_TILE_ROWS = 512
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
            raise ArgumentError(
                f"unknown method {self.method!r}, expected one of {METHODS}"
            )
        check_count("n", self.n)
        if self.seed is not None:
            check_seed(self.seed)


def sample_gaussian_directions(n: int, N1: int, rng: np.random.Generator) -> np.ndarray:
    """n x N1 matrix of i.i.d. standard normal entries.

    Each row, once normalized, is a uniformly distributed point on the
    unit sphere in R^N1.
    """
    check_count("n and N1", min(n, N1))
    return rng.standard_normal((n, N1))


def _gamma(k: int, u: float) -> float:
    """Higham's gamma_k: k rounding errors of unit u compound to at most this."""
    return k * u / (1.0 - k * u)


def _tile_shape(Xs: np.ndarray, n: int) -> tuple[int, int]:
    """Rows and columns of a screen tile, for ``n`` directions and the
    screen's copy ``Xs`` of X (see ``_parallel.TILE_BYTES``)."""
    n2 = Xs.shape[1]
    tile = _parallel.TILE_BYTES
    budget = max(tile // 2, min(tile, Xs.nbytes)) // Xs.itemsize
    if budget // n2 >= _MIN_FULL_ROWS:
        return min(budget // n2, n), n2
    rows = min(_MAX_TILE_ROWS, n)
    return rows, max(1, min(n2, budget // rows))


def _abs_product(a: np.ndarray, b: np.ndarray, q: np.ndarray):
    """|a @ b|, computed in ``q``, or in its front if ``q`` is flat.

    ``q`` starts as zeros: a BLAS may scale the output it overwrites by 0
    (in a GEMV, say).  numpy reads the FPU's invalid flag after the GEMM,
    which a BLAS may set in work it throws away: the GEMM ignores it (here,
    as numpy's error state is per thread) and ``top_two`` checks the values.
    """
    if q.ndim == 1:
        q = q[: a.shape[0] * b.shape[1]].reshape(a.shape[0], b.shape[1])
    with np.errstate(invalid="ignore"):
        np.matmul(a, b, out=q)
    return np.abs(q, out=q)


def _lead(a, b):
    """``top_two`` of two column ranges, ``a`` before ``b``: ``b`` leads only
    where it is strictly larger, so ties go to the lowest index, however
    the columns are split."""
    (ka, ta, sa), (kb, tb, sb) = a, b
    up = tb > ta
    return (np.where(up, kb, ka), np.where(up, tb, ta),
            np.where(up, np.maximum(ta, sb), np.maximum(sa, tb)))


def _top_two(phi_c: np.ndarray, Xs: np.ndarray, cols: int):
    """``top_two`` of |phi_c @ Xs|, computed and reduced ``cols`` columns at
    a time, each tile while it is in cache, and a span of tiles per worker."""

    def tile(q, c):
        k, t, s = top_two(q)  # q is finite again before the next GEMM
        return k + c, t, s

    def span(a, b):
        # one tile buffer per worker, freed on return: before any row is
        # screened again or scored exactly
        buf = np.zeros(phi_c.shape[0] * cols, Xs.dtype)
        return reduce(_lead, (
            tile(_abs_product(phi_c, Xs[:, c : c + cols], buf), c)
            for c in range(a, b, cols)))

    return reduce(_lead, _parallel.map_spans(span, Xs, cols))


def _settle(best, need, taken, screen, batch, tol, score):
    """Picks of a row group whose screen was reduced tile by tile.

    ``best`` holds each row's screen argmax and ``need`` marks the rows
    that may hold a second candidate.  ``screen(rows)`` computes whole
    screen rows again, for at most ``batch`` rows at a time, and
    ``pick_argmax`` or ``pick_distinct_argmax`` settles them (with ``tol``
    and ``score`` of the group); every other row picks its ``best``.
    Without replacement (``taken`` given), a row whose ``best`` an earlier
    row took needs its screen row too; for an earlier row of the group
    that is only known once that row is settled.
    """
    if taken is None:
        rows = np.flatnonzero(need)
        for s in range(0, rows.size, batch):
            r = rows[s : s + batch]
            best[r] = pick_argmax(screen(r), tol[r], lambda i, c: score(r[i], c))
        return best
    first = np.zeros(best.size, dtype=bool)
    first[np.unique(best, return_index=True)[1]] = True
    need |= taken[best] | ~first
    held = np.empty(0, dtype=np.int64)  # rows whose screen rows are in q
    i = 0
    while i < best.size:
        # the rows before the next one in need pick their best, up to the
        # first whose best an earlier row of the group took
        j = i + int(np.argmax(np.append(need[i:], True)))
        hit = np.flatnonzero(taken[best[i:j]])
        if hit.size:
            j = i + int(hit[0])
            need[j] = True
        taken[best[i:j]] = True
        if j == best.size:
            break
        if not held.size or held[0] != j:
            held = j + np.flatnonzero(need[j:])[:batch]
            q = screen(held)
        # the run of consecutive held rows from j
        e = int(np.argmax(np.append(held != j + np.arange(held.size), True)))
        run = held[:e]
        best[run] = pick_distinct_argmax(
            q[:e], taken, tol[run], lambda r, c: score(run[r], c))
        held, q = held[e:], q[e:]
        i = j + e
    return best


def spatial_selector(X: np.ndarray, n: int, with_replacement: bool):
    """The selector of ``n`` directions on ``X``, checked: float64 unit
    columns, at least ``n`` of them without replacement.  The steps that
    need no random numbers run here, once: the screen's float32 copy of X,
    the tile shape, the rounding bounds, the re-screen batch.
    ``select(directions)`` yields the picks of each row group [a, b) in
    order, calling ``directions(a, b)`` (finite float64, X.shape[0]
    columns) only when that group runs."""
    n1, n2 = X.shape
    # a float32 sum of N1 products has a useful bound only while N1 u << 1;
    # in C order, as the GEMM of a few rows screened again packs an
    # F-ordered copy slowly (16 rows of 100 x 50,000: 2.7 times the time)
    Xs = np.empty((n1, n2), np.float32) if _FLOAT32_MIN_N1 <= n1 < 1 << 20 else X
    dtype = Xs.dtype
    rows, cols = _tile_shape(Xs, n)
    if Xs is not X:
        _parallel.map_spans(lambda a, b: np.copyto(Xs[:, a:b], X[:, a:b]), Xs, cols)
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
    # rows screened again go in batches of _MIN_FULL_ROWS, so that each GEMM
    # packs X for as many rows as a full-width tile does, but of at most
    # 8 tiles (and at least one row)
    batch = max(1, min(_MIN_FULL_ROWS, 8 * rows * cols // n2))

    def select(directions):
        buf = np.zeros(rows * n2, dtype) if cols == n2 else None
        taken = None if with_replacement else np.zeros(n2, dtype=bool)
        for start in range(0, n, rows):
            # each row scaled by a power of two (exactly), so that its largest
            # entry lies in [1/2, 1); a screen entry of a unit column is then
            # within tol[i] / 2 of its exact_abs_dots score, and the best score
            # of row i within tol[i] of the row's largest screen entry
            phi_b = matrix.pow2_scaled(directions(start, min(n, start + rows)), 1)[0]
            tol = rel * np.sqrt(np.einsum("ij,ij->i", phi_b, phi_b)) + eta
            score = partial(exact_abs_dots, phi_b, X)
            phi_c = phi_b.astype(dtype, copy=False)
            if cols == n2:  # one tile holds whole rows: settle from it
                q = _abs_product(phi_c, Xs, buf)
                if taken is None:
                    yield pick_argmax(q, tol, score)
                else:
                    yield pick_distinct_argmax(q, taken, tol, score)
                continue
            best, top, second = _top_two(phi_c, Xs, cols)
            cut = _kernels.candidate_cut(top, tol, dtype)

            def screen(r):
                # whole rows, each worker filling its span of them
                q = np.zeros((r.size, n2), dtype)
                _parallel.map_spans(lambda a, b: _abs_product(
                    phi_c[r], Xs[:, a:b], q[:, a:b]), Xs, cols)
                return q

            yield _settle(best, second >= cut, taken, screen, batch, tol, score)

    return select


def _picks(select, directions) -> np.ndarray:
    """Every pick of ``select(directions)`` in order: the selection of an
    srs draw or of ``srs_select_indices``: the function a layer tracer
    should wrap to time the ``samplers.project`` layer."""
    return np.concatenate(list(select(directions)))


def srs_select_indices(
    X: np.ndarray, phi: np.ndarray, with_replacement: bool = False
) -> np.ndarray:
    """Deterministic spatial selection given an explicit direction matrix.

    Row i of ``phi`` selects the column maximizing |phi_i . x_j|; ties go
    to the lowest column index.  Without replacement, columns picked by
    earlier rows are excluded before taking the argmax.  The score is
    ``exact_abs_dots``, a fixed-order float64 sum, so the picks depend
    on (X, phi) alone, not on the BLAS, its threads or the tile layout.
    It is evaluated only for the columns a fast |phi . X| screen cannot
    tell apart.  The screen is computed and reduced in tiles that stay in
    cache (see ``_tile_shape``).  Only rows that may hold a second
    candidate, or whose pick an earlier row took, are screened again,
    whole, in batches of at most ``_MIN_FULL_ROWS`` rows and 8 tiles (but
    at least one row).  Selection holds one tile of at most
    ``_parallel.TILE_BYTES`` per worker or one such batch at a time, never
    the dense n x N2 matrix, plus a float32 copy of X when it has
    ``_FLOAT32_MIN_N1`` rows or more.  X is checked in one pass over it.
    """
    X, squares = checked_with_squares(X)
    phi = as_matrix(phi)
    if phi.shape[1] != X.shape[0]:
        raise ShapeError(
            f"phi has {phi.shape[1]} columns, data has {X.shape[0]} rows"
        )
    check_unit_columns(X, squares)
    n = phi.shape[0]
    check_draws(n, X.shape[1], distinct=not with_replacement)
    return _picks(spatial_selector(X, n, with_replacement), lambda a, b: phi[a:b])


def _sketch(M, idx, method, with_repl):  # take: C order, so the check copies none
    return SketchResult(idx, M.take(idx, axis=1), method, with_replacement=with_repl)


def check_draws(n: int, n2: int, distinct: bool, name: str = "n") -> None:
    """Check ``n`` draws from ``n2`` columns, distinct or not: ``n`` (named
    ``name``), then the column count, then that an array holds the picks."""
    check_count(name, n)
    if distinct and n > n2:
        raise TooManySamplesError(f"requested {n} distinct columns from {n2}")
    if not fits_array(n):
        raise ArgumentError(f"n={n} is more draws than an array can hold")


def _checked(D: np.ndarray, n: int, distinct: bool):
    """``D`` and its column sums of squares, from one pass over it, its
    entries checked, then ``n`` draws from it (``check_draws``)."""
    D, squares = checked_with_squares(D)
    check_draws(n, D.shape[1], distinct)
    return D, squares


def _bind_srs(X: np.ndarray, n: int, with_replacement: bool):
    X = check_unit_columns(*_checked(X, n, distinct=not with_replacement))
    method = "srs_repl" if with_replacement else "srs"
    select = spatial_selector(X, n, with_replacement)

    def draw(rng):
        idx = _picks(select, lambda a, b: sample_gaussian_directions(
            b - a, X.shape[0], rng))
        return _sketch(X, idx, method, with_replacement)

    return draw


def _bind_ris(D: np.ndarray, n: int, with_replacement: bool):
    D, _ = _checked(D, n, not with_replacement)
    n2 = D.shape[1]
    if with_replacement:
        return lambda rng: _sketch(D, rng.integers(0, n2, size=n), "ris_repl", True)
    return lambda rng: _sketch(D, rng.permutation(n2)[:n], "ris", False)


def _bind_norm(D: np.ndarray, n: int, squared: bool):
    D, squares = _checked(D, n, distinct=False)
    S, squares, _ = matrix.in_range(D, squares)  # weights of D, in range
    w = squares if squared else matrix.column_norms(S, squares)
    total = w.sum()
    if total == 0.0:
        raise ZeroMatrixError("all columns have zero norm")
    p = w / total
    return lambda rng: _sketch(D, rng.choice(D.shape[1], size=n, p=p), "norm", True)


def _bind_leverage(D: np.ndarray, n: int, k: int | None):
    D, _ = _checked(D, n, distinct=False)
    p = leverage_probabilities(D, k)
    return lambda rng: _sketch(
        D, rng.choice(D.shape[1], size=n, p=p), "leverage", True)


def _orth(Q, V):
    # V less its projection on the orthonormal columns of Q, taken twice
    # (Giraud, Langou & Rozloznik 2005: "twice is enough")
    V = V - Q @ (Q.T @ V)
    V -= Q @ (Q.T @ V)
    return V


def _volume_residuals(D, Q, idx, cols):
    # exact squared residual norms of the columns idx, cols at a time
    out = np.empty(idx.size)
    for a in range(0, idx.size, cols):
        r = _orth(Q, D[:, idx[a : a + cols]])
        out[a : a + cols] = np.einsum("ij,ij->j", r, r)
    return out


def _bind_volume(D: np.ndarray, n: int):
    D, sq = _checked(D, n, distinct=True)
    S, sq, _ = matrix.in_range(D, sq)  # the draws read S, the sketch D
    N1, n2 = D.shape
    tol_sq = (1e-10 * np.linalg.norm(S)) ** 2
    norms = matrix.column_norms(S, sq)
    cols = max(1, _parallel.TILE_BYTES // (8 * N1))
    # an update rounds res_sq[j] by about u (res_sq[j] + |b . d_j| ||d_j||):
    # the GEMV, b's departure from orthogonality, and the subtraction
    u = 4.0 * N1 * np.finfo(np.float64).eps

    def draw(rng):
        uniforms = rng.random(n)
        active = np.ones(n2, dtype=bool)
        chosen = np.empty(n, dtype=np.int64)
        # a pass adds orthonormal vectors of R^N1; after N1 of them every
        # residual is at rounding level, far below tol_sq, and the pass ends
        basis = np.empty((N1, N1))
        t = 0
        while t < n:
            res_sq = np.where(active, sq, 0.0)
            err = np.zeros(n2)  # rounding bounds of res_sq since exact values
            m = 0
            while t < n:
                Q = basis[:, :m]
                # an active bound at 1e-6 of the largest estimate could sway
                # a draw or the exhaustion test: recompute those estimates
                redo = np.flatnonzero(active & (err > 1e-6 * res_sq.max()))
                if redo.size:
                    res_sq[redo] = _volume_residuals(S, Q, redo, cols)
                    err[redo] = 0.0
                if res_sq.max(initial=0.0) <= tol_sq:
                    if m:
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
                    b = _orth(Q, S[:, j])
                    b /= np.linalg.norm(b)
                    basis[:, m] = b
                    m += 1
                    # b is orthogonal to the earlier basis, so b . r_j = b . d_j
                    c = b @ S
                    err += u * (res_sq + np.abs(c) * norms)
                    res_sq -= np.multiply(c, c, out=c)
                    np.maximum(res_sq, 0.0, out=res_sq)
                chosen[t] = j
                active[j] = False
                res_sq[j] = 0.0
                t += 1
        return _sketch(D, chosen, "volume", False)

    return draw


def srs_without_replacement(
    X: np.ndarray, n: int, rng: np.random.Generator
) -> SketchResult:
    """Spatial sampling of n distinct columns of unit-norm ``X``."""
    return _bind_srs(X, n, False)(rng)


def srs_with_replacement(
    X: np.ndarray, n: int, rng: np.random.Generator
) -> SketchResult:
    """Spatial sampling of n columns, one independent draw per direction."""
    return _bind_srs(X, n, True)(rng)


def ris(
    D: np.ndarray, n: int, with_replacement: bool, rng: np.random.Generator
) -> SketchResult:
    """Uniform sampling over the column index set."""
    return _bind_ris(D, n, with_replacement)(rng)


def norm_sampling(D: np.ndarray, n: int, rng: np.random.Generator,
                  squared: bool = True) -> SketchResult:
    """i.i.d. draws proportional to column norms.

    With ``squared`` (the usual convention) column j is drawn with
    probability ||d_j||^2 / ||D||_F^2; otherwise plain norms are used.
    """
    return _bind_norm(D, n, squared)(rng)


def leverage_sampling(D: np.ndarray, n: int, rng: np.random.Generator,
                      k: int | None = None) -> SketchResult:
    """i.i.d. draws from leverage scores of the top-k right singular vectors."""
    return _bind_leverage(D, n, k)(rng)


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

    The squared residual norms are one vector, updated by one GEMV per
    draw (adaptive sampling, Deshpande, Rademacher, Vempala & Wang 2006):
    the new basis vector b is orthogonal to the earlier ones, so a
    residual loses (b . d_j)^2.  Each estimate carries a bound on the
    rounding of its updates; where an active bound reaches 1e-6 of the
    largest estimate, enough to sway a draw or the exhaustion test, the
    estimate is recomputed from D and the basis, a block at a time.
    Beyond D and the sketch, the sampler holds the N1 x N1 basis, a few
    vectors of length N2 and one such block.
    """
    return _bind_volume(D, n)(rng)


def sampler_input(D: np.ndarray, method: str) -> np.ndarray:
    """The matrix to sample ``method`` from: ``D`` column-normalized for
    the spatial methods, ``D`` itself for the others."""
    # through the module, so a rebinding of normalize_columns is honoured
    return matrix.normalize_columns(D) if method in ("srs", "srs_repl") else D


def bind(M: np.ndarray, spec: SamplerSpec):
    """The draw of ``spec`` on ``M``: ``bind(M, spec)(rng)`` is the sketch
    ``sample_columns(M, spec, rng)``.

    Every step that needs no random numbers runs here, once: the input
    check, the norm weights, the leverage SVD, the volume column norms.
    A trial loop binds once and draws once per trial.
    """
    draw = _SAMPLERS[spec.method](M, spec)
    if spec.seed is None:
        return draw
    return lambda rng: dataclasses.replace(draw(rng), seed=spec.seed)


def sample_columns(
    M: np.ndarray, spec: SamplerSpec, rng: np.random.Generator | None = None
) -> SketchResult:
    """Dispatch on ``spec.method``: ``bind(M, spec)(rng)``.

    ``M`` must already be column-normalized for the spatial methods (see
    ``sampler_input``); normalization is deliberately not applied here.
    When ``rng`` is omitted it is derived from ``spec.seed``, which the
    result carries when set.
    """
    rng = spec_rng(rng, spec)
    return bind(M, spec)(rng)
