"""Structural properties of spatial selection.

The oracle below re-derives the selection rule as literally as
possible (python loops, no vectorization) so the production kernel is
checked against an independent implementation on many small instances.
"""

import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_kernels import oracle_pick_distinct_argmax

import srskit
from srskit import (
    ArcSpec,
    ArgumentError,
    ClusterLabels,
    InternalError,
    NotNormalizedError,
    ShapeError,
    TooManySamplesError,
    _parallel,
    estimate_region_areas,
    gen_arc_clusters,
    norm_sampling,
    normalize_columns,
    samplers,
    srs_select_indices,
    srs_with_replacement,
    srs_without_replacement,
    volume_sampling,
)
from srskit.matrix import column_norms


def naive_spatial_pick(X, phi, with_replacement=False):
    chosen = []
    for i in range(phi.shape[0]):
        best = -1.0
        arg = -1
        for j in range(X.shape[1]):
            if not with_replacement and j in chosen:
                continue
            score = abs(float(np.dot(phi[i], X[:, j])))
            if score > best:
                best = score
                arg = j
        chosen.append(arg)
    return chosen


def random_instance(rng):
    n1 = int(rng.integers(2, 7))
    n2 = int(rng.integers(1, 9))
    X = normalize_columns(rng.standard_normal((n1, n2)))
    n = int(rng.integers(1, n2 + 1))
    phi = rng.standard_normal((n, n1))
    return X, phi


def test_oracle_equivalence_100_instances():
    rng = np.random.default_rng(12345)
    for _ in range(100):
        X, phi = random_instance(rng)
        got = srs_select_indices(X, phi)
        want = naive_spatial_pick(X, phi)
        assert list(got) == want


def test_oracle_equivalence_with_replacement():
    rng = np.random.default_rng(54321)
    for _ in range(100):
        X, phi = random_instance(rng)
        got = srs_select_indices(X, phi, with_replacement=True)
        want = naive_spatial_pick(X, phi, with_replacement=True)
        assert list(got) == want


def test_sign_invariance():
    rng = np.random.default_rng(99)
    for _ in range(20):
        X, phi = random_instance(rng)
        a = srs_select_indices(X, phi)
        b = srs_select_indices(X, -phi)
        assert (a == b).all()


def test_span_invariance():
    # projecting the directions onto the span of the data changes nothing:
    # selections depend on phi' x only through x, which lies in that span
    rng = np.random.default_rng(7)
    for _ in range(20):
        n1, r, n2 = 8, 3, 12
        basis = np.linalg.qr(rng.standard_normal((n1, r)))[0]
        X = normalize_columns(basis @ rng.standard_normal((r, n2)))
        phi = rng.standard_normal((6, n1))
        projected = phi @ (basis @ basis.T)
        a = srs_select_indices(X, phi)
        b = srs_select_indices(X, projected)
        assert (a == b).all()


def test_column_scaling_of_data_is_irrelevant_after_normalization():
    # the sampler sees only normalized columns, so arbitrary positive
    # column scalings of the raw data cannot change the selection
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((5, 10))
    scales = rng.uniform(0.2, 9.0, size=10)
    phi = rng.standard_normal((4, 5))
    a = srs_select_indices(normalize_columns(raw), phi)
    b = srs_select_indices(normalize_columns(raw * scales), phi)
    assert (a == b).all()


# ---------------------------------------------------------------------------
# the tiled |phi . X| screen against the dense matrix

# (rows, columns) of a screen tile: 1-column tiles, 3-column tiles (the
# last one partial unless 3 divides N2), 17-row tiles of 5 columns (rows
# screened again then go several to a batch), row groups of 1 and 3
# spanning every column (None), and the default layout
LAYOUTS = [(1, 1), (3, 1), (1, 3), (3, 3), (17, 5), (1, None), (3, None), "default"]
DEFAULT_TILE_SHAPE = samplers._tile_shape


def tile_shape(layout):
    """A stand-in for ``samplers._tile_shape`` that returns ``layout``."""
    if layout == "default":
        return DEFAULT_TILE_SHAPE
    rows, cols = layout
    return lambda Xs, n: (rows, Xs.shape[1] if cols is None else min(cols, Xs.shape[1]))


def set_layout(monkeypatch, layout):
    monkeypatch.setattr(samplers, "_tile_shape", tile_shape(layout))


def dense_picks(X, phi, with_replacement):
    absq = np.abs(phi @ X)
    if with_replacement:
        return absq.argmax(axis=1)
    return oracle_pick_distinct_argmax(absq)


ROWS = 3


@pytest.mark.parametrize("with_replacement", [False, True])
@pytest.mark.parametrize("n", [1, 2, ROWS, ROWS + 1, 2 * ROWS + 1, 5 * ROWS + 2])
def test_blocked_selection_matches_dense(monkeypatch, n, with_replacement):
    rng = np.random.default_rng(n)
    n2 = 40
    X = normalize_columns(rng.standard_normal((5, n2)))
    phi = rng.standard_normal((n, 5))
    want = dense_picks(X, phi, with_replacement)
    for layout in LAYOUTS:
        set_layout(monkeypatch, layout)
        got = srs_select_indices(X, phi, with_replacement=with_replacement)
        assert (got == want).all(), layout


@pytest.mark.parametrize("layout", [(ROWS, None), (ROWS, 5)], ids=["rows", "tiles"])
@pytest.mark.parametrize("n1", [3, 40])  # a float64 and a float32 screen
@pytest.mark.parametrize("method", ["srs", "srs_repl"])
def test_draws_take_their_directions_a_row_group_at_a_time(
        monkeypatch, method, n1, layout):
    # a bound draw draws the directions of each row group of ROWS as that
    # group runs: the picks and the generator state are those of one
    # (n, N1) draw handed to srs_select_indices
    set_layout(monkeypatch, layout)
    X = normalize_columns(np.random.default_rng(n1).standard_normal((n1, 40)))
    n = 3 * ROWS + 2  # four row groups, the last partial
    draw = samplers.bind(X, srskit.SamplerSpec(method=method, n=n))
    rng = np.random.default_rng(7)
    ref = np.random.default_rng(7)
    for _ in range(3):
        got = draw(rng).indices
        phi = ref.standard_normal((n, n1))
        want = srs_select_indices(X, phi, with_replacement=method == "srs_repl")
        assert got.tolist() == want.tolist()
        assert rng.bit_generator.state == ref.bit_generator.state


def canonical_abs_scores(X, phi):
    """Dense |phi . X| by the exact rule: each row of phi scaled by a power
    of two to a largest entry in [1/2, 1), products summed left to right."""
    phi = np.ldexp(phi, -np.frexp(np.abs(phi).max(axis=1))[1][:, None])
    S = np.zeros((phi.shape[0], X.shape[1]))
    for k in range(X.shape[0]):
        S += phi[:, k : k + 1] * X[k]
    return np.abs(S)


def canonical_picks(X, phi, with_replacement):
    absq = canonical_abs_scores(X, phi)
    if with_replacement:
        return absq.argmax(axis=1)
    return oracle_pick_distinct_argmax(absq)


def with_duplicates(X, rng, k):
    """X with its last k columns overwritten by copies of earlier ones."""
    n2 = X.shape[1]
    src = rng.choice(n2 - k, size=k, replace=False)
    X = X.copy()
    X[:, n2 - k:] = X[:, src]
    return X, src


def screen_itemsize(n1):
    return 4 if n1 >= samplers._FLOAT32_MIN_N1 else 8


@pytest.mark.parametrize("with_replacement", [False, True])
@pytest.mark.parametrize("duplicates", [0, 7])
@pytest.mark.parametrize("n1", [3, 40])  # a float64 and a float32 screen
def test_picks_do_not_depend_on_block_budget(
    monkeypatch, n1, duplicates, with_replacement
):
    rng = np.random.default_rng(n1 + duplicates)
    n2 = 203
    X, _ = with_duplicates(
        normalize_columns(rng.standard_normal((n1, n2))), rng, duplicates)
    phi = rng.standard_normal((150, n1))
    want = canonical_picks(X, phi, with_replacement)
    for layout in LAYOUTS:
        set_layout(monkeypatch, layout)
        got = srs_select_indices(X, phi, with_replacement=with_replacement)
        assert (got == want).all(), layout


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n1, n2", [(33, 475), (100, 1001), (7, 45), (3, 45)])
def test_duplicate_edge_columns_lowest_copy_wins(n1, n2, seed):
    # the last N2 mod 8 columns of a GEMM are rounded by edge kernels, so
    # there a copy's product can come out an ulp above the original's
    rng = np.random.default_rng(seed)
    k = n2 % 8
    X, src = with_duplicates(
        normalize_columns(rng.standard_normal((n1, n2))), rng, k)
    copies = np.arange(n2 - k, n2)
    phi = rng.standard_normal((2000, n1))
    repl = srs_select_indices(X, phi, with_replacement=True)
    assert not np.isin(repl, copies).any()
    assert (repl == canonical_picks(X, phi, True)).all()
    # without replacement every column is picked, each original first
    order = srs_select_indices(X, phi[:n2])
    rank = np.empty(n2, dtype=np.int64)
    rank[order] = np.arange(n2)
    assert (rank[src] < rank[copies]).all()
    assert (order == canonical_picks(X, phi[:n2], False)).all()
    # copies in another cluster than their original: a tie goes to the
    # lower cluster id, whichever copy holds it
    values = rng.integers(0, 3, size=n2)
    values[copies] = (values[src] + rng.integers(1, 3, size=k)) % 3
    labels = ClusterLabels(values, 3)
    got = estimate_region_areas(X, labels, 2000, np.random.default_rng(seed))
    S = canonical_abs_scores(
        X, np.random.default_rng(seed).standard_normal((2000, n1)))
    tied = S == S.max(axis=1, keepdims=True)
    winner = np.where(tied, values, 3).min(axis=1)
    assert (got == np.bincount(winner, minlength=3) / 2000).all()


def canonical_score(phi_row, x):
    """The exact score in plain floats: the row scaled by a power of two to
    a largest entry in [1/2, 1), products summed left to right."""
    e = math.frexp(max(abs(v) for v in phi_row))[1]
    total = 0.0
    for p, v in zip(phi_row, x):
        total += math.ldexp(p, -e) * v
    return abs(total)


def brute_force_picks(X, phi, with_replacement):
    columns = X.T.tolist()
    chosen = []
    for row in phi.tolist():
        scores = [canonical_score(row, x) for x in columns]
        free = [j for j in range(len(columns))
                if with_replacement or j not in chosen]
        chosen.append(max(free, key=lambda j: (scores[j], -j)))
    return chosen


@st.composite
def near_tie_instances(draw):
    # columns x and normalize(x + delta v) with delta below or near float32
    # resolution, exact copies, and direction rows of extreme scale
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n1 = draw(st.integers(2, 6))
    X = normalize_columns(rng.standard_normal((n1, draw(st.integers(1, 5)))))
    deltas = draw(st.lists(
        st.sampled_from([0.0, 1e-12, 1e-9, 3e-8, 1e-7]), min_size=1, max_size=6))
    near = [X[:, [rng.integers(X.shape[1])]] + d * rng.standard_normal((n1, 1))
            for d in deltas]
    X = np.hstack([X, normalize_columns(np.hstack(near))])
    X = X[:, rng.permutation(X.shape[1])]
    n = draw(st.integers(1, X.shape[1]))
    scales = draw(arrays(
        np.float64, n, elements=st.sampled_from([1.0, 1e-30, 1e30, 0.0])))
    return X, rng.standard_normal((n, n1)) * scales[:, None]


@pytest.mark.parametrize("cut", [1, 1 << 20])  # float32, float64 screen
@settings(deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(near_tie_instances(), st.booleans(), st.sampled_from(LAYOUTS))
def test_screen_finds_the_exact_winner(
    monkeypatch, cut, instance, with_replacement, layout
):
    monkeypatch.setattr(samplers, "_FLOAT32_MIN_N1", cut)
    set_layout(monkeypatch, layout)
    X, phi = instance
    got = srs_select_indices(X, phi, with_replacement=with_replacement)
    assert list(got) == brute_force_picks(X, phi, with_replacement)


@pytest.mark.parametrize("cut", [1, 1 << 20])
def test_screen_finds_the_exact_winner_seeded(monkeypatch, cut):
    # many rows per instance, near-ties at float32 resolution: a screen
    # bound a few times too small fails here within a few hundred cases
    monkeypatch.setattr(samplers, "_FLOAT32_MIN_N1", cut)
    for seed in range(300):
        set_layout(monkeypatch, LAYOUTS[seed % len(LAYOUTS)])
        rng = np.random.default_rng(seed)
        n1 = int(rng.integers(2, 7))
        X = normalize_columns(rng.standard_normal((n1, int(rng.integers(1, 6)))))
        near = X[:, rng.integers(X.shape[1], size=3)]
        near += [3e-8, 1e-7, 1e-9] * rng.standard_normal((n1, 3))
        X = np.hstack([X, normalize_columns(near)])
        phi = rng.standard_normal((X.shape[1], n1))
        for with_replacement in (False, True):
            got = srs_select_indices(X, phi, with_replacement=with_replacement)
            assert list(got) == brute_force_picks(X, phi, with_replacement)


def screen_tol(a):
    """``spatial_selector``'s ``tol`` of the scaled direction rows ``a``, in
    the screen's dtype: twice the bound on a screen entry's distance from
    its exact score, restated here."""
    n1, u64, kind = a.shape[1], np.finfo(np.float64).eps / 2, np.finfo(a.dtype)

    def gamma(k, u):
        return k * u / (1 - k * u)

    rel = (2 * (gamma(n1 + 2, kind.eps / 2) + gamma(n1, u64))
           * (1 + srskit.matrix.NORM_TOL) * (1 + gamma(n1 + 8, u64)))
    a = a.astype(np.float64)
    return rel * np.sqrt(np.einsum("ij,ij->i", a, a)) + 16 * n1 * float(kind.tiny)


ABS_PRODUCT = samplers._abs_product


def adversarial_screen(monkeypatch, X, phi, picks, signs=None):
    """Patch ``samplers._abs_product``: each screen entry becomes its exact
    score moved by half of ``tol``, down for its row's winner (``picks``)
    and up for every rival, or by random ``signs`` (a Generator), and is
    rounded to the screen's dtype, as a GEMM's output is.  X and phi must
    be float32-exact, so that the screen's rows and columns are theirs."""
    scaled = srskit.matrix.pow2_scaled(phi, 1)[0]  # the rows screened
    row = {r.tobytes(): i for i, r in enumerate(scaled)}

    def screen(a, b, q):
        q = ABS_PRODUCT(a, b, q)
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        r, c = np.indices(q.shape).reshape(2, -1)
        exact = srskit._kernels.exact_abs_dots(a64, b64, r, c).reshape(q.shape)
        if signs is None:  # b's first column in the screen's copy of X
            owner = b if b.base is None else b.base
            first = (b.ctypes.data - owner.ctypes.data) // b.itemsize
            won = np.array([picks[row[x.tobytes()]] for x in a64]) - first
            sign = np.where(np.arange(q.shape[1]) == won[:, None], -1.0, 1.0)
        else:
            sign = signs.choice([-1.0, 1.0], size=q.shape)
        q[...] = np.maximum(exact + sign * screen_tol(a)[:, None] / 2, 0.0)
        return q

    monkeypatch.setattr(samplers, "_abs_product", screen)


@settings(deadline=None, max_examples=150, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(near_tie_instances(), st.sampled_from(LAYOUTS), st.integers(1, 3))
def test_a_screen_off_by_half_its_tol_finds_the_exact_winner(
        monkeypatch, instance, layout, workers):
    # the screen's bound, met at its edge in the worst direction: a smaller
    # tol, or a candidate cut not stepped down after its rounding, fails.
    # N1 runs from 2 to 6, so both the float64 screen (below
    # _FLOAT32_MIN_N1) and the float32 one are met
    monkeypatch.setattr(_parallel, "TILE_BYTES", 1 << 6)
    monkeypatch.setattr(_parallel, "workers", lambda: workers)
    set_layout(monkeypatch, layout)
    X, phi = (np.asarray(m, np.float32).astype(np.float64) for m in instance)
    for with_replacement in (False, True):
        want = brute_force_picks(X, phi, with_replacement)
        for signs in (None, np.random.default_rng(len(want))):
            adversarial_screen(monkeypatch, X, phi, want, signs)
            got = srs_select_indices(X, phi, with_replacement=with_replacement)
            assert list(got) == want


def spoiled_matmul(monkeypatch, spoil):
    """Patch ``np.matmul`` so that ``spoil(out)`` follows each product."""
    real = np.matmul

    def matmul(a, b, out=None):
        out = real(a, b, out=out)
        spoil(out)
        return out

    monkeypatch.setattr(np, "matmul", matmul)


def split_screen_case(monkeypatch, layout, workers, seed):
    """Unit columns and directions whose screen is split over ``workers``."""
    monkeypatch.setattr(_parallel, "TILE_BYTES", 1 << 10)
    monkeypatch.setattr(_parallel, "workers", lambda: workers)
    set_layout(monkeypatch, layout)
    rng = np.random.default_rng(seed)
    return (normalize_columns(rng.standard_normal((5, 400))),
            rng.standard_normal((2 * ROWS, 5)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("layout", [(ROWS, None), (ROWS, 5)], ids=["rows", "tiles"])
def test_a_non_finite_screen_is_an_internal_error(monkeypatch, layout, workers):
    # a GEMM that yields NaN from finite inputs is a bug, not bad input: the
    # values are checked, on whichever worker reduces them
    X, phi = split_screen_case(monkeypatch, layout, workers, 5)
    spoiled_matmul(monkeypatch, lambda out: out.__setitem__((-1, -1), np.nan))
    for with_replacement in (False, True):
        with pytest.raises(InternalError, match="non-finite"):
            srs_select_indices(X, phi, with_replacement=with_replacement)
    assert not issubclass(InternalError, srskit.SrskitError)


def raise_invalid_flag(out):
    np.multiply(np.inf, 0.0)  # sets the FPU's invalid flag; the result is dropped


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("layout", [(ROWS, None), (ROWS, 5)], ids=["rows", "tiles"])
def test_an_invalid_flag_of_the_screen_gemm_is_not_a_warning(
        monkeypatch, layout, workers):
    # the screen's values are checked, so numpy's invalid flag after its GEMM
    # (which a BLAS may raise on finite data) warns of nothing, on any worker
    X, phi = split_screen_case(monkeypatch, layout, workers, 6)
    want = [srs_select_indices(X, phi, with_replacement=r) for r in (False, True)]
    spoiled_matmul(monkeypatch, raise_invalid_flag)
    got = [srs_select_indices(X, phi, with_replacement=r) for r in (False, True)]
    assert [g.tolist() for g in got] == [w.tolist() for w in want]


# unit columns of a few exactly representable kinds (one +-1, or four
# +-1/2), so phi . X with small integer phi is exact in any summation
# order and the blocked and dense products agree bit for bit
UNIT_COLUMNS = np.array([
    [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1],
    [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5], [-0.5, -0.5, 0.5, 0.5],
]).T


@st.composite
def integer_grid_instances(draw):
    n2 = draw(st.integers(1, 16))
    cols = draw(arrays(np.int64, n2, elements=st.integers(0, 6)))
    n = draw(st.integers(1, n2))
    phi = draw(arrays(np.int64, (n, 4), elements=st.integers(-2, 2)))
    layout = draw(st.sampled_from(LAYOUTS))
    return UNIT_COLUMNS[:, cols], phi.astype(np.float64), layout


@settings(deadline=None, max_examples=60)
@given(integer_grid_instances(), st.booleans())
def test_blocked_selection_matches_dense_on_ties(instance, with_replacement):
    X, phi, layout = instance
    old = samplers._tile_shape
    samplers._tile_shape = tile_shape(layout)
    try:
        got = srs_select_indices(X, phi, with_replacement=with_replacement)
    finally:
        samplers._tile_shape = old
    assert (got == dense_picks(X, phi, with_replacement)).all()
    assert (got == np.array(naive_spatial_pick(X, phi, with_replacement))).all()


def selection_bytes(n1, n2, workers=1):
    """A bound on what selection holds at once: a tile per worker and a
    batch of whole screen rows screened again (it holds one or the other),
    the screen's copy of X when it is float32, and 1 MiB of small
    temporaries."""
    itemsize = screen_itemsize(n1)
    copy = 4 * n1 * n2 if itemsize == 4 else 0
    batch = samplers._MIN_FULL_ROWS * itemsize * n2
    return workers * _parallel.TILE_BYTES + batch + copy + (1 << 20)


def test_selection_memory_is_one_block(traced_peak):
    # the dense path held two n x N2 float64 arrays: 2 * 8 * n * N2 bytes,
    # and row blocks one of up to 16 MiB; the 1.28 MB float32 copy of X
    # fits in one tile, so selection runs on one thread
    rng = np.random.default_rng(0)
    n, n2 = 256, 40_000
    X = normalize_columns(rng.standard_normal((8, n2)))
    phi = rng.standard_normal((n, 8))
    _, peak = traced_peak(srs_select_indices, X, phi)
    assert peak < selection_bytes(8, n2) < 8 << 20


def test_float32_selection_memory_is_one_block_and_one_copy(monkeypatch, traced_peak):
    # above the cut the screen adds one float32 copy of X to the tiles, one
    # tile per worker
    rng = np.random.default_rng(0)
    n, n1, n2 = 256, 32, 40_000
    assert n1 >= samplers._FLOAT32_MIN_N1
    X = normalize_columns(rng.standard_normal((n1, n2)))
    phi = rng.standard_normal((n, n1))
    for workers in (1, 3):
        monkeypatch.setattr(_parallel, "workers", lambda: workers)
        _, peak = traced_peak(srs_select_indices, X, phi)
        assert peak < selection_bytes(n1, n2, workers) < (
            4 * n1 * n2 + (6 << 20) + (workers - 1) * _parallel.TILE_BYTES)


def _arc_pair():
    # the README arc pair: 2 x 5,050, 80 KB of data
    return gen_arc_clusters(ArcSpec(tau1=1.2, tau2=0.6, n1=5000, n2=50, seed=0))


@pytest.mark.parametrize("estimate", [
    lambda D, labels, rng: srs_with_replacement(D, 800, rng).indices,
    lambda D, labels, rng: estimate_region_areas(D, labels, 800, rng),
], ids=["srs_with_replacement", "estimate_region_areas"])
def test_small_data_gets_small_blocks(monkeypatch, estimate, traced_peak):
    # a fixed 16 MiB block was 200 times the data it screened; a tile is
    # 1 MiB here, 25 rows of every column
    D, labels = _arc_pair()
    got, peak = traced_peak(estimate, D, labels, np.random.default_rng(3))
    assert peak < 2 << 20
    # a budget that makes 16-column tiles of 512 rows, and one of 16 MiB
    for budget in [64 << 10, 32 << 20]:
        monkeypatch.setattr(_parallel, "TILE_BYTES", budget)
        assert (estimate(D, labels, np.random.default_rng(3)) == got).all()


# ---------------------------------------------------------------------------
# X is checked in one pass, its column norms; the errors and their order
# are those of an entry-by-entry check followed by a norm check

CALLERS = {
    "srs_select_indices":
        lambda X, n: srs_select_indices(X, np.ones((n, X.shape[0]))),
    "srs_without_replacement":
        lambda X, n: srs_without_replacement(X, n, np.random.default_rng(0)),
    "srs_with_replacement":
        lambda X, n: srs_with_replacement(X, n, np.random.default_rng(0)),
    "estimate_region_areas": lambda X, n: estimate_region_areas(
        X, ClusterLabels(np.zeros(X.shape[1], dtype=int), 1), n,
        np.random.default_rng(0)),
}


def unit_data():
    return normalize_columns(np.random.default_rng(0).standard_normal((3, 5)))


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_is_shape_error(caller, bad):
    X = unit_data()
    X[1, 2] = bad
    with pytest.raises(ShapeError, match="non-finite"):
        CALLERS[caller](X, 2)


@pytest.mark.parametrize("caller", CALLERS)
def test_entries_whose_squares_overflow_are_not_normalized(caller):
    X = unit_data()
    X[:, 3] = [1e200, -1e200, 0.0]  # finite, but the norm overflows
    with pytest.raises(NotNormalizedError, match="column 3 has norm inf"):
        CALLERS[caller](X, 2)


@pytest.mark.parametrize("caller, entry, n, error", [
    ("srs_select_indices", np.nan, 6, ShapeError),
    ("srs_without_replacement", np.nan, 6, ShapeError),
    ("srs_select_indices", 1e200, 6, NotNormalizedError),
    ("srs_without_replacement", 1e200, 6, TooManySamplesError),
    ("srs_with_replacement", np.nan, 0, ShapeError),
    ("srs_with_replacement", 1e200, 0, ArgumentError),
    ("estimate_region_areas", np.nan, 0, ShapeError),
    ("estimate_region_areas", 1e200, 0, NotNormalizedError),
])
def test_bad_entry_and_bad_count_raise_in_order(caller, entry, n, error):
    # n = 6 exceeds the 5 columns; n = 0 is below 1
    X = unit_data()
    X[0, 4] = entry
    with pytest.raises(error) as info:
        CALLERS[caller](X, n)
    assert type(info.value) is error


# selection in a fresh interpreter; prints its worker count to stderr, and
# the picks without and with replacement, from the float32 screen and from
# a float64 one
THREADS_SCRIPT = """
import sys
import numpy as np
from srskit import _parallel, normalize_columns, samplers, srs_select_indices
rng = np.random.default_rng(5)
# 300 columns, each copied about 130 times: a GEMM rounds the copies of a
# row's winner apart, differently as its threads split the columns, and
# the exact score settles them
Y = normalize_columns(rng.standard_normal((32, 300)))
X = Y[:, rng.integers(0, 300, 40_000)]
phi = rng.standard_normal((200, 32))
print(_parallel.workers(), file=sys.stderr)
for cut in (samplers._FLOAT32_MIN_N1, 1 << 20):
    samplers._FLOAT32_MIN_N1 = cut
    Xs = X.astype(np.float32) if cut < 32 else X
    # tiles of 200 rows and part of the columns, above the gate of a split
    assert samplers._tile_shape(Xs, 200)[1] < X.shape[1]
    assert 4 * X.size > _parallel.TILE_BYTES
    for with_replacement in (False, True):
        print(list(srs_select_indices(X, phi, with_replacement)))
"""


def test_picks_do_not_depend_on_blas_threads():
    # 200 x 32 x 2,621 and 200 x 32 x 1,310 tiles, and 16-row batches:
    # OpenBLAS runs each GEMM on both threads when it may use two, and then
    # rounds the float64 screen differently (seen with OpenBLAS 0.3.31).
    # With one BLAS thread on two CPUs or more the screen is split across
    # threads instead; the picks must not change
    src = os.path.dirname(os.path.dirname(os.path.abspath(srskit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs, workers = [], []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run(
            [sys.executable, "-c", THREADS_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=300)
        outputs.append(run.stdout)
        workers.append(int(run.stderr))
    assert outputs[0] == outputs[1]
    assert outputs[0].count("[") == 4
    cpus = len(os.sched_getaffinity(0))
    assert workers == [cpus, max(1, cpus // 2)]


# ---------------------------------------------------------------------------
# the passes over X split into column spans, one per worker


@pytest.mark.parametrize("openblas, omp, workers", [
    (None, None, 1), ("1", None, 4), ("2", None, 2), ("abc", None, 1),
    (None, "2", 2), ("0", "1", 4), ("abc", "2", 2), ("3", "1", 1), ("8", None, 1),
])
def test_worker_count_is_cpus_over_blas_threads(monkeypatch, openblas, omp, workers):
    # on 4 CPUs: OpenBLAS runs on every CPU unless a variable says otherwise
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    assert _parallel.workers() == workers


def spans(monkeypatch, workers, n1, n2, cols):
    monkeypatch.setattr(_parallel, "workers", lambda: workers)
    return _parallel.map_spans(
        lambda a, b: (a, b, threading.get_ident()), np.zeros((n1, n2)), cols)


def test_spans_are_whole_tiles_one_per_worker(monkeypatch):
    monkeypatch.setattr(_parallel, "TILE_BYTES", 1 << 10)
    # 10 tiles of 7 columns, the last of 3: 3 spans of 3, 3 and 4 tiles
    got = spans(monkeypatch, 3, 4, 66, 7)
    assert [(a, b) for a, b, _ in got] == [(0, 21), (21, 42), (42, 66)]
    assert got[0][2] == threading.get_ident()
    assert got[1][2] != threading.get_ident() and got[2][2] != threading.get_ident()
    # no more spans than tiles
    assert [(a, b) for a, b, _ in spans(monkeypatch, 5, 100, 66, 30)] == [
        (0, 30), (30, 60), (60, 66)]
    # one worker, or data whose float32 copy fits in one tile: inline
    assert spans(monkeypatch, 1, 100, 66, 7) == [(0, 66, threading.get_ident())]
    assert spans(monkeypatch, 3, 4, 64, 7) == [(0, 64, threading.get_ident())]


@pytest.mark.parametrize("raising", [(), (0,), (2,), (1, 2)],
                         ids=["none", "caller", "helper", "two-helpers"])
def test_map_spans_joins_its_threads_before_it_returns_or_raises(monkeypatch, raising):
    # the spans in ``raising`` raise at once, span 0 on the calling thread
    # and the others on helpers; any other span i ends after 0.03 i s, so
    # the helpers' spans end last.  The exception of the first span that
    # raises is raised again
    monkeypatch.setattr(_parallel, "TILE_BYTES", 1 << 10)
    monkeypatch.setattr(_parallel, "workers", lambda: 3)
    count, ran, done = threading.active_count(), [], []

    def fn(a, b):
        ran.append(threading.current_thread())
        if a // 21 in raising:
            raise RuntimeError(f"span {a // 21}")
        time.sleep(0.03 * (a // 21))
        done.append(a)
        return a

    if raising:
        with pytest.raises(RuntimeError, match=f"span {raising[0]}"):
            _parallel.map_spans(fn, np.zeros((4, 66)), 7)
    else:
        assert _parallel.map_spans(fn, np.zeros((4, 66)), 7) == [0, 21, 42]
    assert threading.active_count() == count
    assert len(ran) == 3 and len(done) == 3 - len(raising)
    assert not any(t.is_alive() for t in ran if t is not threading.current_thread())


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("workers", [2, 3])
def test_split_norms_are_the_serial_norms(monkeypatch, order, workers):
    monkeypatch.setattr(_parallel, "TILE_BYTES", 1 << 10)
    monkeypatch.setattr(_parallel, "workers", lambda: workers)
    rng = np.random.default_rng(workers)
    X = rng.standard_normal((37, 501)) * rng.uniform(1e-3, 1e3, size=501)
    X = np.asarray(X, order=order)
    D, squares = srskit.matrix.checked_with_squares(X)
    # a C-ordered X is not copied; any other is, once, into C order
    assert (D is X) == (order == "C")
    assert D.flags.c_contiguous and np.array_equal(D, X)
    assert np.array_equal(np.sqrt(squares), column_norms(D))


def layouts(rng, n1, n2):
    """One n1 x n2 matrix in four memory layouts: C order, the Fortran
    order numpy gives the fancy-indexed columns of a wider matrix, every
    other column of a wider C-ordered matrix and every other row of a
    taller Fortran-ordered one."""
    wide = rng.standard_normal((n1, 2 * n2)) * rng.uniform(1e-3, 1e3, 2 * n2)
    picked = wide[:, rng.permutation(2 * n2)[:n2]]
    assert picked.flags.f_contiguous and not picked.flags.c_contiguous
    strided = [np.zeros((n1, 2 * n2)), np.zeros((2 * n1, n2), order="F")]
    strided[0][:, ::2] = strided[1][::2] = picked
    return [np.ascontiguousarray(picked), picked, strided[0][:, ::2], strided[1][::2]]


def test_results_do_not_depend_on_memory_layout():
    # numpy sums a C-ordered matrix row by row and a column of any other
    # layout in an order of its own; the check makes every matrix C-ordered
    rng = np.random.default_rng(31)
    results = []
    for D in layouts(rng, 37, 3001):
        X = normalize_columns(D)
        sketches = [srs_without_replacement(X, 40, np.random.default_rng(1)),
                    srs_with_replacement(X, 40, np.random.default_rng(2))]
        results.append([
            srskit.matrix.checked_with_squares(D)[1], X,
            norm_sampling(D, 40, np.random.default_rng(3)).indices,
            volume_sampling(D, 40, np.random.default_rng(4)).indices,
            *(s.indices for s in sketches), *(s.columns for s in sketches)])
    for got in results[1:]:
        assert all(np.array_equal(g, w) for g, w in zip(got, results[0]))


@pytest.mark.parametrize("n1", [2, 1000, 200_000])
def test_column_sums_do_not_depend_on_worker_count(monkeypatch, n1):
    # numpy sums a one-column view of a tall matrix in another order than
    # a wider one, so no span is narrower than two columns
    monkeypatch.setattr(_parallel, "TILE_BYTES", 16)
    rng = np.random.default_rng(n1)
    for n2 in range(1, 10):
        X = rng.standard_normal((n1, n2))
        monkeypatch.setattr(_parallel, "workers", lambda: 1)
        want = srskit.matrix.column_squares(X)
        for workers in (2, 3, 4):
            monkeypatch.setattr(_parallel, "workers", lambda: workers)
            assert np.array_equal(srskit.matrix.column_squares(X), want)


@pytest.mark.parametrize("n1", [1000, 200_000])
def test_a_retaken_norm_does_not_depend_on_its_neighbours(n1):
    # numpy sums a one-column array in another order than a wider one, so
    # a norm retaken from a scaled copy (a sum out of range, a subnormal
    # norm) took other bits when no neighbour was retaken with it
    X = np.random.default_rng(n1).standard_normal((n1, 3))
    for scale in (2.0**600, 2.0**-600, 2.0**-1040):
        alone, paired = X * [scale, 1, 1], X * [scale, scale, 1]
        assert column_norms(alone)[0] == column_norms(paired)[0]
        assert np.array_equal(normalize_columns(alone)[:, 0],
                              normalize_columns(paired)[:, 0])


def copied_columns(n1, rng):
    """6,000 unit columns: 40 columns, each copied about 150 times."""
    Y = normalize_columns(rng.standard_normal((n1, 40)))
    return Y[:, rng.integers(0, 40, 6000)]


@pytest.mark.parametrize("copied", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_screen_reduction_does_not_depend_on_worker_count(
    monkeypatch, dtype, copied
):
    # the spans are merged by the rule that merges tiles, so the screen's
    # argmax (ties to the lowest index, also between spans), maximum and
    # runner-up are those of the whole screen, whatever the worker count
    monkeypatch.setattr(_parallel, "TILE_BYTES", 64 << 10)
    rng = np.random.default_rng(2)
    X = copied_columns(40, rng) if copied else normalize_columns(
        rng.standard_normal((40, 6000)))
    Xs = X.astype(dtype)
    phi = rng.standard_normal((300, 40)).astype(dtype)
    cols = 54
    assert 4 * Xs.size > _parallel.TILE_BYTES
    # the screen, by the same GEMMs as its tiles
    screen = np.hstack([np.abs(phi @ Xs[:, c : c + cols])
                        for c in range(0, Xs.shape[1], cols)])
    top2 = np.sort(screen, axis=1)[:, -2:]
    if copied:  # every row's maximum is tied
        assert (top2[:, 0] == top2[:, 1]).all()
    for workers in (1, 2, 3):
        monkeypatch.setattr(_parallel, "workers", lambda: workers)
        best, top, second = samplers._top_two(phi, Xs, cols)
        assert (best == screen.argmax(axis=1)).all()
        assert top.dtype == second.dtype == dtype
        assert (top == top2[:, 1]).all() and (second == top2[:, 0]).all()


@pytest.mark.parametrize("with_replacement", [False, True])
@pytest.mark.parametrize("n1", [3, 40])  # a float64 and a float32 screen
def test_picks_do_not_depend_on_worker_count(monkeypatch, n1, with_replacement):
    # 40 columns, each copied about 150 times over the 6,000: every row's
    # winner has copies in every span, and the lowest free copy must win.
    # 64 KiB tiles: 112 tiles of 54 columns in float32, 223 of 27 in float64
    monkeypatch.setattr(_parallel, "TILE_BYTES", 64 << 10)
    rng = np.random.default_rng(n1)
    X = copied_columns(n1, rng)
    phi = rng.standard_normal((300, n1))
    want = canonical_picks(X, phi, with_replacement)
    real, counts = _parallel.map_spans, []

    def counted(fn, X, cols):
        out = real(fn, X, cols)
        counts.append(len(out))
        return out

    monkeypatch.setattr(_parallel, "map_spans", counted)
    for workers in (1, 2, 3):
        monkeypatch.setattr(_parallel, "workers", lambda: workers)
        counts.clear()
        got = srs_select_indices(X, phi, with_replacement=with_replacement)
        assert (got == want).all(), workers
        assert max(counts) == workers


def test_a_forked_child_splits_on_threads_of_its_own(monkeypatch):
    # a child forked after a split inherits no thread of it; each of the
    # child's own splits must start and join threads of its own
    monkeypatch.setattr(_parallel, "TILE_BYTES", 64 << 10)
    monkeypatch.setattr(_parallel, "workers", lambda: 2)
    rng = np.random.default_rng(4)
    X = normalize_columns(rng.standard_normal((40, 3000)))
    phi = rng.standard_normal((100, 40))
    want = srs_select_indices(X, phi)
    with warnings.catch_warnings():
        # Python 3.12 warns of a fork in a process with threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child leaves at once, without pytest's teardown
        ok = False
        try:
            ok = bool((srs_select_indices(X, phi) == want).all())
        finally:
            os._exit(0 if ok else 1)
    for _ in range(600):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.1)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's selection did not finish in 60 s")
    assert os.waitstatus_to_exitcode(status) == 0
