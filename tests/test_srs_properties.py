"""Structural properties of spatial selection.

The oracle below re-derives the selection rule as literally as
possible (python loops, no vectorization) so the production kernel is
checked against an independent implementation on many small instances.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_kernels import oracle_pick_distinct_argmax

from srskit import (
    ClusterLabels,
    estimate_region_areas,
    normalize_columns,
    samplers,
    srs_select_indices,
)


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
# row-blocked |phi . X| against the dense matrix


def set_block_rows(monkeypatch, rows, n2):
    monkeypatch.setattr(samplers, "_BLOCK_BYTES", 8 * n2 * rows)


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
    set_block_rows(monkeypatch, ROWS, n2)
    got = srs_select_indices(X, phi, with_replacement=with_replacement)
    assert (got == dense_picks(X, phi, with_replacement)).all()


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
    default = samplers._BLOCK_BYTES
    # one row per block, three rows per block, and the default budget
    for budget in [1, 3 * screen_itemsize(n1) * n2, default]:
        monkeypatch.setattr(samplers, "_BLOCK_BYTES", budget)
        got = srs_select_indices(X, phi, with_replacement=with_replacement)
        assert (got == want).all()


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
@given(near_tie_instances(), st.booleans())
def test_screen_finds_the_exact_winner(monkeypatch, cut, instance, with_replacement):
    monkeypatch.setattr(samplers, "_FLOAT32_MIN_N1", cut)
    X, phi = instance
    got = srs_select_indices(X, phi, with_replacement=with_replacement)
    assert list(got) == brute_force_picks(X, phi, with_replacement)


@pytest.mark.parametrize("cut", [1, 1 << 20])
def test_screen_finds_the_exact_winner_seeded(monkeypatch, cut):
    # many rows per instance, near-ties at float32 resolution: a screen
    # bound a few times too small fails here within a few hundred cases
    monkeypatch.setattr(samplers, "_FLOAT32_MIN_N1", cut)
    for seed in range(300):
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
    rows = draw(st.integers(2, 4))
    return UNIT_COLUMNS[:, cols], phi.astype(np.float64), rows


@settings(deadline=None, max_examples=60)
@given(integer_grid_instances(), st.booleans())
def test_blocked_selection_matches_dense_on_ties(instance, with_replacement):
    X, phi, rows = instance
    old = samplers._BLOCK_BYTES
    samplers._BLOCK_BYTES = 8 * X.shape[1] * rows
    try:
        got = srs_select_indices(X, phi, with_replacement=with_replacement)
    finally:
        samplers._BLOCK_BYTES = old
    assert (got == dense_picks(X, phi, with_replacement)).all()
    assert (got == np.array(naive_spatial_pick(X, phi, with_replacement))).all()


def test_selection_memory_is_one_block():
    # the dense path held two n x N2 float64 arrays: 2 * 8 * n * N2 bytes
    rng = np.random.default_rng(0)
    n, n2 = 256, 40_000
    X = normalize_columns(rng.standard_normal((8, n2)))
    phi = rng.standard_normal((n, 8))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        srs_select_indices(X, phi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < samplers._BLOCK_BYTES + (2 << 20)


def test_float32_selection_memory_is_one_block_and_one_copy():
    # above the cut the screen adds one float32 copy of X to the block
    rng = np.random.default_rng(0)
    n, n1, n2 = 256, 32, 40_000
    assert n1 >= samplers._FLOAT32_MIN_N1
    X = normalize_columns(rng.standard_normal((n1, n2)))
    phi = rng.standard_normal((n, n1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        srs_select_indices(X, phi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < samplers._BLOCK_BYTES + 4 * n1 * n2 + (2 << 20)
