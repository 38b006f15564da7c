"""Structural properties of spatial selection.

The oracle below re-derives the selection rule as literally as
possible (python loops, no vectorization) so the production kernel is
checked against an independent implementation on many small instances.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_kernels import oracle_pick_distinct_argmax

from srskit import normalize_columns, samplers, srs_select_indices


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


@pytest.mark.parametrize(
    "n, blocks",
    # a one-row tail joins the block before it
    [(1, [1]), (2, [2]), (ROWS, [ROWS]), (ROWS + 1, [ROWS + 1]),
     (2 * ROWS + 1, [ROWS, ROWS + 1]), (2 * ROWS + 2, [ROWS, ROWS, 2])],
)
def test_block_layout(monkeypatch, n, blocks):
    X = np.eye(4)[:, [0, 1, 2, 3] * 4]
    phi = np.ones((n, 4))
    set_block_rows(monkeypatch, ROWS, X.shape[1])
    sizes = [b - a for a, b, _ in samplers.abs_projection_blocks(
        X, n, lambda a, b: phi[a:b])]
    assert sizes == blocks


def test_block_keeps_two_rows_when_budget_is_smaller(monkeypatch):
    monkeypatch.setattr(samplers, "_BLOCK_BYTES", 1)
    X = np.eye(3)
    sizes = [b - a for a, b, _ in samplers.abs_projection_blocks(
        X, 5, lambda a, b: np.ones((b - a, 3)))]
    assert sizes == [2, 3]


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
