import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from srskit import (
    METHODS,
    ArgumentError,
    NotNormalizedError,
    RankDeficientKError,
    SamplerSpec,
    TooManySamplesError,
    ZeroMatrixError,
    leverage_probabilities,
    leverage_sampling,
    norm_sampling,
    normalize_columns,
    numerical_rank,
    ris,
    sample_columns,
    sample_gaussian_directions,
    srs_select_indices,
    srs_with_replacement,
    srs_without_replacement,
    volume_sampling,
)
from srskit import samplers


def unit(D):
    return normalize_columns(np.asarray(D, dtype=float))


# ---------------------------------------------------------------------------
# direction generator


def test_directions_deterministic():
    a = sample_gaussian_directions(5, 3, np.random.default_rng(7))
    b = sample_gaussian_directions(5, 3, np.random.default_rng(7))
    assert (a == b).all()


def test_directions_mean_close_to_zero():
    phi = sample_gaussian_directions(1000, 100, np.random.default_rng(0))
    assert abs(phi.mean()) < 0.02


def test_directions_uniform_angles():
    # normalized 2-d rows should be uniform on the circle
    phi = sample_gaussian_directions(10_000, 2, np.random.default_rng(1))
    angles = np.arctan2(phi[:, 1], phi[:, 0])
    bins = np.floor((angles + np.pi) / (2 * np.pi / 16)).astype(int)
    bins = np.clip(bins, 0, 15)
    counts = np.bincount(bins, minlength=16)
    expected = 10_000 / 16
    stat = ((counts - expected) ** 2 / expected).sum()
    p = 1.0 - chi2.cdf(stat, df=15)
    assert p > 0.001


# ---------------------------------------------------------------------------
# spatial sampling


def test_srs_select_hand_case():
    X = np.eye(2)
    phi = np.array([[1.0, 0.1], [0.2, 1.0]])
    assert list(srs_select_indices(X, phi)) == [0, 1]


def test_srs_select_absolute_value():
    X = np.array([[-1.0, 0.0], [0.0, 1.0]])
    phi = np.array([[1.0, 0.0]])
    assert list(srs_select_indices(X, phi)) == [0]


def test_srs_select_tie_then_exclusion():
    X = np.array([[1.0, 1.0], [0.0, 0.0]])
    phi = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert list(srs_select_indices(X, phi)) == [0, 1]


def test_srs_requires_unit_columns():
    X = 2.0 * np.eye(2)
    with pytest.raises(NotNormalizedError):
        srs_without_replacement(X, 1, np.random.default_rng(0))


def test_a_norm_just_past_the_tolerance_is_printed_in_full():
    # printed to 6 digits, a norm of 1 + 3e-6 read "has norm 1"
    X = np.array([[1.0 + 3e-6, 1.0], [0.0, 0.0]])
    with pytest.raises(NotNormalizedError, match=r"column 0 has norm 1\.000003;"):
        srs_without_replacement(X, 1, np.random.default_rng(0))


def test_srs_too_many_samples():
    X = np.eye(3)
    with pytest.raises(TooManySamplesError):
        srs_without_replacement(X, 4, np.random.default_rng(0))


def test_srs_without_replacement_distinct():
    rng = np.random.default_rng(3)
    X = unit(rng.standard_normal((6, 40)))
    r = srs_without_replacement(X, 25, np.random.default_rng(4))
    assert np.unique(r.indices).size == 25
    assert (r.columns == X[:, r.indices]).all()
    assert r.method == "srs"


def test_srs_with_replacement_matches_row_argmax():
    rng = np.random.default_rng(5)
    X = unit(rng.standard_normal((4, 12)))
    phi = rng.standard_normal((30, 4))
    idx = srs_select_indices(X, phi, with_replacement=True)
    naive = np.array([int(np.argmax(np.abs(p @ X))) for p in phi])
    assert (idx == naive).all()


def test_srs_nested_prefix():
    rng = np.random.default_rng(6)
    X = unit(rng.standard_normal((5, 30)))
    small = srs_without_replacement(X, 4, np.random.default_rng(9)).indices
    big = srs_without_replacement(X, 11, np.random.default_rng(9)).indices
    assert (big[:4] == small).all()


# ---------------------------------------------------------------------------
# baselines


def test_ris_full_draw_is_permutation():
    D = np.eye(7)
    r = ris(D, 7, False, np.random.default_rng(0))
    assert sorted(r.indices) == list(range(7))


def test_ris_nested_prefix():
    D = np.eye(9)
    small = ris(D, 3, False, np.random.default_rng(2)).indices
    big = ris(D, 8, False, np.random.default_rng(2)).indices
    assert (big[:3] == small).all()


def test_ris_with_replacement_can_repeat():
    D = np.eye(2)
    r = ris(D, 50, True, np.random.default_rng(1))
    assert r.with_replacement
    assert np.unique(r.indices).size <= 2


def test_norm_sampling_squared_frequencies():
    D = np.array([[1.0, 0.0], [0.0, 2.0]])
    r = norm_sampling(D, 5000, np.random.default_rng(0))
    freq1 = np.mean(r.indices == 1)
    assert abs(freq1 - 0.8) < 0.03


def test_norm_sampling_plain_frequencies():
    D = np.array([[1.0, 0.0], [0.0, 2.0]])
    r = norm_sampling(D, 5000, np.random.default_rng(1), squared=False)
    freq1 = np.mean(r.indices == 1)
    assert abs(freq1 - 2.0 / 3.0) < 0.03


def test_norm_sampling_zero_matrix():
    with pytest.raises(ZeroMatrixError):
        norm_sampling(np.zeros((3, 4)), 2, np.random.default_rng(0))


def test_leverage_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(5):
        D = rng.standard_normal((6, 15))
        p = leverage_probabilities(D)
        assert abs(p.sum() - 1.0) < 1e-10
        assert (p >= 0).all()


def test_leverage_probabilities_uniform_for_identity():
    p = leverage_probabilities(np.eye(4))
    assert np.allclose(p, 0.25, atol=1e-12)


def test_leverage_k_above_rank_rejected():
    rng = np.random.default_rng(3)
    D = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 10))
    with pytest.raises(RankDeficientKError):
        leverage_probabilities(D, k=3)
    with pytest.raises(RankDeficientKError):
        leverage_probabilities(D, k=0)


def test_leverage_sampling_runs():
    rng = np.random.default_rng(4)
    D = rng.standard_normal((5, 20))
    r = leverage_sampling(D, 8, np.random.default_rng(0), k=3)
    assert r.indices.size == 8
    assert r.method == "leverage"


def chi_square_fits(counts, p, alpha=1e-6):
    """Pearson's test of ``counts`` against cell probabilities ``p``; cells
    of probability 0 must be empty."""
    assert counts[p == 0].sum() == 0
    cells = p > 0
    expected = counts.sum() * p[cells]
    stat = float(((counts[cells] - expected) ** 2 / expected).sum())
    return stat < chi2.isf(alpha, cells.sum() - 1)


def test_leverage_sampling_draws_the_leverage_probabilities():
    D = np.random.default_rng(0).standard_normal((5, 12))
    p = leverage_probabilities(D)
    # full row rank: the leverage of column j is d_j^T (D D^T)^-1 d_j
    exact = np.einsum("ij,ij->j", D, np.linalg.solve(D @ D.T, D)) / 5
    assert np.allclose(p, exact, rtol=0, atol=1e-12)
    idx = leverage_sampling(D, 20_000, np.random.default_rng(1)).indices
    assert chi_square_fits(np.bincount(idx, minlength=12), p)


def test_volume_sampling_first_two_picks_follow_their_residuals():
    # P(j then k) = r1(j) / sum r1 * r2(k | j) / sum r2, with r1 the squared
    # norms and r2 the squared residuals after projecting out d_j
    D = np.random.default_rng(1).standard_normal((3, 5))
    sq = np.einsum("ij,ij->j", D, D)
    gram = D.T @ D
    p = np.zeros((5, 5))
    for j in range(5):
        r2 = sq - gram[j] ** 2 / sq[j]
        r2[j] = 0.0
        p[j] = sq[j] / sq.sum() * r2 / r2.sum()
    draw = samplers.bind(D, SamplerSpec(method="volume", n=2))
    rng = np.random.default_rng(2)
    pairs = np.array([draw(rng).indices for _ in range(3_000)])
    counts = np.bincount(pairs[:, 0] * 5 + pairs[:, 1], minlength=25)
    assert chi_square_fits(counts, p.ravel())


def residual_sq(C, B):
    """The squared norms of the columns of ``C`` less their projections
    on the span of ``B``'s columns."""
    if B.shape[1]:
        Q = np.linalg.qr(B)[0]
        C = C - Q @ (Q.T @ C)
    return np.einsum("ij,ij->j", C, C)


def volume_sequence_probabilities(D, n):
    """The probability of each ordered n-tuple of distinct columns: per
    pick, the column's squared residual over the columns picked in this
    pass over the sum of them all; once every residual is zero, a new pass
    starts from the columns left."""
    n2, tol_sq = D.shape[1], 1e-20 * np.einsum("ij,ij->", D, D)
    p = np.zeros([n2] * n)
    for seq in itertools.permutations(range(n2), n):
        p[seq], basis = 1.0, []
        for t, j in enumerate(seq):
            left = [k for k in range(n2) if k not in seq[:t]]
            res = residual_sq(D[:, left], D[:, basis])
            if res.max() <= tol_sq:
                basis, res = [], residual_sq(D[:, left], D[:, []])
            p[seq] *= res[left.index(j)] / res.sum()
            basis.append(j)
    return p


@pytest.mark.parametrize("rank, n2, n, draws", [(3, 5, 3, 5_000), (2, 4, 4, 2_000)])
def test_volume_sampling_ordered_sequences_follow_their_residuals(rank, n2, n, draws):
    # every ordered sequence of n picks, enumerated exactly; past the rank
    # a second pass starts on the columns left
    rng = np.random.default_rng(rank)
    D = rng.standard_normal((3, rank)) @ rng.standard_normal((rank, n2))
    p = volume_sequence_probabilities(D, n)
    assert np.isclose(p.sum(), 1.0, rtol=0, atol=1e-12)
    draw = samplers.bind(D, SamplerSpec(method="volume", n=n))
    seqs = np.array([draw(rng).indices for _ in range(draws)])
    counts = np.bincount(np.ravel_multi_index(seqs.T, p.shape), minlength=p.size)
    p = p.ravel()
    # the chi^2 approximation needs expected counts of a few or more: the
    # sequences expected fewer than 5 times are pooled into one cell
    rare = (p > 0) & (draws * p < 5)
    assert chi_square_fits(np.append(counts[~rare], counts[rare].sum()),
                           np.append(p[~rare], p[rare].sum()))


def test_volume_sampling_distinct_and_spanning():
    rng = np.random.default_rng(5)
    D = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 10))
    r = volume_sampling(D, 3, np.random.default_rng(1))
    assert np.unique(r.indices).size == 3
    assert numerical_rank(D[:, r.indices]) == 3


def test_volume_sampling_restarts_past_rank():
    # rank-1 data exhausts each pass after one pick
    D = np.outer(np.arange(1.0, 5.0), np.ones(6))
    r = volume_sampling(D, 4, np.random.default_rng(2))
    assert np.unique(r.indices).size == 4


def test_volume_sampling_nested_prefix():
    rng = np.random.default_rng(6)
    D = rng.standard_normal((5, 12))
    small = volume_sampling(D, 2, np.random.default_rng(3)).indices
    big = volume_sampling(D, 6, np.random.default_rng(3)).indices
    assert (big[:2] == small).all()


def test_volume_sampling_too_many():
    with pytest.raises(TooManySamplesError):
        volume_sampling(np.eye(3), 4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# dispatcher


def test_sample_columns_all_methods():
    rng = np.random.default_rng(7)
    X = unit(rng.standard_normal((4, 20)))
    for method in ("srs", "srs_repl", "ris", "ris_repl", "norm", "leverage",
                   "volume"):
        spec = SamplerSpec(method=method, n=6, seed=11)
        r = sample_columns(X, spec)
        assert r.indices.size == 6
        assert r.seed == 11


def test_sample_columns_seed_reproducible():
    rng = np.random.default_rng(8)
    X = unit(rng.standard_normal((3, 15)))
    spec = SamplerSpec(method="srs", n=5, seed=42)
    a = sample_columns(X, spec)
    b = sample_columns(X, spec)
    assert (a.indices == b.indices).all()
    # explicit generator with the same seed gives the same draw
    c = sample_columns(X, spec, np.random.default_rng(42))
    assert (a.indices == c.indices).all()


def test_sample_columns_needs_seed_or_rng():
    X = np.eye(2)
    with pytest.raises(ValueError):
        sample_columns(X, SamplerSpec(method="ris", n=1))


def test_sample_columns_does_not_normalize():
    # spatial methods insist on unit columns; the dispatcher must not
    # paper over that by normalizing internally
    D = 3.0 * np.eye(3)
    with pytest.raises(NotNormalizedError):
        sample_columns(D, SamplerSpec(method="srs", n=2, seed=0))


def test_sampler_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(method="bogus", n=3)
    with pytest.raises(ValueError):
        SamplerSpec(method="srs", n=0)
    with pytest.raises(ValueError):
        SamplerSpec(method="srs", n=3, seed=-1)


# ---------------------------------------------------------------------------
# properties of every method

WITH_REPLACEMENT = {
    "srs": False, "srs_repl": True, "ris": False, "ris_repl": True,
    "norm": True, "leverage": True, "volume": False,
}


@st.composite
def unit_matrices(draw):
    n1 = draw(st.integers(1, 6))
    n2 = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return unit(rng.standard_normal((n1, n2)))


@settings(deadline=None, max_examples=40)
@given(unit_matrices(), st.integers(0, 2**31 - 1), st.data())
def test_every_method_properties(X, seed, data):
    n2 = X.shape[1]
    n = data.draw(st.integers(1, n2))
    for method in METHODS:
        spec = SamplerSpec(method=method, n=n, seed=seed)
        r = sample_columns(X, spec)
        again = sample_columns(X, spec)
        assert (r.indices == again.indices).all()
        assert r.indices.shape == (n,)
        assert ((r.indices >= 0) & (r.indices < n2)).all()
        assert (r.columns == X[:, r.indices]).all()
        assert r.method == method
        assert r.seed == seed
        assert r.with_replacement == WITH_REPLACEMENT[method]
        if not r.with_replacement:
            assert np.unique(r.indices).size == n


@settings(deadline=None, max_examples=20)
@given(unit_matrices(), st.integers(0, 2**31 - 1))
def test_every_method_sample_count_boundary(X, seed):
    n2 = X.shape[1]
    for method in METHODS:
        r = sample_columns(X, SamplerSpec(method=method, n=n2, seed=seed))
        assert r.indices.size == n2
        over = SamplerSpec(method=method, n=n2 + 1, seed=seed)
        if WITH_REPLACEMENT[method]:
            assert sample_columns(X, over).indices.size == n2 + 1
        else:
            with pytest.raises(TooManySamplesError):
                sample_columns(X, over)


# ---------------------------------------------------------------------------
# binders: one per method, shared by sample_columns and the trial loops


def test_rng_or_seed_error_comes_before_input_errors():
    with pytest.raises(ValueError, match="either rng or spec.seed"):
        sample_columns(np.full((2, 2), np.nan), SamplerSpec(method="norm", n=1))


@pytest.mark.parametrize("method", METHODS)
def test_n_beyond_an_array_index_is_value_error(method):
    n = int(np.iinfo(np.intp).max) + 1
    error = TooManySamplesError if method in ("srs", "ris", "volume") else ArgumentError
    with pytest.raises(error) as info:
        sample_columns(unit(np.eye(3)), SamplerSpec(method=method, n=n, seed=0))
    assert type(info.value) is error
    if error is ArgumentError:
        assert str(n) in str(info.value)


# ---------------------------------------------------------------------------
# volume sampling against the residual-matrix loop it replaced


def volume_oracle(D, n, rng):
    """Volume sampling as an N1 x N2 residual matrix R, updated in full by
    each draw (rank-one, through np.outer) and re-read for its column
    norms on the next."""
    D = np.asarray(D, dtype=float)
    N1, n2 = D.shape
    tol_sq = (1e-10 * np.linalg.norm(D)) ** 2
    uniforms = rng.random(n)
    active = np.ones(n2, dtype=bool)
    chosen = np.empty(n, dtype=np.int64)
    R = np.empty_like(D)
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
                    break
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
    return chosen


def adversarial_volume_case(rng):
    """A small matrix that stresses the residual bookkeeping, and a count."""
    n1, n2 = int(rng.integers(1, 9)), int(rng.integers(1, 31))
    kind = int(rng.integers(0, 6))
    if kind == 0:  # column scales from 1e-8 to 1e8
        D = rng.standard_normal((n1, n2)) * 10.0 ** rng.uniform(-8, 8, n2)
    elif kind == 1:  # near-parallel columns
        D = (rng.standard_normal((n1, 1))
             + 10.0 ** rng.uniform(-14, -2) * rng.standard_normal((n1, n2)))
    elif kind == 2:  # low rank
        r = int(rng.integers(1, n1 + 1))
        D = rng.standard_normal((n1, r)) @ rng.standard_normal((r, n2))
    elif kind == 3:  # duplicate and zero columns
        D = rng.standard_normal((n1, n2))[:, rng.integers(0, n2, n2)]
        D[:, rng.random(n2) < 0.3] = 0.0
    elif kind == 4:  # small integers: ties and exact cancellation
        D = rng.integers(-2, 3, (n1, n2)).astype(float)
    else:  # two blocks of columns at scales far apart
        D = rng.standard_normal((n1, n2)) * 10.0 ** rng.uniform(-8, 8)
        D[:, : n2 // 2] *= 10.0 ** rng.uniform(-8, 8)
    return D, int(rng.integers(1, n2 + 1))


def test_volume_matches_residual_matrix_loop_seeded():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        dense = rng.standard_normal((30, 200))
        low = rng.standard_normal((40, 4)) @ rng.standard_normal((4, 300))
        spiked = dense.copy()
        spiked[:, seed] *= 1e8  # its pick leaves every estimate far below it
        for D, n in ((dense, 60), (low, 45), (unit(dense), 200), (spiked, 60)):
            got = volume_sampling(D, n, np.random.default_rng(seed)).indices
            assert (got == volume_oracle(D, n, np.random.default_rng(seed))).all()


def test_volume_matches_residual_matrix_loop_adversarial():
    rng = np.random.default_rng(2006)
    for case in range(3000):
        D, n = adversarial_volume_case(rng)
        seed = int(rng.integers(1 << 31))
        want = volume_oracle(D, n, np.random.default_rng(seed))
        got = volume_sampling(D, n, np.random.default_rng(seed)).indices
        assert (got == want).all(), case


@pytest.mark.parametrize("rank, n", [(5, 12), (100, 30)])
def test_volume_memory_is_below_one_copy_of_d(rank, n, traced_peak):
    # low rank exhausts passes and recomputes the residuals exactly
    rng = np.random.default_rng(rank)
    D = rng.standard_normal((100, rank)) @ rng.standard_normal((rank, 20_000))
    sketch, peak = traced_peak(volume_sampling, D, n, np.random.default_rng(1))
    assert np.unique(sketch.indices).size == n
    assert peak < D.nbytes


def test_volume_recomputes_only_where_rounding_can_matter(monkeypatch):
    # a rank-3 group scaled by 1e8 leaves its own estimates at rounding
    # level once its span is drawn; only they need exact values, not every
    # column on every later draw
    rng = np.random.default_rng(14)
    dense = rng.standard_normal((100, 5400))
    scaled = dense.copy()
    scaled[:, :50] = 1e8 * (rng.standard_normal((100, 3))
                            @ rng.standard_normal((3, 50)))
    recompute = samplers._volume_residuals
    columns = []
    monkeypatch.setattr(samplers, "_volume_residuals",
                        lambda D, Q, idx, cols: columns.append(idx.size)
                        or recompute(D, Q, idx, cols))
    volume_sampling(dense, 200, np.random.default_rng(15))
    dense_columns = sum(columns)
    columns.clear()
    got = volume_sampling(scaled, 200, np.random.default_rng(15)).indices
    assert 0 < sum(columns) <= 2 * dense_columns
    assert (got == volume_oracle(scaled, 200, np.random.default_rng(15))).all()
