"""Memory contracts: every public operation holds no hidden copy.

Each bound is in the shapes of the call; ``traced_peak`` measures the
peak ``tracemalloc`` sees above its base.  Beside a bound is the peak
measured, as a multiple of the call's matrix.
"""

import numpy as np
import pytest

from srskit import (
    ArcSpec,
    ClusterLabels,
    EmbeddingSpec,
    SamplerSpec,
    SubspaceSpec,
    _parallel,
    apply_embedding,
    approximation_error,
    assign_to_columns,
    as_matrix,
    build_embedding,
    empirical_sampling_probabilities,
    estimate_region_areas,
    gen_arc_clusters,
    gen_union_subspaces,
    kmeans,
    load_csv,
    normalize_columns,
    sample_columns,
    save_csv,
)
from srskit import cli
from srskit.embedding import KINDS

SLACK = 64 << 10
N1, N2 = 100, 20_000
# a few vectors of length N2 (sums of squares, weights, masks, labels)
VECTORS = 4 * 8 * N2


@pytest.fixture(scope="module")
def data():
    """An N1 x N2 matrix, its unit columns and 4 interleaved clusters."""
    D = np.random.default_rng(0).standard_normal((N1, N2))
    return D, normalize_columns(D), ClusterLabels(np.arange(N2) % 4, 4)


def tiles():
    """The screen's tile buffers: at most one per worker."""
    return _parallel.workers() * _parallel.TILE_BYTES


def test_union_of_subspaces_holds_one_copy(traced_peak):
    # stacking the blocks held them and their stack: 2.03 times the output
    spec = SubspaceSpec(100, (10, 10, 10, 10), (8000, 6000, 4000, 2000), seed=0)
    (D, _), peak = traced_peak(gen_union_subspaces, spec)
    assert peak <= 1.2 * D.nbytes


def test_arc_clusters_hold_one_copy(traced_peak):
    # the angles, their cosines and sines and the stacked rows: 2.52 times
    # the output
    spec = ArcSpec(tau1=1.2, tau2=0.6, n1=15_000, n2=5_000, seed=0)
    (D, _), peak = traced_peak(gen_arc_clusters, spec)
    assert peak <= D.nbytes + 2 * 8 * D.shape[1]


def test_matrix_check_is_one_norm_pass(traced_peak):
    # checking every entry held an N1 x N2 bool: 0.125 times the input
    X = np.random.default_rng(0).standard_normal((100, 20_000))
    got, peak = traced_peak(as_matrix, X)
    assert got is X
    assert peak <= 2 * 8 * X.shape[1] + SLACK


def test_normalize_columns_holds_its_output_and_norms(traced_peak):
    X = np.random.default_rng(0).standard_normal((100, 20_000))
    got, peak = traced_peak(normalize_columns, X)
    assert peak <= got.nbytes + 2 * 8 * X.shape[1] + SLACK


@pytest.mark.parametrize("n", [100, 1000])
def test_approximation_error_holds_one_residual(traced_peak, n):
    # a least-squares solve held an n x N2 coefficient matrix: 3 times the
    # input at n = 100, 20 times at n = 1,000
    D = np.random.default_rng(0).standard_normal((100, 20_000))
    C = np.ascontiguousarray(D[:, :n])
    _, peak = traced_peak(approximation_error, D, C)
    # the residual, U^T D (rank x N2, at most D's size) and the SVD of C
    assert peak <= 2 * D.nbytes + 4 * C.nbytes + SLACK


# method -> whether it samples the unit columns, and its bound beside the
# few vectors and the slack, for n picks
SAMPLER_BOUNDS = {
    # the float32 copy of X, the tiles and the sketch: 0.64 times D
    "srs": (True, lambda n: 4 * N1 * N2 + tiles() + 8 * N1 * n),
    "srs_repl": (True, lambda n: 4 * N1 * N2 + tiles() + 8 * N1 * n),
    # the sketch: 0.03 times D
    "ris": (False, lambda n: 8 * N1 * n),
    "norm": (False, lambda n: 8 * N1 * n),
    # V^T of the thin SVD, U and the sketch: 1.04 times D
    "leverage": (False, lambda n: 8 * N1 * N2 + 8 * N1 * (N1 + n)),
    # the basis, a block of residuals and the sketch: 0.10 times D
    "volume": (False, lambda n: 2 * _parallel.TILE_BYTES + 8 * N1 * (N1 + n)),
}


@pytest.mark.parametrize("method", SAMPLER_BOUNDS)
def test_each_sampler_holds_its_sketch_and_bounded_work(traced_peak, data, method):
    D, X, _ = data
    unit, bound = SAMPLER_BOUNDS[method]
    n = 100 if method == "volume" else 400
    spec = SamplerSpec(method, n, seed=1)
    result, peak = traced_peak(sample_columns, X if unit else D, spec)
    assert result.columns.shape == (N1, n)
    assert peak <= bound(n) + VECTORS + SLACK


def test_kmeans_holds_two_copies_and_one_group_of_scores(traced_peak, data):
    # the points in rows, Lloyd's residuals and a restart group's scores,
    # which fit one tile: 2.03 times D
    D = data[0]
    centers, peak = traced_peak(kmeans, D, 10, np.random.default_rng(1),
                                max_iters=5, restarts=2)
    assert centers.shape == (N1, 10)
    assert peak <= 2 * D.nbytes + _parallel.TILE_BYTES + VECTORS + SLACK


@pytest.mark.parametrize("estimator, sorted_copy", [
    # the columns sorted by cluster too: 1.66 times X
    (estimate_region_areas, True),
    # 0.64 times X
    (empirical_sampling_probabilities, False),
], ids=["region_areas", "empirical_probabilities"])
def test_region_estimators_hold_the_screen_copy(traced_peak, data, estimator,
                                                sorted_copy):
    _, X, labels = data
    fractions, peak = traced_peak(estimator, X, labels, 500, np.random.default_rng(2))
    assert fractions.shape == (4,)
    copy = X.nbytes if sorted_copy else 0
    assert peak <= copy + 4 * N1 * N2 + tiles() + VECTORS + SLACK


def test_dropping_zero_columns_holds_one_copy(traced_peak, data):
    # the kept columns gathered in Fortran order and then copied to C order:
    # 1.8 times D with a tenth of the columns zero
    D = data[0].copy()
    D[:, ::10] = 0.0
    (kept, keep), peak = traced_peak(cli._drop_zero_columns, D)
    assert keep.size == kept.shape[1] == N2 - N2 // 10
    assert peak <= kept.nbytes + VECTORS + SLACK


@pytest.mark.parametrize("kind", KINDS)
def test_embedding_holds_its_output(traced_peak, data, kind):
    # S (and, while it is drawn, a p x N1 array of draws) and S D: 0.20
    # times D at p = 20
    D, p = data[0], 20
    spec = EmbeddingSpec(kind, p, seed=3)
    out, peak = traced_peak(lambda: apply_embedding(build_embedding(spec, N1), D))
    assert out.shape == (p, N2)
    assert peak <= out.nbytes + 3 * 8 * p * N1 + SLACK


@pytest.mark.parametrize("shape", [(100, 300), (20, 1500), (10, 3000)])
def test_csv_round_trip_holds_a_row_of_text_at_a_time(traced_peak, tmp_path, shape):
    # 30,000 values in a 0.59 MB file, below the thresholds of a split
    # save (32,768 values) and load (1 MiB): no fork, so tracemalloc sees
    # all the work
    D = np.random.default_rng(4).standard_normal(shape)
    path = tmp_path / "m.csv"
    # a row's Python floats, their reprs and its line: 0.19 to 1.63 times D
    _, peak = traced_peak(save_csv, D, path)
    assert peak <= 160 * D.shape[1] + SLACK
    assert path.stat().st_size < 1 << 20
    line = max(map(len, path.read_bytes().splitlines()))
    # the result and the reader's copies of a line: 1.41 to 3.60 times D
    got, peak = traced_peak(load_csv, path)
    assert np.array_equal(got, D)
    assert peak <= D.nbytes + 12 * line + SLACK


# D scaled by 2^-600: its squares underflow, so each scale-free operation
# scales it back into float64's range first, and may hold one scaled copy
# of D beyond its in-range bound, but no |D| temporary.  Each result is
# that of D itself, so the rescaled path is the one measured.
TINY = 2.0**-600


@pytest.mark.parametrize("method", ["norm", "volume"])
def test_rescaled_samplers_hold_one_scaled_copy_more(traced_peak, data, method):
    D = data[0]
    n = 100 if method == "volume" else 400
    spec = SamplerSpec(method, n, seed=1)
    result, peak = traced_peak(sample_columns, D * TINY, spec)
    assert np.array_equal(result.indices, sample_columns(D, spec).indices)
    assert peak <= SAMPLER_BOUNDS[method][1](n) + VECTORS + SLACK + D.nbytes


def test_rescaled_kmeans_holds_one_scaled_copy_more(traced_peak, data):
    D = data[0]
    args = dict(k=10, max_iters=5, restarts=2)
    centers, peak = traced_peak(kmeans, D * TINY, rng=np.random.default_rng(1), **args)
    assert np.array_equal(centers / TINY, kmeans(D, rng=np.random.default_rng(1), **args))
    assert peak <= 3 * D.nbytes + _parallel.TILE_BYTES + VECTORS + SLACK


def test_rescaled_assign_to_columns_holds_one_scaled_copy_more(traced_peak, data):
    # in range, the (N2, k) scores of one GEMM and their candidate mask: 0.14
    # times D
    D = data[0]
    centers = np.ascontiguousarray(D[:, :10])
    labels, peak = traced_peak(assign_to_columns, centers * TINY, D * TINY)
    assert np.array_equal(labels, np.arange(10))
    assert peak <= 2 * 8 * 10 * N2 + VECTORS + SLACK + D.nbytes


def test_rescaled_approximation_error_holds_one_scaled_copy_more(traced_peak, data):
    # at 2^-530 ||D||_F is normal, but the squares under it are not: the
    # error read 0
    D = data[0]
    C = np.ascontiguousarray(D[:, :10])
    got, peak = traced_peak(approximation_error, D * 2.0**-530, C * 2.0**-530)
    assert got == pytest.approx(approximation_error(D, C), rel=1e-14, abs=0.0)
    assert peak <= 3 * D.nbytes + 4 * C.nbytes + SLACK


def test_rescaled_normalize_columns_holds_one_scaled_copy_more(traced_peak, data):
    D, X, _ = data
    got, peak = traced_peak(normalize_columns, D * TINY)
    assert np.array_equal(got, X)
    assert peak <= got.nbytes + 2 * 8 * N2 + SLACK + D.nbytes
