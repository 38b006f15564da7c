"""Memory contracts: generators, matrix checks and the projection error hold
no hidden copy.

Each bound is in the shapes of the call; ``traced_peak`` measures the
peak ``tracemalloc`` sees above its base.
"""

import numpy as np
import pytest

from srskit import (
    ArcSpec,
    SubspaceSpec,
    approximation_error,
    as_matrix,
    gen_arc_clusters,
    gen_union_subspaces,
    normalize_columns,
)

SLACK = 64 << 10


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
