"""Scale invariance: the scale-free operations give the same answer on D and
on D * 2^k, bit for bit, on both sides of the rescale threshold of
``matrix.in_range`` and far past float64's range for the squares."""

import numpy as np
import pytest

from srskit import (
    SamplerSpec,
    approximation_error,
    assign_to_columns,
    column_norms_ok,
    kmeans,
    normalize_columns,
    sample_columns,
)
from srskit.matrix import SQUARES_RANGE, column_squares

rng = np.random.default_rng(7)
# entries of magnitude in [2^-8, 2^8]: every entry of 2^k D is normal for
# |k| <= 1000, while its squares leave float64's range from |k| ~ 500
D = rng.choice([-1.0, 1.0], (5, 60)) * np.exp2(rng.uniform(-8.0, 8.0, (5, 60)))
SAMPLERS = [("norm", 12, True), ("norm", 12, False), ("volume", 12, True),
            ("leverage", 12, True), ("srs", 12, True)]


def rescaled(k):
    return not SQUARES_RANGE[0] <= column_squares(D * 2.0**k).max() <= SQUARES_RANGE[1]


# the last k on each side that is read as it is, and the first rescaled
EDGES = [k for j in range(-1000, 1000) if rescaled(j) != rescaled(j + 1)
         for k in (j, j + 1)]
# at 2^-515 a column's sum of squares is normal but some of its squares are
# not: its norm is taken again
SCALES = sorted({*range(-1000, 1001, 125), *EDGES, -515, 515})


def outputs(M):
    """What each scale-free operation returns on ``M``."""
    picks = [sample_columns(normalize_columns(M) if method == "srs" else M,
                            SamplerSpec(method, n, seed=3, norm_squared=sq)).indices
             for method, n, sq in SAMPLERS]
    centers = kmeans(M, 4, np.random.default_rng(5), restarts=3)
    return picks, centers, assign_to_columns(centers, M), normalize_columns(M)


def test_the_edges_are_on_both_sides_of_the_threshold():
    assert len(EDGES) == 4 and rescaled(-1000) and rescaled(1000) and not rescaled(0)


@pytest.mark.parametrize("k", SCALES)
def test_scale_free_operations_do_not_depend_on_a_power_of_two(k):
    # at the parent: kmeans and norm raised, volume raised or drifted, and
    # kmeans centers and their assignment drifted
    scale = 2.0**k
    M = D * scale
    want_picks, want_centers, want_assign, want_x = outputs(D)
    picks, centers, assign, x = outputs(M)
    for method, got, want in zip(SAMPLERS, picks, want_picks):
        assert np.array_equal(got, want), method
    # equal centers are equal labels: each point's nearest center
    assert np.array_equal(centers / scale, want_centers)
    assert np.array_equal(assign, want_assign)
    assert np.array_equal(x, want_x)
    want = approximation_error(D, D[:, :2])
    assert approximation_error(M, M[:, :2]) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_a_column_of_subnormal_entries_normalizes_to_unit_norm():
    # its norm was rounded to the subnormal grid before the division: 1.0000033
    X = normalize_columns(np.array([[3.3e-320, 1.0], [4.1e-320, 0.0]]))
    assert column_norms_ok(X, tol=4e-16)
