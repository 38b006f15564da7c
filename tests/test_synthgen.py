import math

import numpy as np
import pytest

from srskit import (
    ArcOverlapError,
    ArcSpec,
    BadArcLengthsError,
    BadDimsError,
    SubspaceSpec,
    gen_arc_clusters,
    gen_union_subspaces,
    numerical_rank,
    validate_arc_spec,
    validate_subspace_spec,
)
from srskit.synthgen import _arcs_overlap


def angle_in_arc(angle, center, tau):
    return ((angle - center + math.pi) % (2 * math.pi) - math.pi) <= tau / 2 + 1e-12 and (
        (angle - center + math.pi) % (2 * math.pi) - math.pi
    ) >= -tau / 2 - 1e-12


def test_arc_data_unit_norm_and_labeled():
    spec = ArcSpec(tau1=1.2, tau2=0.8, n1=30, n2=20, seed=0)
    D, labels = gen_arc_clusters(spec)
    assert D.shape == (2, 50)
    assert np.allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)
    assert list(labels.counts()) == [30, 20]


def test_arc_points_inside_their_arcs():
    spec = ArcSpec(tau1=1.5, tau2=1.0, n1=200, n2=200, seed=1)
    D, labels = gen_arc_clusters(spec)
    angles = np.arctan2(D[1], D[0])
    for j, angle in enumerate(angles):
        center = spec.center1 if labels.values[j] == 0 else spec.center2
        tau = spec.tau1 if labels.values[j] == 0 else spec.tau2
        assert angle_in_arc(angle, center, tau)


def test_arc_determinism():
    spec = ArcSpec(tau1=0.5, tau2=0.5, n1=10, n2=10, seed=5)
    a, _ = gen_arc_clusters(spec)
    b, _ = gen_arc_clusters(spec)
    assert (a == b).all()


def test_arc_length_validation():
    with pytest.raises(BadArcLengthsError):
        validate_arc_spec(ArcSpec(tau1=2.0, tau2=1.5, n1=5, n2=5))
    with pytest.raises(BadArcLengthsError):
        validate_arc_spec(ArcSpec(tau1=0.0, tau2=1.0, n1=5, n2=5))
    with pytest.raises(BadArcLengthsError):
        validate_arc_spec(ArcSpec(tau1=1.0, tau2=1.0, n1=0, n2=5))


@pytest.mark.parametrize("field", ["tau1", "tau2", "center1", "center2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_arc_spec_rejects_non_finite_geometry(field, value):
    # NaN fails every comparison, so it passed the range checks and the
    # generator returned NaN columns
    spec = ArcSpec(**{"tau1": 1.0, "tau2": 0.5, "n1": 5, "n2": 5, "seed": 0,
                      field: value})
    with pytest.raises(BadArcLengthsError, match="finite"):
        gen_arc_clusters(spec)


def test_arc_overlap_detected():
    # same center: arcs overlap outright
    with pytest.raises(ArcOverlapError):
        validate_arc_spec(ArcSpec(tau1=1.0, tau2=1.0, n1=5, n2=5,
                                  center1=0.0, center2=0.2))
    # second arc centered at pi: overlaps the antipodal image of the first
    with pytest.raises(ArcOverlapError):
        validate_arc_spec(ArcSpec(tau1=1.0, tau2=1.0, n1=5, n2=5,
                                  center1=0.0, center2=math.pi - 0.1))


def test_default_centers_valid_for_all_lengths():
    for tau1, tau2 in ((0.1, 0.1), (1.5, 1.5), (3.0, 0.1), (0.2, 2.8)):
        validate_arc_spec(ArcSpec(tau1=tau1, tau2=tau2, n1=1, n2=1))


def test_arcs_overlap_brute_force_oracle():
    # compare the closed-form interval test against dense sampling
    rng = np.random.default_rng(2)
    grid = np.linspace(0.0, 2 * math.pi, 5000, endpoint=False)
    for _ in range(200):
        s1, s2 = rng.uniform(0, 2 * math.pi, size=2)
        l1, l2 = rng.uniform(0.05, 2.5, size=2)
        in1 = ((grid - s1) % (2 * math.pi)) < l1
        in2 = ((grid - s2) % (2 * math.pi)) < l2
        dense = bool(np.any(in1 & in2))
        # the dense oracle can miss overlaps narrower than the grid step,
        # so only disagreements wider than one step count
        if dense != _arcs_overlap(s1, l1, s2, l2):
            step = 2 * math.pi / 5000
            assert min(l1, l2) < step or not dense


def test_subspace_data_shapes_and_rank():
    spec = SubspaceSpec(ambient=12, dims=(2, 3), populations=(15, 25), seed=3)
    D, labels = gen_union_subspaces(spec)
    assert D.shape == (12, 40)
    assert list(labels.counts()) == [15, 25]
    assert np.allclose(np.linalg.norm(D, axis=0), 1.0, atol=1e-12)
    assert numerical_rank(D) == 5
    assert numerical_rank(D[:, :15]) == 2
    assert numerical_rank(D[:, 15:]) == 3


def test_subspace_dependent_union_allowed():
    # total dimension may exceed the ambient dimension
    spec = SubspaceSpec(ambient=4, dims=(2, 2, 2), populations=(5, 5, 5),
                        seed=4)
    D, _ = gen_union_subspaces(spec)
    assert numerical_rank(D) == 4


def test_subspace_validation():
    with pytest.raises(BadDimsError):
        validate_subspace_spec(SubspaceSpec(3, (2, 2), (5,)))
    with pytest.raises(BadDimsError):
        validate_subspace_spec(SubspaceSpec(3, (0,), (5,)))
    with pytest.raises(BadDimsError):
        validate_subspace_spec(SubspaceSpec(3, (4,), (5,)))
    with pytest.raises(BadDimsError):
        validate_subspace_spec(SubspaceSpec(3, (2,), (0,)))


def test_subspace_homogeneous_helper():
    spec = SubspaceSpec.homogeneous(10, 6, 3, 7, seed=0)
    assert spec.dims == (2, 2, 2)
    assert spec.populations == (7, 7, 7)
    with pytest.raises(BadDimsError):
        SubspaceSpec.homogeneous(10, 7, 3, 5)


def test_subspace_determinism():
    spec = SubspaceSpec(ambient=6, dims=(2, 2), populations=(4, 4), seed=9)
    a, _ = gen_union_subspaces(spec)
    b, _ = gen_union_subspaces(spec)
    assert (a == b).all()


@pytest.mark.parametrize("n_subspaces", [0, -1])
def test_subspace_homogeneous_needs_a_subspace(n_subspaces):
    with pytest.raises(BadDimsError, match=r"^n_subspaces must be >= 1$"):
        SubspaceSpec.homogeneous(8, 0, n_subspaces, 5)


@pytest.mark.parametrize("ambient, total_rank, n_subspaces", [
    (8, 2**63, 2**63), (8, 2**62, 2**61), (0, 2**63, 2**63)],
    ids=["2**63", "2**61", "ambient-0"])
def test_subspace_homogeneous_past_any_array_is_bad_dims(
        ambient, total_rank, n_subspaces):
    # (populations,) * n_subspaces ended in OverflowError, or MemoryError
    with pytest.raises(BadDimsError, match="more than an array can hold"):
        SubspaceSpec.homogeneous(ambient, total_rank, n_subspaces, 5)


# ---------------------------------------------------------------------------
# bitwise pins: the generators write in place, with the draws and the bits
# of the block-by-block construction they replaced


def hstack_subspaces(spec, rng):
    blocks = []
    for d, pop in zip(spec.dims, spec.populations):
        basis, _ = np.linalg.qr(rng.standard_normal((spec.ambient, d)))
        g = rng.standard_normal((d, pop))
        g /= np.sqrt(np.einsum("ij,ij->j", g, g))
        blocks.append(basis @ g)
    return np.hstack(blocks)


def vstack_arcs(spec, rng):
    angles = np.concatenate([
        spec.center1 + spec.tau1 * (rng.random(spec.n1) - 0.5),
        spec.center2 + spec.tau2 * (rng.random(spec.n2) - 0.5),
    ])
    return np.vstack([np.cos(angles), np.sin(angles)])


def assert_pinned(gen, old, spec):
    got, _ = gen(spec)
    want = old(spec, np.random.default_rng(spec.seed))
    assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()
    rng = np.random.default_rng(spec.seed + 1)
    old_rng = np.random.default_rng(spec.seed + 1)
    got, _ = gen(spec, rng)
    want = old(spec, old_rng)
    assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()
    assert rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.parametrize("ambient, dims, populations", [
    (6, (2, 3), (1, 1)),  # one point per subspace
    (5, (5, 2), (7, 4)),  # a subspace of the ambient dimension
    (9, (1, 1, 1), (3, 20, 2)),  # lines
    (1, (1, 1), (4, 3)),  # ambient dimension 1
    (12, (3, 12, 1, 4, 2, 6), (30, 1, 17, 5, 64, 9)),  # six blocks
    (100, (10, 10, 10, 10), (400, 60, 30, 10)),
])
def test_union_of_subspaces_is_bitwise_the_block_stack(ambient, dims, populations):
    for seed in (0, 3):
        spec = SubspaceSpec(ambient, dims, populations, seed=seed)
        assert_pinned(gen_union_subspaces, hstack_subspaces, spec)


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 300), (250, 2), (5000, 50)])
def test_arc_clusters_are_bitwise_the_row_stack(n1, n2):
    for seed in (0, 3):
        spec = ArcSpec(tau1=1.2, tau2=0.6, n1=n1, n2=n2, seed=seed)
        assert_pinned(gen_arc_clusters, vstack_arcs, spec)
