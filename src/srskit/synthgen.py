"""Synthetic data: arc clusters on the unit circle, unions of subspaces.

Both generators emit unit-norm columns together with ground-truth
cluster labels and are bitwise reproducible from their seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArcOverlapError, BadArcLengthsError, BadDimsError
from .matrix import ClusterLabels, column_norms, fits_array, spec_rng

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ArcSpec:
    """Two disjoint arcs on the unit circle with point populations.

    ``tau1``/``tau2`` are arc lengths in radians, ``center1``/``center2``
    the arc center angles.  The default centers (0 and pi/2) satisfy the
    disjointness constraints for every valid pair of lengths.
    """

    tau1: float
    tau2: float
    n1: int
    n2: int
    center1: float = 0.0
    center2: float = math.pi / 2.0
    seed: int | None = None


@dataclass(frozen=True)
class SubspaceSpec:
    """Union of random linear subspaces with per-subspace populations."""

    ambient: int
    dims: tuple
    populations: tuple
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(
            self, "populations", tuple(int(p) for p in self.populations)
        )

    @classmethod
    def homogeneous(cls, ambient, total_rank, n_subspaces, populations, seed=None):
        """All subspaces share dimension total_rank / n_subspaces."""
        if n_subspaces < 1:
            raise BadDimsError("n_subspaces must be >= 1")
        if not fits_array(max(ambient, 1), n_subspaces):  # before any tuple is built
            raise BadDimsError("ambient x columns is more than an array can hold")
        if total_rank % n_subspaces != 0:
            raise BadDimsError(
                f"total rank {total_rank} not divisible by {n_subspaces}"
            )
        if isinstance(populations, int):
            populations = (populations,) * n_subspaces
        if len(populations) != n_subspaces:  # before n_subspaces dims are made
            raise BadDimsError("dims and populations must be equal nonzero length")
        d = total_rank // n_subspaces
        return cls(ambient, (d,) * n_subspaces, tuple(populations), seed)


def _arcs_overlap(start1, len1, start2, len2):
    # arcs shorter than the full circle overlap iff either start angle
    # falls strictly inside the other arc's sweep
    d12 = (start2 - start1) % TWO_PI
    d21 = (start1 - start2) % TWO_PI
    return d12 < len1 or d21 < len2


def validate_arc_spec(spec: ArcSpec) -> None:
    """Raise BadArcLengthsError / ArcOverlapError on invalid geometry."""
    if spec.n1 < 1 or spec.n2 < 1:
        raise BadArcLengthsError("populations n1, n2 must be >= 1")
    if not fits_array(2, spec.n1 + spec.n2):
        raise BadArcLengthsError("n1 + n2 is more columns than an array can hold")
    geometry = (spec.tau1, spec.tau2, spec.center1, spec.center2)
    if not all(map(math.isfinite, geometry)):
        raise BadArcLengthsError("arc lengths and centers must be finite")
    if spec.tau1 <= 0 or spec.tau2 <= 0:
        raise BadArcLengthsError("arc lengths must be positive")
    if spec.tau1 + spec.tau2 >= math.pi:
        raise BadArcLengthsError(
            f"tau1 + tau2 = {spec.tau1 + spec.tau2:.6g} must be < pi"
        )
    s1 = spec.center1 - spec.tau1 / 2.0
    s2 = spec.center2 - spec.tau2 / 2.0
    if _arcs_overlap(s1, spec.tau1, s2, spec.tau2):
        raise ArcOverlapError("arcs overlap on the unit circle")
    # antipodal image: the same check shifted by pi covers both arcs,
    # since mirroring is an involution
    if _arcs_overlap(s1, spec.tau1, s2 + math.pi, spec.tau2):
        raise ArcOverlapError(
            "one arc overlaps the antipodal image of the other"
        )


def gen_arc_clusters(
    spec: ArcSpec, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, ClusterLabels]:
    """Unit-circle points spread uniformly over two disjoint arcs."""
    validate_arc_spec(spec)
    rng = spec_rng(rng, spec)
    D = np.empty((2, spec.n1 + spec.n2))
    angles = D[1]  # the sines overwrite them, last
    for arc, tau, center in ((angles[: spec.n1], spec.tau1, spec.center1),
                             (angles[spec.n1 :], spec.tau2, spec.center2)):
        rng.random(out=arc)
        arc -= 0.5
        arc *= tau
        arc += center
    np.cos(angles, out=D[0])
    np.sin(angles, out=angles)
    labels = np.repeat(np.array([0, 1]), [spec.n1, spec.n2])
    return D, ClusterLabels(labels, 2)


def validate_subspace_spec(spec: SubspaceSpec) -> None:
    if len(spec.dims) != len(spec.populations) or len(spec.dims) == 0:
        raise BadDimsError("dims and populations must be equal nonzero length")
    if any(d < 1 for d in spec.dims):
        raise BadDimsError("every subspace dimension must be >= 1")
    if any(p < 1 for p in spec.populations):
        raise BadDimsError("every population must be >= 1")
    if max(spec.dims) > spec.ambient:
        raise BadDimsError(
            f"max dim {max(spec.dims)} exceeds ambient {spec.ambient}"
        )
    # the matrix, and each ambient x dim basis
    if not fits_array(spec.ambient, max(sum(spec.populations), *spec.dims)):
        raise BadDimsError("ambient x columns is more than an array can hold")


def gen_union_subspaces(
    spec: SubspaceSpec, rng: np.random.Generator | None = None
) -> tuple[np.ndarray, ClusterLabels]:
    """Points uniform on the unit spheres of random linear subspaces.

    Each subspace basis is the Q factor of a Gaussian ambient x dim
    matrix; each point is the basis applied to a normalized Gaussian, so
    all columns are unit norm.
    """
    validate_subspace_spec(spec)
    rng = spec_rng(rng, spec)
    D = np.empty((spec.ambient, sum(spec.populations)))
    edges = np.cumsum((0, *spec.populations))
    for d, a, b in zip(spec.dims, edges, edges[1:]):
        basis, _ = np.linalg.qr(rng.standard_normal((spec.ambient, d)))
        g = rng.standard_normal((d, b - a))
        g /= column_norms(g)
        # a column slice of C-ordered D is a valid GEMM output: one copy
        np.matmul(basis, g, out=D[:, a:b])
    labels = np.repeat(np.arange(len(spec.dims)), spec.populations)
    return D, ClusterLabels(labels, len(spec.dims))
