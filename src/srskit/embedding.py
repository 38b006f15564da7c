"""Row-dimension reduction: D' = S @ D for a short random matrix S.

Four kinds of S are supported: a random subset of standard-basis rows
(plain row sampling), dense Gaussian, the sparse three-point law, and
dense +-1 entries.  Scale factors make each kind approximately
norm-preserving; they do not affect argmax-based selection downstream.
Columns of S @ D are generally not unit norm, so spatial sampling after
an embedding requires an explicit re-normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, BadTargetDimError, ShapeError, check_count
from .matrix import as_matrix, fits_array, spec_rng

KINDS = ("rows", "gaussian", "sparse", "rademacher")


@dataclass(frozen=True)
class EmbeddingSpec:
    """Embedding kind, target dimension p, and parameters.

    ``density`` is the nonzero fraction of the sparse kind; the default
    1/3 gives entries sqrt(3/p) * {+1, 0, -1} with probabilities
    {1/6, 2/3, 1/6}.
    """

    kind: str
    p: int
    density: float = 1.0 / 3.0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ArgumentError(f"unknown kind {self.kind!r}, expected {KINDS}")
        check_count("target dimension p", self.p)
        if not 0.0 < self.density <= 1.0:
            raise ArgumentError("density must be in (0, 1]")


def build_embedding(
    spec: EmbeddingSpec, N1: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Draw the p x N1 embedding matrix for ``spec``."""
    rng = spec_rng(rng, spec)
    p = spec.p
    if spec.kind == "rows":
        if p > N1:
            raise BadTargetDimError(f"p={p} exceeds row count {N1}")
        S = np.zeros((p, N1))
        S[np.arange(p), rng.permutation(N1)[:p]] = 1.0
        return S
    if not fits_array(p, N1):
        raise BadTargetDimError(f"p={p} is more rows than an array can hold")
    if spec.kind == "gaussian":
        return rng.standard_normal((p, N1)) / np.sqrt(p)
    if spec.kind == "sparse":
        scale = 1.0 / np.sqrt(p * spec.density)
        u = rng.random((p, N1))
        S = np.zeros((p, N1))
        half = spec.density / 2.0
        S[u < half] = scale
        S[u >= 1.0 - half] = -scale
        return S
    signs = rng.integers(0, 2, size=(p, N1)) * 2 - 1
    return signs / np.sqrt(p)


def apply_embedding(S: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Matrix product S @ D with a shape check."""
    S = as_matrix(S)
    D = as_matrix(D)
    if S.shape[1] != D.shape[0]:
        raise ShapeError(
            f"embedding expects {S.shape[1]} rows, data has {D.shape[0]}"
        )
    return S @ D
