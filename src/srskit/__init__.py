"""srskit: spatial random sampling for column sketches.

Pick columns of a data matrix by drawing random directions on the unit
sphere and keeping, per direction, the normalized column with the
largest absolute inner product.  Ships the spatial samplers, classical
baselines (uniform, norm, leverage, volume), random embeddings,
synthetic generators, and seeded experiment drivers.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    BoundParams,
    ExperimentReport,
    coverage_experiment,
    empirical_sampling_probabilities,
    estimate_region_areas,
    kmeans_balance_experiment,
    lemma2_bound,
    lemma2_empirical,
    lemma3_bound,
    lemma3_empirical,
    lemma4_bound,
    load_report,
    min_beta,
    per_cluster_means,
    per_x_summary,
    rank_curve,
    report_values,
)
from .embedding import KINDS, EmbeddingSpec, apply_embedding, build_embedding
from .errors import (
    ArcOverlapError,
    ArgumentError,
    BadArcLengthsError,
    BadBetaError,
    BadDimsError,
    BadParamsError,
    BadTargetDimError,
    EmptySketchError,
    InternalError,
    NotNormalizedError,
    ParseError,
    RankDeficientKError,
    ShapeError,
    SrskitError,
    TooManySamplesError,
    ZeroColumnError,
    ZeroMatrixError,
)
from .io import (
    load_csv,
    load_indices,
    load_labels,
    save_csv,
    save_indices,
    save_labels,
)
from .kmeans import assign_to_columns, balanced_centers_check, kmeans
from .matrix import (
    ClusterLabels,
    SketchResult,
    approximation_error,
    as_matrix,
    column_norms_ok,
    normalize_columns,
    numerical_rank,
)
from .samplers import (
    METHODS,
    SamplerSpec,
    leverage_probabilities,
    leverage_sampling,
    norm_sampling,
    ris,
    sample_columns,
    sample_gaussian_directions,
    srs_select_indices,
    srs_with_replacement,
    srs_without_replacement,
    volume_sampling,
)
from .synthgen import (
    ArcSpec,
    SubspaceSpec,
    gen_arc_clusters,
    gen_union_subspaces,
    validate_arc_spec,
    validate_subspace_spec,
)

__version__ = "0.1.0"

# every public name bound above; the submodules are attributes too, and a
# star import must not bind them (``io`` would shadow the standard library)
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
