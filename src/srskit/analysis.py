"""Experiment drivers and bound calculators.

Drivers produce an :class:`ExperimentReport`, a flat table of
``(trial, method, x, cluster, value)`` rows that serializes to CSV.
Every driver derives the generator for trial ``t`` as
``default_rng(master_seed + t)``, so trials are independent,
order-insensitive, and bitwise reproducible; the sampling drivers run
their trials through ``_trials``, which owns that rule.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .errors import BadArcLengthsError, BadBetaError, BadParamsError, ParseError
from .io import numbered_lines, write_lines
from .kmeans import balanced_centers_check, check_kmeans_args, kmeans
from .matrix import (
    DEFAULT_RANK_TOL,
    ClusterLabels,
    as_matrix,
    check_rel_tol,
    check_unit_columns,
    normalize_columns,
    numerical_rank,
)
from .samplers import (
    SamplerSpec,
    as_matrix_with_norms,
    bind,
    sample_gaussian_directions,
    sampler_input,
    srs_select_unchecked,
)
from .synthgen import ArcSpec, gen_arc_clusters

REPORT_HEADER = ("trial", "method", "x", "cluster", "value")


@dataclass(frozen=True)
class ExperimentReport:
    """Rectangular result table plus a config echo."""

    rows: tuple
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path, comment: str | None = None) -> None:
        """Write the table to a path or an open text stream.

        The ``comment`` echo comes first, then the metadata as sorted
        ``# key=value`` lines, the header and one line per row.
        """
        meta = (f"# {key}={self.metadata[key]}" for key in sorted(self.metadata))
        rows = (
            f"{int(trial)},{method},{_fmt_num(x)},"
            f"{'' if cluster is None else int(cluster)},{float(value)!r}"
            for trial, method, x, cluster, value in self.rows
        )
        header = [",".join(REPORT_HEADER)]
        write_lines(path, itertools.chain(meta, header, rows), comment)


def _fmt_num(x):
    if isinstance(x, (int, np.integer)) or float(x).is_integer():
        return str(int(x))
    return repr(float(x))


def load_report(path) -> ExperimentReport:
    rows = []
    header_seen = False
    with closing(numbered_lines(path)) as lines:
        for lineno, raw in lines:
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if not header_seen:
                if tuple(text.split(",")) != REPORT_HEADER:
                    raise ParseError(lineno, "missing report header")
                header_seen = True
                continue
            parts = text.split(",")
            if len(parts) != 5:
                raise ParseError(lineno, f"expected 5 fields, got {len(parts)}")
            trial, method, x, cluster, value = parts
            try:
                rows.append(
                    (
                        int(trial),
                        method,
                        float(x),
                        None if cluster == "" else int(cluster),
                        float(value),
                    )
                )
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
    return ExperimentReport(tuple(rows))


def report_values(
    report: ExperimentReport, method=None, x=None, cluster="any"
) -> np.ndarray:
    """Values of the rows matching the given fields."""
    out = []
    for trial, m, rx, cl, value in report.rows:
        if method is not None and m != method:
            continue
        if x is not None and rx != x:
            continue
        if cluster != "any" and cl != cluster:
            continue
        out.append(value)
    return np.array(out)


def per_x_summary(report: ExperimentReport, method: str) -> dict:
    """x -> (median, mean) of values over trials for one method."""
    xs = sorted({row[2] for row in report.rows if row[1] == method})
    out = {}
    for x in xs:
        vals = report_values(report, method=method, x=x)
        out[x] = (float(np.median(vals)), float(vals.mean()))
    return out


def per_cluster_means(
    report: ExperimentReport, method: str, n_clusters: int
) -> np.ndarray:
    """Mean value per cluster id over all trials of one method."""
    sums = np.zeros(n_clusters)
    counts = np.zeros(n_clusters, dtype=np.int64)
    for trial, m, x, cl, value in report.rows:
        if m == method and cl is not None:
            sums[cl] += value
            counts[cl] += 1
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


# ---------------------------------------------------------------------------
# region areas and sampling probabilities


def _spatial_fractions(X, labels: ClusterLabels, T: int, rng, by_cluster: bool):
    """Per-cluster fractions of T spatial draws with replacement from the
    unit columns of ``X``, holding the T x N1 direction matrix.  Tied
    columns go to the lowest column index, or with ``by_cluster`` to the
    lowest cluster id: selection then sees the columns sorted by cluster.
    """
    X = check_unit_columns(*as_matrix_with_norms(X))
    if T < 1:
        raise ValueError("T must be >= 1")
    if len(labels) != X.shape[1]:
        raise ValueError("labels length must match column count")
    if T > np.iinfo(np.intp).max:
        raise ValueError(f"n={T} is more draws than an array can hold")
    order = np.argsort(labels.values, kind="stable") if by_cluster else slice(None)
    phi = sample_gaussian_directions(T, X.shape[0], rng)
    pos = srs_select_unchecked(X[:, order], phi, with_replacement=True)
    return np.bincount(labels.values[order][pos], minlength=labels.n_clusters) / T


def estimate_region_areas(
    X: np.ndarray,
    labels: ClusterLabels,
    T: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte-Carlo fractions of the sphere where each cluster dominates.

    Draws T random directions and assigns each to the cluster whose
    columns reach the largest absolute inner product with it; ties go to
    the lowest cluster id.  This is spatial selection with replacement
    on the columns sorted by cluster.  The returned fractions sum to 1.
    """
    return _spatial_fractions(X, labels, T, rng, by_cluster=True)


def empirical_sampling_probabilities(
    X: np.ndarray,
    labels: ClusterLabels,
    T: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-cluster frequency over T spatial draws with replacement."""
    return _spatial_fractions(X, labels, T, rng, by_cluster=False)


# ---------------------------------------------------------------------------
# experiment drivers


def _trials(D, spec: SamplerSpec, trials: int, master_seed: int, prepare=True):
    """``(t, sketch)`` for t = 0..trials-1: ``spec`` run on ``D`` with
    ``default_rng(master_seed + t)``.  ``D`` goes through
    ``sampler_input`` first when ``prepare``; ``trials`` is checked before.
    The sampler is bound to its matrix once (see ``samplers.bind``), so
    its input check and, say, the leverage SVD run once per loop.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    draw = bind(sampler_input(D, spec.method) if prepare else D, spec)
    return ((t, draw(np.random.default_rng(master_seed + t))) for t in range(trials))


def rank_curve(
    D: np.ndarray,
    spec: SamplerSpec,
    n_grid,
    trials: int,
    master_seed: int,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> ExperimentReport:
    """Numerical rank of a growing sketch at each grid size.

    Within a trial the sketch is grown once to max(n_grid) and prefixes
    are evaluated, so the curve is non-decreasing for
    without-replacement methods.
    """
    D = as_matrix(D)
    n_grid = [int(n) for n in n_grid]
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be ascending and non-empty")
    if min(n_grid) < 1:
        raise ValueError("grid sizes must be >= 1")
    check_rel_tol(rel_tol)
    widest = dataclasses.replace(spec, n=max(n_grid))
    rows = [
        (t, spec.method, n, None,
         float(numerical_rank(sketch.columns[:, :n], rel_tol)))
        for t, sketch in _trials(D, widest, trials, master_seed)
        for n in n_grid
    ]
    return ExperimentReport(
        tuple(rows),
        {"experiment": "rank_curve", "seed": master_seed, "trials": trials},
    )


def coverage_experiment(
    D: np.ndarray,
    labels: ClusterLabels,
    specs,
    n: int,
    trials: int,
    master_seed: int,
) -> ExperimentReport:
    """Per-cluster sample counts for each method over repeated trials."""
    D = as_matrix(D)
    if len(labels) != D.shape[1]:
        raise ValueError("labels length must match column count")
    rows = []
    for spec in specs:
        spec = dataclasses.replace(spec, n=n)
        for t, sketch in _trials(D, spec, trials, master_seed):
            counts = np.bincount(labels.values[sketch.indices],
                                 minlength=labels.n_clusters)
            rows += [(t, spec.method, n, cl, float(c))
                     for cl, c in enumerate(counts)]
    return ExperimentReport(
        tuple(rows),
        {"experiment": "coverage", "seed": master_seed, "trials": trials, "n": n},
    )


def kmeans_balance_experiment(
    D: np.ndarray,
    labels: ClusterLabels,
    k: int,
    sketch_n: int,
    seeds: int,
    master_seed: int,
    restarts: int = 10,
    max_iters: int = 100,
) -> ExperimentReport:
    """Balanced-centers check on full data versus a spatial sketch.

    Per seed, k-means runs once on all columns and once on an n-column
    sketch sampled without replacement; value 1.0 means every
    ground-truth cluster owned a center.
    """
    D = as_matrix(D)
    if len(labels) != D.shape[1]:
        raise ValueError("labels length must match column count")
    if sketch_n < 1:
        raise ValueError("sketch_n must be >= 1")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    X = normalize_columns(D)
    # check both k-means calls (on D, then on sketch_n columns) and bind the
    # sketch before any Lloyd round
    check_kmeans_args(D.shape[1], k, restarts, max_iters)
    check_kmeans_args(sketch_n, k, restarts, max_iters)
    draw = bind(X, SamplerSpec(method="srs", n=sketch_n))
    rows = []
    for t in range(seeds):
        rng = np.random.default_rng(master_seed + t)
        centers = kmeans(D, k, rng, max_iters=max_iters, restarts=restarts)
        ok_full = balanced_centers_check(centers, D, labels)
        sketch = draw(rng)
        centers = kmeans(
            D[:, sketch.indices], k, rng, max_iters=max_iters, restarts=restarts
        )
        ok_sketch = balanced_centers_check(centers, D, labels)
        rows.append((t, "full", D.shape[1], None, float(ok_full)))
        rows.append((t, "srs_sketch", sketch_n, None, float(ok_sketch)))
    return ExperimentReport(
        tuple(rows),
        {
            "experiment": "kmeans_balance",
            "seed": master_seed,
            "seeds": seeds,
            "k": k,
            "sketch_n": sketch_n,
        },
    )


# ---------------------------------------------------------------------------
# sample-complexity bounds


@dataclass(frozen=True)
class BoundParams:
    """Inputs for the sample-complexity bound calculators.

    ``beta`` defaults to its minimal admissible value
    2 + (3/m) ln(4/delta).  Logarithms are natural throughout.
    """

    m: int
    delta: float
    beta: float | None = None
    n2: int | None = None
    min_population: int | None = None
    tau1: float | None = None
    tau2: float | None = None
    r: int | None = None
    s: int | None = None
    populations: tuple | None = None
    min_p: float | None = None
    c: float = 1.0

    def __post_init__(self):
        # written so that NaN fails; lemma4 is the bound that reads c
        if not 0 < self.c < math.inf:
            raise BadParamsError(f"c={self.c} must be finite and > 0")


def _finite(fn):
    """``fn``, raising BadParamsError where its inputs drive the result to
    inf or nan, or an integer input is too large for a float."""
    @functools.wraps(fn)
    def bound(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except OverflowError as exc:
            raise BadParamsError(f"an input is too large: {exc}") from None
        if not math.isfinite(value):
            raise BadParamsError(f"bound {value} is not finite")
        return value
    return bound


@_finite
def min_beta(m: int, delta: float) -> float:
    """Smallest beta the two-cluster bounds are stated for."""
    if m < 1 or not 0.0 < delta < 1.0:
        raise BadParamsError("need m >= 1 and 0 < delta < 1")
    return 2.0 + (3.0 / m) * math.log(4.0 / delta)


def _resolve_beta(p: BoundParams) -> float:
    floor = min_beta(p.m, p.delta)
    if p.beta is None:
        return floor
    if not math.isfinite(p.beta):
        raise BadBetaError(f"beta={p.beta} is not finite")
    if p.beta < floor - 1e-12:
        raise BadBetaError(f"beta={p.beta:.6g} below minimum {floor:.6g}")
    return p.beta


@_finite
def lemma2_bound(p: BoundParams) -> float:
    """Draws sufficient for m-per-cluster coverage by uniform indexing."""
    if p.n2 is None or p.min_population is None:
        raise BadParamsError("lemma2_bound needs n2 and min_population")
    if not 1 <= p.min_population <= p.n2:
        raise BadParamsError("need 1 <= min_population <= n2")
    beta = _resolve_beta(p)
    return beta * p.m * p.n2 / p.min_population


@_finite
def lemma3_bound(p: BoundParams) -> float:
    """Draws sufficient for m-per-cluster coverage by spatial sampling."""
    if p.tau1 is None or p.tau2 is None:
        raise BadParamsError("lemma3_bound needs tau1 and tau2")
    # range checks here and in lemma4_bound are written so that NaN fails
    if not (p.tau1 > 0 and p.tau2 > 0 and p.tau1 + p.tau2 < math.pi):
        raise BadArcLengthsError("need tau1, tau2 > 0 with tau1 + tau2 < pi")
    beta = _resolve_beta(p)
    return beta * p.m * 2.0 * math.pi / (math.pi - abs(p.tau2 - p.tau1))


@_finite
def lemma4_bound(p: BoundParams) -> float:
    """Draws sufficient for the sketch to span the full column space."""
    if p.r is None or p.s is None or not p.populations or p.min_p is None:
        raise BadParamsError("lemma4_bound needs r, s, populations, min_p")
    if p.r < 1 or p.s < 1 or not 0.0 < p.delta < 1.0:
        raise BadParamsError("need r, s >= 1, 0 < delta < 1")
    if not 0 < p.min_p <= 1:
        raise BadParamsError("min_p must be in (0, 1]")
    if any(pop < 1 for pop in p.populations):
        raise BadParamsError("populations must be >= 1")
    log_2r = math.log(2.0 * p.r / p.delta)
    d = p.r / p.s
    xi_min = 10.0 * p.c * max(d, math.log(min(p.populations))) * log_2r
    xi_max = 10.0 * p.c * max(d, math.log(max(p.populations))) * log_2r
    return (1.0 / p.min_p) * xi_max * (
        2.0 + (3.0 / xi_min) * math.log(2.0 * p.s / p.delta)
    )


def lemma_empirical(which: str, arc_spec: ArcSpec, m: int, delta: float,
                    trials: int, master_seed: int, beta: float | None = None):
    """The bound of lemma ``which`` on arc data, and the fraction of
    trials in which that many draws reach m columns in every cluster.

    The arcs fix the lemma's other inputs: the populations for lemma2,
    the arc lengths for lemma3.  Both lemmas draw with replacement,
    uniformly over the indices (lemma2) or spatially (lemma3).
    """
    if which == "lemma2":
        pops = (arc_spec.n1, arc_spec.n2)
        params = BoundParams(m, delta, beta, n2=sum(pops), min_population=min(pops))
        bound, method = lemma2_bound(params), "ris_repl"
    elif which == "lemma3":
        params = BoundParams(m, delta, beta, tau1=arc_spec.tau1, tau2=arc_spec.tau2)
        bound, method = lemma3_bound(params), "srs_repl"
    else:
        raise ValueError(f"unknown lemma {which!r}")
    D, labels = gen_arc_clusters(arc_spec)
    spec = SamplerSpec(method, math.ceil(bound))
    # the arcs are sampled as generated, unit up to rounding: normalizing
    # them again would change their bits, and so could change a near-tie
    hits = sum(
        int(np.bincount(labels.values[sketch.indices],
                        minlength=labels.n_clusters).min() >= m)
        for _, sketch in _trials(D, spec, trials, master_seed, prepare=False)
    )
    return bound, hits / trials


def lemma2_empirical(arc_spec, m, delta, trials, master_seed, beta=None) -> float:
    """Fraction of trials where uniform draws at the bound reach m per cluster."""
    return lemma_empirical("lemma2", arc_spec, m, delta, trials, master_seed, beta)[1]


def lemma3_empirical(arc_spec, m, delta, trials, master_seed, beta=None) -> float:
    """Fraction of trials where spatial draws at the bound reach m per cluster."""
    return lemma_empirical("lemma3", arc_spec, m, delta, trials, master_seed, beta)[1]
