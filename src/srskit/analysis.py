"""Experiment drivers and bound calculators.

Drivers produce an :class:`ExperimentReport`, a flat table of
``(trial, method, x, cluster, value)`` rows that serializes to CSV.
Every driver derives the generator for trial ``t`` as
``default_rng(master_seed + t)``, so trials are independent,
order-insensitive, and bitwise reproducible.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from ._kernels import exact_abs_dots, pick_argmax
from .errors import BadArcLengthsError, BadBetaError, BadParamsError, ParseError
from .io import comment_block, numbered_lines
from .kmeans import balanced_centers_check, kmeans
from .matrix import (
    ClusterLabels,
    as_matrix,
    check_unit_columns,
    normalize_columns,
    numerical_rank,
)
from .samplers import (
    SamplerSpec,
    abs_projection_blocks,
    ris,
    sample_columns,
    srs_with_replacement,
)
from .synthgen import ArcSpec, gen_arc_clusters

REPORT_HEADER = ("trial", "method", "x", "cluster", "value")


@dataclass(frozen=True)
class ExperimentReport:
    """Rectangular result table plus a config echo."""

    rows: tuple
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path, comment: str | None = None) -> None:
        """Write the table to a path or file-like object."""
        if hasattr(path, "write"):
            self._write(path, comment)
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                self._write(fh, comment)

    def _write(self, fh, comment):
        fh.write(comment_block(comment))
        for key in sorted(self.metadata):
            fh.write(f"# {key}={self.metadata[key]}\n")
        fh.write(",".join(REPORT_HEADER) + "\n")
        for trial, method, x, cluster, value in self.rows:
            cl = "" if cluster is None else str(int(cluster))
            fh.write(
                f"{int(trial)},{method},{_fmt_num(x)},{cl},{repr(float(value))}\n"
            )


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


def estimate_region_areas(
    X: np.ndarray,
    labels: ClusterLabels,
    T: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte-Carlo fractions of the sphere where each cluster dominates.

    Draws T random directions and assigns each to the cluster whose
    columns reach the largest absolute inner product with it (the exact
    score of ``srs_select_indices``); ties go to the lowest cluster id.
    The returned fractions sum to 1.
    """
    X = as_matrix(X)
    check_unit_columns(X)
    if T < 1:
        raise ValueError("T must be >= 1")
    if len(labels) != X.shape[1]:
        raise ValueError("labels length must match column count")
    s = labels.n_clusters
    # the screen sees the columns in cluster order, so the first of tied
    # columns belongs to the lowest cluster id
    order = np.argsort(labels.values, kind="stable")
    owner = labels.values[order]
    counts = np.zeros(s, dtype=np.int64)
    # directions are drawn block by block, in order, from rng
    blocks = abs_projection_blocks(
        X[:, order], T, lambda a, b: rng.standard_normal((b - a, X.shape[0]))
    )
    for _, _, phi, A, tol in blocks:
        pos = pick_argmax(A, tol, lambda r, c: exact_abs_dots(phi, X, r, order[c]))
        counts += np.bincount(owner[pos], minlength=s)
    return counts / T


def empirical_sampling_probabilities(
    X: np.ndarray,
    labels: ClusterLabels,
    T: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-cluster frequency over T spatial draws with replacement."""
    X = as_matrix(X)
    if len(labels) != X.shape[1]:
        raise ValueError("labels length must match column count")
    result = srs_with_replacement(X, T, rng)
    picked = labels.values[result.indices]
    return np.bincount(picked, minlength=labels.n_clusters) / T


# ---------------------------------------------------------------------------
# experiment drivers


def rank_curve(
    D: np.ndarray,
    spec: SamplerSpec,
    n_grid,
    trials: int,
    master_seed: int,
    rel_tol: float = 1e-8,
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
    M = normalize_columns(D) if spec.method.startswith("srs") else D
    widest = dataclasses.replace(spec, n=max(n_grid))
    rows = []
    for t in range(trials):
        rng = np.random.default_rng(master_seed + t)
        result = sample_columns(M, widest, rng)
        for n in n_grid:
            rank = numerical_rank(M[:, result.indices[:n]], rel_tol)
            rows.append((t, spec.method, n, None, float(rank)))
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
    s = labels.n_clusters
    normalized = None
    rows = []
    for spec in specs:
        spec = dataclasses.replace(spec, n=n)
        if spec.method.startswith("srs"):
            if normalized is None:
                normalized = normalize_columns(D)
            M = normalized
        else:
            M = D
        for t in range(trials):
            rng = np.random.default_rng(master_seed + t)
            result = sample_columns(M, spec, rng)
            counts = np.bincount(labels.values[result.indices], minlength=s)
            for cl in range(s):
                rows.append((t, spec.method, n, cl, float(counts[cl])))
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
    X = normalize_columns(D)
    rows = []
    for t in range(seeds):
        rng = np.random.default_rng(master_seed + t)
        centers = kmeans(D, k, rng, max_iters=max_iters, restarts=restarts)
        ok_full = balanced_centers_check(centers, D, labels)
        sketch = sample_columns(
            X, SamplerSpec(method="srs", n=sketch_n), rng
        )
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


def min_beta(m: int, delta: float) -> float:
    """Smallest beta the two-cluster bounds are stated for."""
    if m < 1 or not 0.0 < delta < 1.0:
        raise BadParamsError("need m >= 1 and 0 < delta < 1")
    return 2.0 + (3.0 / m) * math.log(4.0 / delta)


def _resolve_beta(p: BoundParams) -> float:
    floor = min_beta(p.m, p.delta)
    if p.beta is None:
        return floor
    if p.beta < floor - 1e-12:
        raise BadBetaError(f"beta={p.beta:.6g} below minimum {floor:.6g}")
    return p.beta


def lemma2_bound(p: BoundParams) -> float:
    """Draws sufficient for m-per-cluster coverage by uniform indexing."""
    if p.n2 is None or p.min_population is None:
        raise BadParamsError("lemma2_bound needs n2 and min_population")
    if not 1 <= p.min_population <= p.n2:
        raise BadParamsError("need 1 <= min_population <= n2")
    beta = _resolve_beta(p)
    return beta * p.m * p.n2 / p.min_population


def lemma3_bound(p: BoundParams) -> float:
    """Draws sufficient for m-per-cluster coverage by spatial sampling."""
    if p.tau1 is None or p.tau2 is None:
        raise BadParamsError("lemma3_bound needs tau1 and tau2")
    if p.tau1 <= 0 or p.tau2 <= 0 or p.tau1 + p.tau2 >= math.pi:
        raise BadArcLengthsError("need tau1, tau2 > 0 with tau1 + tau2 < pi")
    beta = _resolve_beta(p)
    return beta * p.m * 2.0 * math.pi / (math.pi - abs(p.tau2 - p.tau1))


def lemma4_bound(p: BoundParams) -> float:
    """Draws sufficient for the sketch to span the full column space."""
    if p.r is None or p.s is None or not p.populations or p.min_p is None:
        raise BadParamsError("lemma4_bound needs r, s, populations, min_p")
    if p.r < 1 or p.s < 1 or p.c <= 0 or not 0.0 < p.delta < 1.0:
        raise BadParamsError("need r, s >= 1, c > 0, 0 < delta < 1")
    if p.min_p <= 0:
        raise BadParamsError("min_p must be positive")
    if any(pop < 1 for pop in p.populations):
        raise BadParamsError("populations must be >= 1")
    log_2r = math.log(2.0 * p.r / p.delta)
    d = p.r / p.s
    xi_min = 10.0 * p.c * max(d, math.log(min(p.populations))) * log_2r
    xi_max = 10.0 * p.c * max(d, math.log(max(p.populations))) * log_2r
    return (1.0 / p.min_p) * xi_max * (
        2.0 + (3.0 / xi_min) * math.log(2.0 * p.s / p.delta)
    )


def lemma2_empirical(
    arc_spec: ArcSpec,
    m: int,
    delta: float,
    trials: int,
    master_seed: int,
    beta: float | None = None,
) -> float:
    """Fraction of trials where uniform draws at the bound reach m per cluster."""
    D, labels = gen_arc_clusters(arc_spec)
    params = BoundParams(
        m=m,
        delta=delta,
        beta=beta,
        n2=arc_spec.n1 + arc_spec.n2,
        min_population=min(arc_spec.n1, arc_spec.n2),
    )
    n = math.ceil(lemma2_bound(params))
    return _coverage_success_rate(
        D, labels, m, n, trials, master_seed, spatial=False
    )


def lemma3_empirical(
    arc_spec: ArcSpec,
    m: int,
    delta: float,
    trials: int,
    master_seed: int,
    beta: float | None = None,
) -> float:
    """Fraction of trials where spatial draws at the bound reach m per cluster."""
    D, labels = gen_arc_clusters(arc_spec)
    params = BoundParams(
        m=m, delta=delta, beta=beta, tau1=arc_spec.tau1, tau2=arc_spec.tau2
    )
    n = math.ceil(lemma3_bound(params))
    return _coverage_success_rate(
        D, labels, m, n, trials, master_seed, spatial=True
    )


def _coverage_success_rate(D, labels, m, n, trials, master_seed, spatial):
    # both lemmas assume sampling with replacement
    if n < 1:
        return 0.0
    successes = 0
    for t in range(trials):
        rng = np.random.default_rng(master_seed + t)
        if spatial:
            result = srs_with_replacement(D, n, rng)
        else:
            result = ris(D, n, True, rng)
        counts = np.bincount(
            labels.values[result.indices], minlength=labels.n_clusters
        )
        if counts.min() >= m:
            successes += 1
    return successes / trials
