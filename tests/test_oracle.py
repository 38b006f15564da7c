"""An exact oracle for spatial sampling in two and three dimensions.

A direction at angle psi picks the column whose angle is nearest psi
modulo pi.  So on the projective circle (angles modulo pi) each column
owns half of the gap to each of its neighbours, and a uniform direction
picks it with probability that arc over pi.  On the sphere S^2 a
direction picks the column x_j for which +x_j or -x_j is the nearest of
all the +-x_k: the spherical Voronoi cells of +x_j and -x_j, over 4 pi.
These tests hold the samplers and estimators to those exact
probabilities of the given data, which the asymptotic arc formula only
approaches.  The bounds are |z| <= 5 per cluster and the 1e-6 upper
quantile of chi^2, not fitted to these seeds.
"""

import math

import numpy as np
import pytest

from srskit import (
    ArcSpec,
    ClusterLabels,
    empirical_sampling_probabilities,
    estimate_region_areas,
    gen_arc_clusters,
    load_csv,
    load_labels,
    load_report,
    normalize_columns,
    srs_select_indices,
    srs_with_replacement,
)
from srskit.cli import main

T = 200_000
Z_MAX = 5.0

ARC_SETS = [
    ArcSpec(tau1=1.2, tau2=0.6, n1=20, n2=20, seed=31),
    ArcSpec(tau1=1.0, tau2=1.0, n1=200, n2=200, seed=32),
    ArcSpec(tau1=math.pi / 2, tau2=math.pi / 4, n1=950, n2=50, seed=33),
    ArcSpec(tau1=1.2, tau2=0.6, n1=5000, n2=50, seed=34),
]
ARC_IDS = ["20+20", "200+200", "950+50", "5000+50"]


def exact_shares(X):
    """Probability that a uniform direction picks each column of 2-D ``X``."""
    theta = np.arctan2(X[1], X[0]) % np.pi
    order = np.argsort(theta, kind="stable")
    # gaps[i]: from the i-th column in angle order to the next, around the circle
    gaps = np.diff(theta[order], append=theta[order[0]] + np.pi)
    share = np.empty_like(theta)
    share[order] = (gaps + np.roll(gaps, 1)) / (2 * np.pi)
    return share


def cluster_shares(X, labels):
    share = exact_shares(X) if X.shape[0] == 2 else sphere_shares(X)
    return np.bincount(labels.values, weights=share, minlength=labels.n_clusters)


def z_scores(freq, p, draws):
    return (freq - p) / np.sqrt(p * (1 - p) / draws)


def test_exact_shares_sum_to_one_and_follow_the_gaps():
    # columns at 0, pi/4 and 3pi/4 (the last given as its antipode):
    # gaps of pi/4, pi/2 and pi/4 around the projective circle
    angles = np.array([0.0, math.pi / 4, 3 * math.pi / 4 - math.pi])
    share = exact_shares(np.vstack([np.cos(angles), np.sin(angles)]))
    assert np.allclose(share, [0.25, 0.375, 0.375])
    assert math.isclose(share.sum(), 1.0)


@pytest.mark.parametrize("arc", ARC_SETS, ids=ARC_IDS)
@pytest.mark.parametrize("estimate", [estimate_region_areas,
                                      empirical_sampling_probabilities])
def test_estimators_match_exact_cluster_shares(arc, estimate):
    D, labels = gen_arc_clusters(arc)
    X = normalize_columns(D)
    freq = estimate(X, labels, T, np.random.default_rng(arc.seed + 100))
    z = z_scores(freq, cluster_shares(X, labels), T)
    assert np.abs(z).max() <= Z_MAX, z


def test_cli_probability_both_matches_exact_cluster_shares(tmp_path):
    mat, lab, out = tmp_path / "D.csv", tmp_path / "L.csv", tmp_path / "p.csv"
    assert main(["gen", "arcs", "--tau1", "1.2", "--tau2", "0.6",
                 "--n1", "300", "--n2", "40", "--seed", "35",
                 "--out-matrix", str(mat), "--out-labels", str(lab)]) == 0
    assert main(["exp", "probability", "--matrix", str(mat),
                 "--labels", str(lab), "--draws", str(T), "--seed", "36",
                 "--estimator", "both", "--out", str(out)]) == 0
    labels = load_labels(lab)
    p = cluster_shares(normalize_columns(load_csv(mat)), labels)
    report = load_report(out)
    for method in ("srs_repl", "directions"):
        freq = np.zeros(labels.n_clusters)
        for _, m, _, cl, value in report.rows:
            if m == method:
                freq[cl] = value
        z = z_scores(freq, p, T)
        assert np.abs(z).max() <= Z_MAX, (method, z)


def test_srs_repl_column_frequencies_chi_square():
    stats = pytest.importorskip("scipy.stats")
    D, _ = gen_arc_clusters(ARC_SETS[0])
    X = normalize_columns(D)
    expected = T * exact_shares(X)
    # the chi^2 approximation needs every expected count well above a few
    assert expected.min() >= 5
    picks = srs_with_replacement(X, T, np.random.default_rng(37)).indices
    counts = np.bincount(picks, minlength=X.shape[1])
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.isf(1e-6, X.shape[1] - 1)


@pytest.mark.parametrize("arc", ARC_SETS, ids=ARC_IDS)
def test_asymptotic_formula_within_largest_gap_of_exact(arc):
    # Cluster 0 owns (pi + tau1 - tau2) / (2 pi) of the sphere when its
    # points fill the arcs.  Finite points leave a gap at each arc end,
    # and each cluster boundary moves by at most half the two gaps it
    # sits between: so with the arc ends counted as fence posts, the
    # exact share is within the largest gap over pi of the formula.
    D, labels = gen_arc_clusters(arc)
    theta = np.arctan2(D[1], D[0])
    largest = 0.0
    for c, (center, tau) in enumerate([(arc.center1, arc.tau1),
                                       (arc.center2, arc.tau2)]):
        rel = np.sort((theta[labels.values == c] - center + np.pi)
                      % (2 * np.pi) - np.pi)
        posts = np.concatenate([[-tau / 2], rel, [tau / 2]])
        largest = max(largest, np.diff(posts).max())
    formula = (math.pi + arc.tau1 - arc.tau2) / (2 * math.pi)
    assert abs(formula - cluster_shares(D, labels)[0]) <= largest / math.pi


def sphere_shares(X):
    """Probability that a uniform direction picks each column of unit 3-D
    ``X``: the areas of the Voronoi cells of +x_j and -x_j over 4 pi."""
    spatial = pytest.importorskip("scipy.spatial")
    n = X.shape[1]
    areas = spatial.SphericalVoronoi(np.hstack([X, -X]).T).calculate_areas()
    return (areas[:n] + areas[n:]) / (4 * math.pi)


def sphere_clusters(rng, dense=24, sparse=6):
    """``dense`` unit columns close about one direction and ``sparse``
    spread about another 45 degrees off it, and their cluster ids."""
    c0, c1 = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    X = np.hstack([c0[:, None] + 0.08 * rng.standard_normal((3, dense)),
                   c1[:, None] + 0.4 * rng.standard_normal((3, sparse))])
    return normalize_columns(X), np.repeat([0, 1], [dense, sparse])


SPHERE_SETS = {
    "7-random": (41, lambda rng: (normalize_columns(rng.standard_normal((3, 7))), None)),
    "30-random": (42, lambda rng: (normalize_columns(rng.standard_normal((3, 30))), None)),
    "24-dense+6-sparse": (43, sphere_clusters),
}


@pytest.mark.parametrize("name", SPHERE_SETS)
def test_srs_repl_column_frequencies_match_spherical_voronoi_areas(name):
    stats = pytest.importorskip("scipy.stats")
    seed, make = SPHERE_SETS[name]
    X, labels = make(np.random.default_rng(seed))
    share = sphere_shares(X)
    assert math.isclose(share.sum(), 1.0, rel_tol=1e-12)
    expected = T * share
    # the chi^2 approximation needs every expected count well above a few
    assert expected.min() >= 5
    picks = srs_with_replacement(X, T, np.random.default_rng(seed + 100)).indices
    counts = np.bincount(picks, minlength=X.shape[1])
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.isf(1e-6, X.shape[1] - 1)
    if labels is not None:
        # the paper's claim: a cluster is drawn by the area it covers, not
        # by the columns it holds; here the two differ by far
        area = np.bincount(labels, weights=share)
        population = np.bincount(labels) / labels.size
        assert population[0] > 2 * area[0] and area[1] > 2 * population[1]
        freq = np.bincount(labels[picks], minlength=2) / T
        assert np.abs(z_scores(freq, area, T)).max() <= Z_MAX


@pytest.mark.parametrize("name", SPHERE_SETS)
@pytest.mark.parametrize("estimate", [estimate_region_areas,
                                      empirical_sampling_probabilities])
def test_estimators_match_exact_cluster_shares_on_the_sphere(name, estimate):
    seed, make = SPHERE_SETS[name]
    X, ids = make(np.random.default_rng(seed))
    if ids is None:  # three clusters of columns spread at random
        ids = np.arange(X.shape[1]) % 3
    labels = ClusterLabels(ids, int(ids.max()) + 1)
    freq = estimate(X, labels, T, np.random.default_rng(seed + 200))
    z = z_scores(freq, cluster_shares(X, labels), T)
    assert np.abs(z).max() <= Z_MAX, z


def chi_square(counts, p):
    return float(((counts - counts.sum() * p) ** 2 / (counts.sum() * p)).sum())


def test_srs_first_and_second_picks_match_spherical_voronoi_areas():
    # without replacement the first pick follows the shares of all the
    # columns, and the second, given the first, the shares of those left
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(44)
    X = normalize_columns(rng.standard_normal((3, 7)))
    draws = 8_000
    pairs = np.array([srs_select_indices(X, rng.standard_normal((2, 3)))
                      for _ in range(draws)])
    counts = np.bincount(pairs[:, 0], minlength=7)
    share = sphere_shares(X)
    assert draws * share.min() >= 5
    assert chi_square(counts, share) < stats.chi2.isf(1e-6, 6)
    first = counts.argmax()
    left = np.delete(np.arange(7), first)
    second = pairs[pairs[:, 0] == first, 1]
    assert not (second == first).any()
    share = sphere_shares(X[:, left])
    assert second.size * share.min() >= 5
    counts = np.bincount(np.searchsorted(left, second), minlength=6)
    assert chi_square(counts, share) < stats.chi2.isf(1e-6, 5)
