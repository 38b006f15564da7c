"""Acceptance gate: the headline claims, each printing one PASS/FAIL line.

Every criterion regenerates its data from fixed seeds, runs the full
pipeline, and checks the stated thresholds.  The printed lines bypass
pytest's capture so the verdicts are always visible in the run log.
"""

import math
import time

import numpy as np

from srskit import (
    ArcSpec,
    EmbeddingSpec,
    SamplerSpec,
    SubspaceSpec,
    apply_embedding,
    approximation_error,
    build_embedding,
    coverage_experiment,
    empirical_sampling_probabilities,
    gen_arc_clusters,
    gen_union_subspaces,
    kmeans_balance_experiment,
    lemma2_empirical,
    lemma3_empirical,
    leverage_probabilities,
    load_csv,
    normalize_columns,
    per_cluster_means,
    per_x_summary,
    rank_curve,
    sample_columns,
    save_csv,
    srs_select_indices,
)
from srskit.cli import main as cli_main

from test_srs_properties import naive_spatial_pick


def cli_runs(tmp):
    """(argv, output paths) of a run of every CLI subcommand, in order, with
    every file under the directory ``tmp``; a later run reads the files of
    an earlier one."""
    mat, lab = tmp / "D.csv", tmp / "L.csv"
    smat, slab = tmp / "S.csv", tmp / "SL.csv"
    idx, cols, ev = tmp / "i.csv", tmp / "c.csv", tmp / "ev.csv"
    rep, svg = tmp / "rep.csv", tmp / "rep.svg"
    runs = [
        (["gen", "arcs", "--tau1", 1.2, "--tau2", 0.6, "--n1", 60, "--n2", 40,
          "--seed", 3, "--out-matrix", mat, "--out-labels", lab], [mat, lab]),
        (["gen", "subspaces", "--ambient", 8, "--dims", "2,2",
          "--pops", "10,10", "--seed", 4, "--out-matrix", smat,
          "--out-labels", slab], [smat, slab]),
    ]
    # the baselines and an embedded srs sketch, on the subspaces; srs last,
    # as the runs after it read its indices
    for extra in (["--method", "leverage"], ["--method", "volume"],
                  ["--method", "norm"],
                  ["--method", "srs", "--embed", "sparse", "--embed-dim", 4,
                   "--embed-seed", 12]):
        runs.append((["sketch", "--matrix", smat, *extra, "--n", 6, "--seed", 13,
                      "--out-indices", idx, "--out-columns", cols], [idx, cols]))
    runs += [
        (["sketch", "--matrix", mat, "--method", "srs", "--n", 9, "--seed", 5,
          "--out-indices", idx, "--out-columns", cols], [idx, cols]),
        (["eval", "rank", "--matrix", mat, "--out", ev], [ev]),
        (["eval", "error", "--matrix", mat, "--indices", idx, "--out", ev], [ev]),
        (["eval", "coverage", "--labels", lab, "--indices", idx, "--out", ev],
         [ev]),
        (["exp", "rank-curve", "--matrix", mat, "--methods", "srs,ris",
          "--grid", "2,5,9", "--trials", 2, "--seed", 6, "--out", rep,
          "--svg", svg], [rep, svg]),
        (["exp", "coverage", "--matrix", mat, "--labels", lab,
          "--methods", "srs,ris", "--n", 8, "--trials", 2, "--seed", 7,
          "--out", rep, "--svg", svg], [rep, svg]),
        (["exp", "probability", "--matrix", mat, "--labels", lab,
          "--draws", 500, "--seed", 8, "--estimator", "both", "--out", rep],
         [rep]),
        (["exp", "bounds", "--which", "lemma3", "--m", 2, "--delta", 0.1,
          "--empirical", "--tau1", 1.2, "--tau2", 0.6, "--arc-n1", 60,
          "--arc-n2", 40, "--data-seed", 9, "--trials", 20, "--seed", 10,
          "--out", rep], [rep]),
        (["exp", "kmeans", "--matrix", mat, "--labels", lab, "--k", 2,
          "--sketch-n", 10, "--seeds", 2, "--seed", 11, "--restarts", 3,
          "--out", rep], [rep]),
    ]
    return [([str(a) for a in argv], outputs) for argv, outputs in runs]


def verdict(capsys, num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_spatial_probability(capsys):
    t0 = time.perf_counter()
    D, labels = gen_arc_clusters(
        ArcSpec(tau1=math.pi / 2, tau2=math.pi / 4, n1=1000, n2=1000, seed=7)
    )
    freq = empirical_sampling_probabilities(
        D, labels, 10_000, np.random.default_rng(101)
    )
    dt = time.perf_counter() - t0
    ok = abs(freq[0] - 0.625) <= 0.02 and dt < 5.0
    verdict(capsys, 1, "spatial sampling probability",
            ok, f"freq={freq[0]:.4f} target 0.625+-0.02, {dt:.1f}s")


def test_criterion_2_rank_vs_samples(capsys):
    t0 = time.perf_counter()
    spec = SubspaceSpec.homogeneous(
        ambient=100, total_rank=100, n_subspaces=50,
        populations=(20,) * 25 + (500,) * 25, seed=202,
    )
    D, _ = gen_union_subspaces(spec)
    srs_rep = rank_curve(D, SamplerSpec(method="srs", n=1), [400],
                         trials=10, master_seed=203)
    ris_rep = rank_curve(D, SamplerSpec(method="ris", n=1), [400, 1500],
                         trials=10, master_seed=203)
    srs_400 = per_x_summary(srs_rep, "srs")[400][0]
    ris_400 = per_x_summary(ris_rep, "ris")[400][0]
    ris_1500 = per_x_summary(ris_rep, "ris")[1500][0]
    dt = time.perf_counter() - t0
    ok = srs_400 >= 100.0 and ris_400 < 100.0 and ris_1500 < 100.0 and dt < 120
    verdict(capsys, 2, "rank capture",
            ok,
            f"median rank srs@400={srs_400:.0f} (need 100), "
            f"ris@400={ris_400:.0f} ris@1500={ris_1500:.0f} (need <100), "
            f"{dt:.1f}s")


def test_criterion_3_balanced_coverage(capsys):
    t0 = time.perf_counter()
    spec = SubspaceSpec(
        ambient=10, dims=(2,) * 20,
        populations=(30,) * 10 + (700,) * 10, seed=303,
    )
    D, labels = gen_union_subspaces(spec)
    rep = coverage_experiment(
        D, labels,
        [SamplerSpec(method="srs", n=1), SamplerSpec(method="ris", n=1)],
        n=400, trials=100, master_seed=304,
    )
    srs_means = per_cluster_means(rep, "srs", 20)
    ris_means = per_cluster_means(rep, "ris", 20)
    dt = time.perf_counter() - t0
    ok = srs_means.min() >= 8.0 and ris_means[:10].max() <= 4.0 and dt < 120
    verdict(capsys, 3, "balanced coverage at N1=10",
            ok,
            f"srs min cluster mean={srs_means.min():.2f} (need >=8), "
            f"ris small-cluster mean max={ris_means[:10].max():.2f} "
            f"(need <=4), {dt:.1f}s")


def test_criterion_4_dimension_seeking(capsys):
    t0 = time.perf_counter()
    spec = SubspaceSpec(
        ambient=100, dims=(2,) * 10 + (4,) * 10,
        populations=(3200,) * 10 + (80,) * 10, seed=404,
    )
    D, labels = gen_union_subspaces(spec)
    specs = [SamplerSpec(method="srs", n=1), SamplerSpec(method="ris", n=1)]
    raw = coverage_experiment(D, labels, specs, n=300, trials=20,
                              master_seed=405)
    S = build_embedding(EmbeddingSpec(kind="rademacher", p=20, seed=406), 100)
    E = normalize_columns(apply_embedding(S, D))
    emb = coverage_experiment(E, labels, specs, n=300, trials=20,
                              master_seed=407)

    def split_means(rep, method):
        m = per_cluster_means(rep, method, 20)
        return m[:10].mean(), m[10:].mean()

    srs_low_raw, srs_high_raw = split_means(raw, "srs")
    srs_low_emb, srs_high_emb = split_means(emb, "srs")
    ris_low_raw, ris_high_raw = split_means(raw, "ris")
    ris_low_emb, ris_high_emb = split_means(emb, "ris")
    dt = time.perf_counter() - t0
    ok = (srs_high_raw > srs_low_raw and srs_high_emb > srs_low_emb
          and ris_high_raw < ris_low_raw and ris_high_emb < ris_low_emb
          and dt < 180)
    verdict(capsys, 4, "dimension seeking",
            ok,
            f"srs 4d vs 2d raw {srs_high_raw:.1f}>{srs_low_raw:.1f}, "
            f"embedded {srs_high_emb:.1f}>{srs_low_emb:.1f}; "
            f"ris raw {ris_high_raw:.1f}<{ris_low_raw:.1f}, {dt:.1f}s")


def test_criterion_5_kmeans_balance(capsys):
    t0 = time.perf_counter()
    D, labels = gen_arc_clusters(
        ArcSpec(tau1=1.0, tau2=1.0, n1=5000, n2=50, seed=505)
    )
    rep = kmeans_balance_experiment(D, labels, k=2, sketch_n=200, seeds=50,
                                    master_seed=506)
    full = np.array([v for _, m, _, _, v in rep.rows if m == "full"])
    sk = np.array([v for _, m, _, _, v in rep.rows if m == "srs_sketch"])
    fail_full = 1.0 - full.mean()
    pass_sketch = sk.mean()
    dt = time.perf_counter() - t0
    ok = fail_full >= 0.9 and pass_sketch >= 0.9
    verdict(capsys, 5, "k-means balance via sketch",
            ok,
            f"full-data failure rate={fail_full:.2f} (need >=0.9), "
            f"sketch pass rate={pass_sketch:.2f} (need >=0.9), {dt:.1f}s")


def test_criterion_6_lemma_bounds_empirical(capsys):
    t0 = time.perf_counter()
    arc = ArcSpec(tau1=math.pi / 2, tau2=math.pi / 4, n1=1900, n2=100,
                  seed=606)
    rate3 = lemma3_empirical(arc, m=5, delta=0.1, trials=500, master_seed=607)
    rate2 = lemma2_empirical(arc, m=5, delta=0.1, trials=500, master_seed=608)
    dt = time.perf_counter() - t0
    need = 1.0 - 0.1 - 0.02
    ok = rate3 >= need and rate2 >= need
    verdict(capsys, 6, "lemma bound sufficiency",
            ok,
            f"success at bound: spatial={rate3:.3f} uniform={rate2:.3f} "
            f"(need >={need}), {dt:.1f}s")


def test_criterion_7_property_suite(capsys, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(700)
    checks = []

    # distinctness without replacement
    X = normalize_columns(rng.standard_normal((6, 30)))
    for method in ("srs", "ris", "volume"):
        r = sample_columns(X, SamplerSpec(method=method, n=12, seed=701))
        checks.append(np.unique(r.indices).size == 12)

    # argmax tie -> lowest index
    tie = srs_select_indices(
        np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0]])
    )
    checks.append(list(tie) == [0])

    # sign invariance
    phi = rng.standard_normal((8, 6))
    checks.append(
        (srs_select_indices(X, phi) == srs_select_indices(X, -phi)).all()
    )

    # span invariance: projecting directions onto the data span
    basis = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    Xr = normalize_columns(basis @ rng.standard_normal((3, 20)))
    proj = phi @ (basis @ basis.T)
    checks.append(
        (srs_select_indices(Xr, phi) == srs_select_indices(Xr, proj)).all()
    )

    # brute-force oracle on 100 small instances
    orng = np.random.default_rng(702)
    oracle_ok = True
    for _ in range(100):
        n1 = int(orng.integers(2, 7))
        n2 = int(orng.integers(1, 9))
        Xi = normalize_columns(orng.standard_normal((n1, n2)))
        phi_i = orng.standard_normal((int(orng.integers(1, n2 + 1)), n1))
        oracle_ok &= list(srs_select_indices(Xi, phi_i)) == naive_spatial_pick(
            Xi, phi_i
        )
    checks.append(oracle_ok)

    # nested monotonicity of the projection error
    D = rng.standard_normal((7, 25))
    perm = rng.permutation(25)
    errs = [approximation_error(D, D[:, perm[:k]]) for k in (2, 6, 12, 20)]
    checks.append(all(a >= b - 1e-10 for a, b in zip(errs, errs[1:])))

    # leverage probabilities sum to one
    checks.append(
        abs(leverage_probabilities(rng.standard_normal((5, 40))).sum() - 1.0)
        < 1e-10
    )

    # CSV round trip is bitwise
    M = rng.standard_normal((4, 3)) * math.e
    p1 = tmp_path / "rt.csv"
    save_csv(M, p1)
    checks.append((load_csv(p1) == M).all())

    # same-seed bitwise reruns of every CLI subcommand
    def run_twice(argv, outputs):
        blobs = []
        for _ in range(2):
            assert cli_main(argv) == 0
            blobs.append(tuple(p.read_bytes() for p in outputs))
        return blobs[0] == blobs[1]

    checks += [run_twice(argv, outputs) for argv, outputs in cli_runs(tmp_path)]

    dt = time.perf_counter() - t0
    ok = all(checks)
    verdict(capsys, 7, "property suite",
            ok, f"{sum(bool(c) for c in checks)}/{len(checks)} properties, "
                f"{dt:.1f}s")


def test_criterion_8_two_subspace_band(capsys):
    t0 = time.perf_counter()
    spec = SubspaceSpec(ambient=20, dims=(2, 2), populations=(50, 5000),
                        seed=808)
    D, labels = gen_union_subspaces(spec)
    freq = empirical_sampling_probabilities(
        D, labels, 5000, np.random.default_rng(809)
    )
    dt = time.perf_counter() - t0
    ok = 0.4 <= freq[0] <= 0.6
    verdict(capsys, 8, "minority subspace frequency",
            ok, f"minority freq={freq[0]:.3f} target [0.4, 0.6], {dt:.1f}s")
