import math

import numpy as np
import pytest

from srskit import (
    ArcSpec,
    BadArcLengthsError,
    BadBetaError,
    BadParamsError,
    BoundParams,
    ClusterLabels,
    ExperimentReport,
    ParseError,
    SamplerSpec,
    SubspaceSpec,
    coverage_experiment,
    empirical_sampling_probabilities,
    estimate_region_areas,
    gen_arc_clusters,
    gen_union_subspaces,
    kmeans_balance_experiment,
    lemma2_bound,
    lemma2_empirical,
    lemma3_bound,
    lemma3_empirical,
    lemma4_bound,
    load_report,
    min_beta,
    normalize_columns,
    per_cluster_means,
    per_x_summary,
    rank_curve,
    report_values,
)
from srskit import METHODS, _parallel, samplers
from srskit.analysis import _trials, lemma_empirical
from srskit.errors import ArgumentError, TooManySamplesError, ZeroColumnError
from srskit.samplers import sample_columns, sampler_input


def arc_data(tau1, tau2, n1, n2, seed):
    return gen_arc_clusters(ArcSpec(tau1=tau1, tau2=tau2, n1=n1, n2=n2,
                                    seed=seed))


# ---------------------------------------------------------------------------
# region areas and probabilities


def test_region_areas_single_cluster():
    rng = np.random.default_rng(0)
    X = normalize_columns(rng.standard_normal((3, 10)))
    labels = ClusterLabels(np.zeros(10, dtype=int), 1)
    areas = estimate_region_areas(X, labels, 100, np.random.default_rng(1))
    assert areas.shape == (1,)
    assert areas[0] == 1.0


def test_region_areas_symmetric_arcs():
    D, labels = arc_data(1.0, 1.0, 500, 500, seed=2)
    areas = estimate_region_areas(D, labels, 10_000, np.random.default_rng(3))
    assert abs(areas[0] - 0.5) < 0.02
    assert abs(areas.sum() - 1.0) < 1e-12


def test_region_areas_asymmetric_arcs():
    D, labels = arc_data(math.pi / 2, math.pi / 4, 1000, 1000, seed=4)
    areas = estimate_region_areas(D, labels, 10_000, np.random.default_rng(5))
    assert abs(areas[0] - 0.625) < 0.02
    assert abs(areas[1] - 0.375) < 0.02


@pytest.mark.parametrize("estimate", [estimate_region_areas,
                                      empirical_sampling_probabilities])
def test_estimator_memory_does_not_grow_with_draws(estimate, traced_peak):
    # directions are drawn and counted a row group at a time, so the peak
    # is one group and O(N2 + clusters) whatever T; holding all T x N1
    # directions and T picks took 1.5 MiB at T = 20,000 and 6.1 MiB at
    # T = 200,000 on these arcs
    D, labels = arc_data(1.2, 0.6, 500, 50, seed=0)
    peaks = [traced_peak(estimate, D, labels, T, np.random.default_rng(1))[1]
             for T in (20_000, 200_000)]
    assert peaks[1] - peaks[0] < 1 << 20


def test_srs_trial_loop_copies_its_screen_once(monkeypatch):
    # the float32 screen copy of X and the tile shape are made when the
    # sampler is bound, once per trial loop, not once per draw
    rng = np.random.default_rng(18)
    X = normalize_columns(rng.standard_normal((8, 60)))
    labels = ClusterLabels(rng.integers(0, 3, 60), 3)
    copies, shapes = [], []
    map_spans, tile_shape = _parallel.map_spans, samplers._tile_shape

    def counted_map(fn, M, cols):
        # with whole rows in one tile, the copy is the one pass over a
        # float32 matrix
        if M.dtype == np.float32:
            copies.append(M.shape)
        return map_spans(fn, M, cols)

    def counted_shape(Xs, n):
        shapes.append(Xs.shape)
        return tile_shape(Xs, n)

    monkeypatch.setattr(_parallel, "map_spans", counted_map)
    monkeypatch.setattr(samplers, "_tile_shape", counted_shape)
    specs = [SamplerSpec(method=m, n=1) for m in ("srs", "srs_repl")]
    rep = coverage_experiment(X, labels, specs, n=10, trials=5, master_seed=19)
    assert len({tr for tr, *_ in rep.rows}) == 5
    assert copies == shapes == [(8, 60), (8, 60)]


def test_two_estimators_agree():
    D, labels = arc_data(math.pi / 2, math.pi / 4, 1000, 1000, seed=6)
    rng = np.random.default_rng(7)
    freq = empirical_sampling_probabilities(D, labels, 10_000, rng)
    areas = estimate_region_areas(D, labels, 10_000, rng)
    assert np.abs(freq - areas).max() <= 0.03


def test_ris_frequencies_follow_populations():
    from srskit import ris
    D, labels = arc_data(1.0, 1.0, 900, 100, seed=8)
    r = ris(D, 10_000, True, np.random.default_rng(9))
    freq = np.bincount(labels.values[r.indices], minlength=2) / 10_000
    assert abs(freq[0] - 0.9) < 0.02


# ---------------------------------------------------------------------------
# report plumbing


def sample_report():
    rows = (
        (0, "srs", 2, None, 2.0),
        (1, "srs", 2, None, 3.0),
        (0, "srs", 4, None, 4.0),
        (1, "srs", 4, None, 4.0),
        (0, "ris", 0.5, 0, 1.0),
        (0, "ris", 0.5, 1, 5.0),
    )
    return ExperimentReport(rows, {"experiment": "demo", "seed": 1})


def test_report_csv_round_trip(tmp_path):
    rep = sample_report()
    path = tmp_path / "r.csv"
    rep.to_csv(path, comment="cfg line")
    text = path.read_text()
    assert text.startswith("# cfg line\n")
    assert "trial,method,x,cluster,value" in text
    back = load_report(path)
    assert len(back.rows) == len(rep.rows)
    assert back.rows[0] == (0, "srs", 2.0, None, 2.0)
    assert back.rows[4] == (0, "ris", 0.5, 0, 1.0)


def test_report_filters_and_summaries():
    rep = sample_report()
    assert list(report_values(rep, method="srs", x=2)) == [2.0, 3.0]
    assert list(report_values(rep, method="ris", cluster=1)) == [5.0]
    summary = per_x_summary(rep, "srs")
    assert summary[2] == (2.5, 2.5)
    assert summary[4] == (4.0, 4.0)
    means = per_cluster_means(rep, "ris", 2)
    assert list(means) == [1.0, 5.0]


# ---------------------------------------------------------------------------
# drivers


def test_rank_curve_monotone_and_small_cases():
    rng = np.random.default_rng(10)
    D = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 30))
    for method in ("srs", "ris", "volume"):
        rep = rank_curve(D, SamplerSpec(method=method, n=1), [1, 3, 6, 10],
                         trials=4, master_seed=11)
        for t in range(4):
            vals = [v for tr, m, x, c, v in rep.rows if tr == t]
            assert vals[0] == 1.0
            assert all(a <= b for a, b in zip(vals, vals[1:])), method
            assert vals[-1] <= 4.0


def test_rank_curve_single_subspace_saturates():
    spec = SubspaceSpec(ambient=10, dims=(3,), populations=(40,), seed=12)
    D, _ = gen_union_subspaces(spec)
    rep = rank_curve(D, SamplerSpec(method="ris", n=1), [3, 8, 20], trials=3,
                     master_seed=13)
    assert all(v <= 3.0 for _, _, _, _, v in rep.rows)
    finals = [v for _, _, x, _, v in rep.rows if x == 20]
    assert all(v == 3.0 for v in finals)


def test_rank_curve_grid_validation():
    D = np.eye(3)
    with pytest.raises(ValueError):
        rank_curve(D, SamplerSpec(method="ris", n=1), [4, 2], 1, 0)
    with pytest.raises(ValueError):
        rank_curve(D, SamplerSpec(method="ris", n=1), [], 1, 0)


def test_coverage_counts_sum_to_n():
    D, labels = arc_data(1.2, 0.7, 80, 40, seed=14)
    X = normalize_columns(D)
    specs = [SamplerSpec(method=m, n=1) for m in
             ("srs", "srs_repl", "ris", "ris_repl", "norm", "volume")]
    rep = coverage_experiment(X, labels, specs, n=30, trials=5,
                              master_seed=15)
    for method in ("srs", "srs_repl", "ris", "ris_repl", "norm", "volume"):
        for t in range(5):
            total = sum(v for tr, m, x, c, v in rep.rows
                        if m == method and tr == t)
            assert total == 30.0, method


def test_kmeans_balance_experiment_smoke():
    D, labels = arc_data(1.0, 1.0, 200, 15, seed=16)
    rep = kmeans_balance_experiment(D, labels, k=2, sketch_n=20, seeds=3,
                                    master_seed=17, restarts=4)
    methods = {m for _, m, _, _, _ in rep.rows}
    assert methods == {"full", "srs_sketch"}
    assert all(v in (0.0, 1.0) for _, _, _, _, v in rep.rows)
    assert len(rep.rows) == 6


# ---------------------------------------------------------------------------
# trial loops: one bind, then one draw per trial


def separate_calls(D, spec, trials, master_seed):
    M = sampler_input(D, spec.method)
    return [sample_columns(M, spec, np.random.default_rng(master_seed + t))
            for t in range(trials)]


def outcome(fn):
    """``fn()``'s error as (type, message), or None."""
    try:
        fn()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", [None, 8])
@pytest.mark.parametrize("method", METHODS)
def test_trials_equal_separate_sample_columns_calls(method, seed):
    D = np.random.default_rng(20).standard_normal((5, 40))
    spec = SamplerSpec(method=method, n=9, seed=seed)
    got = list(_trials(D, spec, 4, 31))
    want = separate_calls(D, spec, 4, 31)
    assert [t for t, _ in got] == [0, 1, 2, 3]
    for (_, a), b in zip(got, want):
        assert (a.indices == b.indices).all()
        assert (a.columns == b.columns).all()
        assert ((a.method, a.seed, a.with_replacement)
                == (b.method, b.seed, b.with_replacement))


def nan_entry():
    D = np.ones((3, 5))
    D[1, 2] = np.nan
    return D


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("D, n, k", [
    (nan_entry(), 2, None),  # a non-finite entry
    (np.eye(4), 5, None),  # more distinct draws than columns
    (np.zeros((2, 4)), 2, None),  # zero columns, a zero matrix
    (np.outer([1.0, 2.0, 3.0], np.arange(1.0, 7.0)), 2, 2),  # k above rank
], ids=["nan", "too-many", "zero", "rank"])
def test_trials_raise_what_the_first_trial_raised(method, D, n, k):
    spec = SamplerSpec(method=method, n=n, seed=1, leverage_k=k)
    want = outcome(lambda: separate_calls(D, spec, 3, 0))
    assert outcome(lambda: list(_trials(D, spec, 3, 0))) == want


def test_trials_check_trials_then_columns_then_sampler():
    D = np.eye(3)
    D[:, 1] = 0.0
    spec = SamplerSpec(method="srs", n=4, seed=0)  # also too many columns
    assert outcome(lambda: _trials(D, spec, 0, 0)) == (
        ArgumentError, "trials must be >= 1")
    assert outcome(lambda: _trials(D, spec, 1, 0))[0] is ZeroColumnError
    assert outcome(lambda: _trials(np.eye(3), spec, 1, 0))[0] is TooManySamplesError


def counted(monkeypatch, name):
    calls = []
    fn = getattr(samplers, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(samplers, name, wrapper)
    return calls


def test_kmeans_experiment_binds_its_sketch_once(monkeypatch):
    D, labels = arc_data(1.0, 1.0, 60, 15, seed=16)
    want = kmeans_balance_experiment(D, labels, k=2, sketch_n=20, seeds=3,
                                     master_seed=17, restarts=2)
    binds = counted(monkeypatch, "_bind_srs")
    got = kmeans_balance_experiment(D, labels, k=2, sketch_n=20, seeds=3,
                                    master_seed=17, restarts=2)
    assert binds == ["_bind_srs"]
    assert got == want


def test_kmeans_experiment_checks_k_means_before_the_sketch():
    D, labels = arc_data(1.0, 1.0, 10, 10, seed=16)
    with pytest.raises(TooManySamplesError, match="k=30 exceeds"):
        kmeans_balance_experiment(D, labels, k=30, sketch_n=30, seeds=2,
                                  master_seed=0)


def test_lemma_empirical_checks_its_arcs_once(monkeypatch):
    checks = counted(monkeypatch, "_checked")
    arc = ArcSpec(tau1=1.2, tau2=0.6, n1=40, n2=20, seed=3)
    lemma_empirical("lemma3", arc, 2, 0.1, trials=5, master_seed=0)
    assert checks == ["_checked"]


# ---------------------------------------------------------------------------
# bounds


def test_min_beta_and_validation():
    assert abs(min_beta(5, 0.05) - (2.0 + 0.6 * math.log(80.0))) < 1e-12
    with pytest.raises(BadParamsError):
        min_beta(0, 0.1)
    with pytest.raises(BadParamsError):
        min_beta(5, 1.5)


HUGE = 10**400  # an integer too large for a float


@pytest.mark.parametrize("bound", [
    lambda: min_beta(HUGE, 0.1),
    lambda: lemma2_bound(BoundParams(m=5, delta=0.1, n2=HUGE, min_population=10)),
    lambda: lemma3_bound(BoundParams(m=HUGE, delta=0.1, tau1=1.0, tau2=1.0)),
    lambda: lemma4_bound(BoundParams(m=1, delta=0.1, r=HUGE, s=1,
                                     populations=(5, 5), min_p=0.1)),
], ids=["min_beta-m", "lemma2-n2", "lemma3-m", "lemma4-r"])
def test_integer_too_large_for_a_float_is_bad_params(bound):
    with pytest.raises(BadParamsError, match="too large"):
        bound()


def test_lemma2_bound_frozen_value():
    p = BoundParams(m=5, delta=0.05, n2=1000, min_population=10)
    assert abs(lemma2_bound(p) - 2314.6079904021644) < 1e-9


def test_lemma2_bound_needs_populations():
    with pytest.raises(BadParamsError):
        lemma2_bound(BoundParams(m=5, delta=0.05))
    with pytest.raises(BadParamsError):
        lemma2_bound(BoundParams(m=5, delta=0.05, n2=10, min_population=20))


def test_beta_floor_enforced():
    p = BoundParams(m=5, delta=0.05, beta=2.0, n2=100, min_population=10)
    with pytest.raises(BadBetaError):
        lemma2_bound(p)


def test_lemma3_bound_equal_arcs():
    p = BoundParams(m=5, delta=0.05, tau1=1.0, tau2=1.0)
    want = min_beta(5, 0.05) * 5 * 2.0
    assert abs(lemma3_bound(p) - want) < 1e-12


def test_lemma3_bound_bad_arcs():
    with pytest.raises(BadArcLengthsError):
        lemma3_bound(BoundParams(m=5, delta=0.05, tau1=2.0, tau2=1.5))
    with pytest.raises(BadArcLengthsError):
        lemma3_bound(BoundParams(m=5, delta=0.05, tau1=-1.0, tau2=0.5))


def test_lemma4_bound_scalings():
    base = BoundParams(m=1, delta=0.1, r=100, s=50, populations=(20, 500),
                       min_p=0.02)
    v = lemma4_bound(base)
    assert v > 0
    # linear in 1/min_p
    halved = BoundParams(m=1, delta=0.1, r=100, s=50, populations=(20, 500),
                         min_p=0.01)
    assert abs(lemma4_bound(halved) - 2.0 * v) < 1e-9 * v
    # monotone in c
    scaled = BoundParams(m=1, delta=0.1, r=100, s=50, populations=(20, 500),
                         min_p=0.02, c=10.0)
    assert lemma4_bound(scaled) > v


def test_lemma4_bound_formula_oracle():
    # independent re-evaluation of the closed form
    r, s, delta, c, min_p = 100, 50, 0.1, 1.0, 0.02
    pops = (20, 500)
    log_2r = math.log(2 * r / delta)
    xi_min = 10 * c * max(r / s, math.log(min(pops))) * log_2r
    xi_max = 10 * c * max(r / s, math.log(max(pops))) * log_2r
    want = (1 / min_p) * xi_max * (2 + (3 / xi_min) * math.log(2 * s / delta))
    got = lemma4_bound(BoundParams(m=1, delta=delta, r=r, s=s,
                                   populations=pops, min_p=min_p, c=c))
    assert abs(got - want) < 1e-9


def test_lemma4_bound_validation():
    with pytest.raises(BadParamsError):
        lemma4_bound(BoundParams(m=1, delta=0.1, r=10, s=2))
    with pytest.raises(BadParamsError):
        lemma4_bound(BoundParams(m=1, delta=0.1, r=10, s=2,
                                 populations=(5, 5), min_p=0.0))


def test_lemma_empirical_quick():
    arc = ArcSpec(tau1=math.pi / 2, tau2=math.pi / 4, n1=950, n2=50, seed=20)
    rate3 = lemma3_empirical(arc, m=3, delta=0.1, trials=60, master_seed=21)
    assert rate3 >= 0.9 - 0.02
    rate2 = lemma2_empirical(arc, m=3, delta=0.1, trials=60, master_seed=22)
    assert rate2 >= 0.9 - 0.02


def test_report_undecodable_line_named(tmp_path):
    path = tmp_path / "r.csv"
    sample_report().to_csv(path, comment="cfg")
    lines = path.read_bytes().splitlines(keepends=True)
    assert lines[4] == b"0,srs,2,,2.0\n"
    lines[4] = b"0,s\xffs,2,,2.0\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(ParseError) as info:
        load_report(path)
    assert info.value.line == 5


@pytest.mark.parametrize("run", [
    lambda D, labels: rank_curve(D, SamplerSpec("srs", 1), [2, 4], 0, 0),
    lambda D, labels: coverage_experiment(
        D, labels, [SamplerSpec("ris", 1)], 3, 0, 0),
    lambda D, labels: lemma_empirical(
        "lemma3", ArcSpec(tau1=1.0, tau2=1.0, n1=10, n2=10, seed=24),
        1, 0.1, 0, 0),
], ids=["rank_curve", "coverage_experiment", "lemma_empirical"])
def test_trials_below_one_rejected(run):
    D, labels = arc_data(1.0, 1.0, 10, 10, seed=24)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run(D, labels)


@pytest.mark.parametrize("sketch_n, seeds, message", [
    (5, 0, "seeds must be >= 1"),
    (0, 2, "sketch_n must be >= 1"),
])
def test_kmeans_balance_counts_below_one_rejected(sketch_n, seeds, message):
    # with no seeds the report would have a header and no rows
    D, labels = arc_data(1.0, 1.0, 10, 10, seed=24)
    with pytest.raises(ValueError, match=message):
        kmeans_balance_experiment(D, labels, 2, sketch_n, seeds, 0)


def test_lemma_empirical_bound_and_rate():
    arc = ArcSpec(tau1=1.2, tau2=0.6, n1=300, n2=40, seed=25)
    bound, rate = lemma_empirical("lemma3", arc, 3, 0.1, 10, 26)
    assert bound == lemma3_bound(BoundParams(m=3, delta=0.1, tau1=1.2,
                                             tau2=0.6))
    assert rate == lemma3_empirical(arc, 3, 0.1, 10, 26)
    with pytest.raises(ValueError, match="unknown lemma 'lemma4'"):
        lemma_empirical("lemma4", arc, 3, 0.1, 10, 26)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1.0])
def test_rank_curve_checks_rel_tol_before_any_trial(monkeypatch, rel_tol):
    from srskit import analysis

    calls = []
    monkeypatch.setattr(analysis, "_trials", lambda *a: calls.append(a) or [])
    with pytest.raises(ValueError, match=r"^rel_tol must be finite and > 0$"):
        rank_curve(np.eye(3), SamplerSpec("srs", 1), [1, 2], 2, 0, rel_tol)
    assert calls == []


def test_kmeans_balance_labels_length_checked_before_lloyd(monkeypatch):
    from srskit import _kernels

    calls = []
    monkeypatch.setattr(_kernels, "lloyd", lambda *a: calls.append(a))
    D, labels = arc_data(1.0, 1.0, 10, 10, seed=24)
    with pytest.raises(ValueError, match="labels length must match"):
        kmeans_balance_experiment(D[:, :15], labels, 2, 5, 1, 0)
    assert calls == []


@pytest.mark.parametrize("min_p", [math.inf, 2.0, 0.0, math.nan])
def test_lemma4_bound_min_p_must_be_a_probability(min_p):
    # inf gave a bound of 0.0, and 2 one below the bound at min_p = 1
    with pytest.raises(BadParamsError, match=r"^min_p must be in \(0, 1\]$"):
        lemma4_bound(BoundParams(m=2, delta=0.1, r=2, s=2, populations=(3, 4),
                                 min_p=min_p))


def test_lemma4_bound_takes_min_p_one():
    params = BoundParams(m=2, delta=0.1, r=2, s=2, populations=(3, 4), min_p=1.0)
    half = BoundParams(m=2, delta=0.1, r=2, s=2, populations=(3, 4), min_p=0.5)
    assert lemma4_bound(half) == 2.0 * lemma4_bound(params)


def test_estimators_are_spatial_selection_with_replacement():
    from srskit import srs_with_replacement

    # column 0 (cluster 1) and column 2 (cluster 0) are one point: the
    # draws it wins go to column 0 by index, but to cluster 0 by area
    angles = np.array([0.3, 1.4, 0.3, 2.5])
    X = np.vstack([np.cos(angles), np.sin(angles)])
    labels = ClusterLabels(np.array([1, 0, 0, 1]), 2)
    T = 500
    ref = np.random.default_rng(41)
    picks = srs_with_replacement(X, T, ref).indices
    assert (picks == 0).any() and not (picks == 2).any()
    for estimate, owner in [(empirical_sampling_probabilities, labels.values),
                            (estimate_region_areas, np.array([0, 0, 0, 1]))]:
        rng = np.random.default_rng(41)
        got = estimate(X, labels, T, rng)
        assert (got == np.bincount(owner[picks], minlength=2) / T).all()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("estimate", [estimate_region_areas,
                                      empirical_sampling_probabilities])
def test_estimators_reject_more_draws_than_an_array_holds(estimate):
    D, labels = arc_data(1.0, 1.0, 5, 5, seed=42)
    rng = np.random.default_rng(43)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^n=10{20} is more draws than an"):
        estimate(D, labels, 10**20, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0])
def test_bound_params_c_must_be_finite_and_positive(c):
    with pytest.raises(BadParamsError, match=r"^c=.* must be finite and > 0$"):
        BoundParams(m=5, delta=0.05, n2=1000, min_population=10, c=c)
