"""End-to-end checks of the command-line interface.

main() is invoked in-process with explicit argv so exit codes and
stderr diagnostics can be asserted directly.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import cli_runs

import srskit
from srskit import load_csv, load_indices, load_labels, load_report, save_csv
from srskit.cli import main


def run(*argv):
    return main([str(a) for a in argv])


def gen_arcs(tmp_path, **kw):
    mat, lab = tmp_path / "D.csv", tmp_path / "L.csv"
    args = dict(tau1=1.5708, tau2=0.7854, n1=200, n2=200, seed=7)
    args.update(kw)
    rc = run("gen", "arcs",
             "--tau1", args["tau1"], "--tau2", args["tau2"],
             "--n1", args["n1"], "--n2", args["n2"],
             "--seed", args["seed"],
             "--out-matrix", mat, "--out-labels", lab)
    assert rc == 0
    return mat, lab


def test_gen_arcs_outputs(tmp_path):
    mat, lab = gen_arcs(tmp_path)
    first = mat.read_text().splitlines()[0]
    assert first.startswith("# srskit gen arcs")
    assert "--seed 7" in first
    D = load_csv(mat)
    labels = load_labels(lab)
    assert D.shape == (2, 400)
    assert len(labels) == 400
    assert np.allclose(np.linalg.norm(D, axis=0), 1.0)


def test_gen_subspaces_both_forms(tmp_path):
    rc = run("gen", "subspaces", "--ambient", 8, "--dims", "2,2",
             "--pops", "5,6", "--seed", 1,
             "--out-matrix", tmp_path / "a.csv",
             "--out-labels", tmp_path / "al.csv")
    assert rc == 0
    assert load_csv(tmp_path / "a.csv").shape == (8, 11)
    rc = run("gen", "subspaces", "--ambient", 8, "--total-rank", 4,
             "--n-subspaces", 2, "--pops", "5,6", "--seed", 1,
             "--out-matrix", tmp_path / "b.csv",
             "--out-labels", tmp_path / "bl.csv")
    assert rc == 0
    # equal dims either way, same seed: identical data
    assert (load_csv(tmp_path / "a.csv") == load_csv(tmp_path / "b.csv")).all()


def test_gen_subspaces_needs_dims_or_rank(tmp_path):
    rc = run("gen", "subspaces", "--ambient", 8, "--pops", "5,6",
             "--seed", 1, "--out-matrix", tmp_path / "x.csv",
             "--out-labels", tmp_path / "xl.csv")
    assert rc == 2


def test_sketch_and_rerun_bitwise(tmp_path):
    mat, _ = gen_arcs(tmp_path)
    idx, cols = tmp_path / "i.csv", tmp_path / "c.csv"
    argv = ("sketch", "--matrix", mat, "--method", "srs", "--n", 25,
            "--seed", 3, "--out-indices", idx, "--out-columns", cols)
    assert run(*argv) == 0
    first_idx = idx.read_bytes()
    first_cols = cols.read_bytes()
    assert run(*argv) == 0
    assert idx.read_bytes() == first_idx
    assert cols.read_bytes() == first_cols
    picked = load_indices(idx)
    assert np.unique(picked).size == 25
    D = load_csv(mat)
    C = load_csv(cols)
    assert (C == D[:, picked]).all()


def test_sketch_too_many_samples(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    save_csv(np.eye(4), mat)
    rc = run("sketch", "--matrix", mat, "--method", "srs", "--n", 5,
             "--seed", 1, "--out-indices", tmp_path / "i.csv")
    assert rc == 1
    assert "TooManySamples" in capsys.readouterr().err


def test_sketch_unknown_method_is_usage_error(tmp_path):
    mat = tmp_path / "m.csv"
    save_csv(np.eye(4), mat)
    with pytest.raises(SystemExit) as info:
        run("sketch", "--matrix", mat, "--method", "nope", "--n", 2,
            "--seed", 1, "--out-indices", tmp_path / "i.csv")
    assert info.value.code == 2


def test_sketch_missing_file_exits_one(tmp_path, capsys):
    rc = run("sketch", "--matrix", tmp_path / "absent.csv", "--method", "ris",
             "--n", 2, "--seed", 1, "--out-indices", tmp_path / "i.csv")
    assert rc == 1
    assert capsys.readouterr().err != ""


def test_sketch_zero_column_drop_flag(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    D = np.array([[1.0, 0.0, 0.0, 0.4], [0.0, 0.0, 1.0, 0.6]])
    save_csv(D, mat)
    idx = tmp_path / "i.csv"
    rc = run("sketch", "--matrix", mat, "--method", "srs", "--n", 3,
             "--seed", 1, "--out-indices", idx)
    assert rc == 1
    assert "ZeroColumn" in capsys.readouterr().err
    rc = run("sketch", "--matrix", mat, "--method", "srs", "--n", 3,
             "--seed", 1, "--drop-zero-columns", "--out-indices", idx)
    assert rc == 0
    picked = set(load_indices(idx))
    # indices refer to the original matrix; the zero column is never picked
    assert picked <= {0, 2, 3}


def test_sketch_of_columns_whose_squares_leave_the_range(tmp_path, capsys):
    # rows "1.0,1e200" and "2.0,1e200": the squares of column 1 overflow
    mat, idx, cols = tmp_path / "m.csv", tmp_path / "i.csv", tmp_path / "c.csv"
    mat.write_text("1.0,1e200\n2.0,1e200\n")
    assert run("sketch", "--matrix", mat, "--method", "srs", "--n", 2, "--seed", 1,
               "--out-indices", idx, "--out-columns", cols) == 0
    assert sorted(load_indices(idx)) == [0, 1]
    assert np.array_equal(load_csv(cols)[:, list(load_indices(idx)).index(1)],
                          [1e200, 1e200])
    # the squares of column 1 round to 0, and it is not a zero column
    mat.write_text("1.0,3e-170,0.0\n0.0,4e-170,0.0\n")
    assert run("sketch", "--matrix", mat, "--method", "srs", "--n", 2, "--seed", 1,
               "--drop-zero-columns", "--out-indices", idx) == 0
    assert sorted(load_indices(idx)) == [0, 1]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scale", ["", "e-170", "e160"])
def test_eval_error_does_not_depend_on_the_scale(tmp_path, capsys, scale):
    mat, idx = tmp_path / "m.csv", tmp_path / "i.csv"
    mat.write_text(f"3{scale},1{scale},2{scale}\n1{scale},4{scale},1{scale}\n")
    idx.write_text("0\n")
    assert run("eval", "error", "--matrix", mat, "--indices", idx) == 0
    out, err = capsys.readouterr()
    value = float(out.splitlines()[1].removeprefix("error,"))
    assert value == pytest.approx(0.6174544517614234, rel=1e-14)
    assert err == ""


def test_sketch_embedding_flags(tmp_path):
    rc = run("gen", "subspaces", "--ambient", 30, "--dims", "2,2",
             "--pops", "40,40", "--seed", 2,
             "--out-matrix", tmp_path / "m.csv",
             "--out-labels", tmp_path / "l.csv")
    assert rc == 0
    rc = run("sketch", "--matrix", tmp_path / "m.csv", "--method", "srs",
             "--n", 10, "--seed", 3, "--embed", "rademacher",
             "--embed-dim", 6, "--embed-seed", 4,
             "--out-indices", tmp_path / "i.csv",
             "--out-columns", tmp_path / "c.csv")
    assert rc == 0
    # columns come from the original space, not the embedded one
    assert load_csv(tmp_path / "c.csv").shape == (30, 10)


def test_sketch_embed_requires_dim_and_seed(tmp_path):
    mat, _ = gen_arcs(tmp_path)
    rc = run("sketch", "--matrix", mat, "--method", "srs", "--n", 3,
             "--seed", 1, "--embed", "gaussian",
             "--out-indices", tmp_path / "i.csv")
    assert rc == 2


def test_eval_rank_stdout(tmp_path, capsys):
    mat, _ = gen_arcs(tmp_path)
    assert run("eval", "rank", "--matrix", mat) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("# srskit eval rank")
    assert out[1] == "rank,2"


def test_eval_error_indices_and_columns(tmp_path, capsys):
    mat, _ = gen_arcs(tmp_path)
    idx = tmp_path / "i.csv"
    run("sketch", "--matrix", mat, "--method", "srs", "--n", 5, "--seed", 2,
        "--out-indices", idx, "--out-columns", tmp_path / "c.csv")
    capsys.readouterr()
    assert run("eval", "error", "--matrix", mat, "--indices", idx) == 0
    line = capsys.readouterr().out.splitlines()[1]
    v1 = float(line.split(",")[1])
    assert run("eval", "error", "--matrix", mat,
               "--columns", tmp_path / "c.csv") == 0
    line = capsys.readouterr().out.splitlines()[1]
    v2 = float(line.split(",")[1])
    assert v1 == v2
    assert v1 < 1e-10  # 5 columns of a rank-2 matrix span it


def test_eval_error_rejects_both_sources(tmp_path):
    mat, _ = gen_arcs(tmp_path)
    with pytest.raises(SystemExit) as info:
        run("eval", "error", "--matrix", mat, "--indices", "i.csv",
            "--columns", "c.csv")
    assert info.value.code == 2


def test_eval_coverage(tmp_path, capsys):
    mat, lab = gen_arcs(tmp_path)
    idx = tmp_path / "i.csv"
    run("sketch", "--matrix", mat, "--method", "ris", "--n", 40, "--seed", 5,
        "--out-indices", idx)
    capsys.readouterr()
    assert run("eval", "coverage", "--labels", lab, "--indices", idx) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "cluster,count"
    counts = [int(line.split(",")[1]) for line in lines[2:]]
    assert sum(counts) == 40


def test_eval_coverage_index_out_of_range(tmp_path, capsys):
    _, lab = gen_arcs(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("0\n9999\n")
    rc = run("eval", "coverage", "--labels", lab, "--indices", bad)
    assert rc == 1
    assert "ShapeError" in capsys.readouterr().err


def test_exp_probability_stdout(tmp_path, capsys):
    mat, lab = gen_arcs(tmp_path, n1=1000, n2=1000)
    assert run("exp", "probability", "--matrix", mat, "--labels", lab,
               "--draws", 4000, "--seed", 11) == 0
    lines = capsys.readouterr().out.splitlines()
    data = [line for line in lines if line and not line.startswith("#")]
    assert data[0] == "trial,method,x,cluster,value"
    freq0 = float(data[1].split(",")[4])
    assert abs(freq0 - 0.625) < 0.04


def test_exp_rank_curve_files(tmp_path):
    rc = run("gen", "subspaces", "--ambient", 10, "--total-rank", 10,
             "--n-subspaces", 5, "--pops", "20,20,20,20,20", "--seed", 6,
             "--out-matrix", tmp_path / "m.csv",
             "--out-labels", tmp_path / "l.csv")
    assert rc == 0
    out, svg = tmp_path / "r.csv", tmp_path / "r.svg"
    argv = ("exp", "rank-curve", "--matrix", tmp_path / "m.csv",
            "--methods", "srs,ris", "--grid", "2,6,10", "--trials", 3,
            "--seed", 7, "--out", out, "--svg", svg)
    assert run(*argv) == 0
    rep = load_report(out)
    methods = {m for _, m, _, _, _ in rep.rows}
    assert methods == {"srs", "ris"}
    assert svg.read_text().startswith("<svg ")
    before, before_svg = out.read_bytes(), svg.read_bytes()
    assert run(*argv) == 0
    assert out.read_bytes() == before
    assert svg.read_bytes() == before_svg


def test_exp_coverage_file(tmp_path):
    mat, lab = gen_arcs(tmp_path)
    out = tmp_path / "cov.csv"
    assert run("exp", "coverage", "--matrix", mat, "--labels", lab,
               "--methods", "srs,ris", "--n", 30, "--trials", 4,
               "--seed", 8, "--out", out) == 0
    rep = load_report(out)
    srs_total = sum(v for t, m, _, _, v in rep.rows if m == "srs" and t == 0)
    assert srs_total == 30.0


def test_exp_bounds_plain_and_empirical(tmp_path, capsys):
    assert run("exp", "bounds", "--which", "lemma2", "--m", 5,
               "--delta", 0.05, "--n2", 1000, "--min-pop", 10) == 0
    lines = capsys.readouterr().out.splitlines()
    value = float([l for l in lines if l.startswith("0,lemma2_bound")][0]
                  .split(",")[4])
    assert abs(value - 2314.6079904021644) < 1e-9
    assert run("exp", "bounds", "--which", "lemma3", "--m", 3,
               "--delta", 0.1, "--empirical", "--tau1", 1.5708,
               "--tau2", 0.7854, "--arc-n1", 500, "--arc-n2", 500,
               "--data-seed", 9, "--trials", 50, "--seed", 10) == 0
    lines = capsys.readouterr().out.splitlines()
    rate = float([l for l in lines if "lemma3_empirical" in l][0]
                 .split(",")[4])
    assert rate >= 0.88


def test_exp_bounds_empirical_lemma4_rejected(capsys):
    rc = run("exp", "bounds", "--which", "lemma4", "--m", 1, "--delta", 0.1,
             "--r", 10, "--s", 2, "--pops", "5,5", "--min-p", 0.5,
             "--empirical")
    assert rc == 2


def test_exp_kmeans_file(tmp_path):
    mat, lab = gen_arcs(tmp_path, tau1=1.0, tau2=1.0, n1=300, n2=20, seed=12)
    out = tmp_path / "km.csv"
    assert run("exp", "kmeans", "--matrix", mat, "--labels", lab, "--k", 2,
               "--sketch-n", 40, "--seeds", 3, "--seed", 13,
               "--restarts", 4, "--out", out) == 0
    rep = load_report(out)
    assert {m for _, m, _, _, _ in rep.rows} == {"full", "srs_sketch"}
    assert all(v in (0.0, 1.0) for *_, v in rep.rows)


@pytest.mark.parametrize("extra, message", [
    ((), "TooManySamplesError: k=4 exceeds 3 columns"),
    (("--k", 30), "TooManySamplesError: k=30 exceeds 20 columns"),
    (("--restarts", 0), "ArgumentError: restarts must be >= 1"),
    (("--max-iters", 0), "ArgumentError: max_iters must be >= 1"),
], ids=["sketch", "full-data-first", "restarts-first", "max-iters-first"])
def test_exp_kmeans_k_beyond_sketch_n_exits_one_before_lloyd(
        tmp_path, capsys, monkeypatch, extra, message):
    from srskit import _kernels

    lloyd, calls = _kernels.lloyd, []
    monkeypatch.setattr(_kernels, "lloyd",
                        lambda *a: calls.append(a) or lloyd(*a))
    mat, lab = gen_arcs(tmp_path, n1=10, n2=10)
    out = tmp_path / "km.csv"
    capsys.readouterr()
    assert run("exp", "kmeans", "--matrix", mat, "--labels", lab, "--k", 4,
               "--sketch-n", 3, "--seeds", 2, "--seed", 1, "--out", out,
               *extra) == 1
    assert capsys.readouterr().err == message + "\n"
    assert calls == [] and not out.exists()


def test_every_output_file_carries_echo(tmp_path):
    mat, lab = gen_arcs(tmp_path)
    files = [mat, lab]
    idx, cols = tmp_path / "i.csv", tmp_path / "c.csv"
    run("sketch", "--matrix", mat, "--method", "volume", "--n", 4,
        "--seed", 1, "--out-indices", idx, "--out-columns", cols)
    files += [idx, cols]
    rep = tmp_path / "rep.csv"
    run("exp", "coverage", "--matrix", mat, "--labels", lab,
        "--methods", "ris", "--n", 10, "--trials", 2, "--seed", 2,
        "--out", rep)
    files.append(rep)
    ev = tmp_path / "ev.csv"
    run("eval", "rank", "--matrix", mat, "--out", ev)
    files.append(ev)
    for f in files:
        assert f.read_text().startswith("# srskit "), f


def test_undecodable_input_exits_one_naming_line(tmp_path, capsys):
    mat, lab = gen_arcs(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1.0,0.0\n0.0,\xff1.0\n")
    rc = run("sketch", "--matrix", bad, "--method", "ris", "--n", 1,
             "--seed", 1, "--out-indices", tmp_path / "i.csv")
    assert rc == 1
    assert capsys.readouterr().err.startswith("ParseError: line 2: ")
    bad.write_bytes(b"0\n\xff\n" + b"1\n" * 398)
    rc = run("exp", "coverage", "--matrix", mat, "--labels", bad,
             "--methods", "ris", "--n", 10, "--trials", 1, "--seed", 2)
    assert rc == 1
    assert capsys.readouterr().err.startswith("ParseError: line 2: ")


def test_multi_line_echo_stays_commented(tmp_path, capsys):
    mat, _ = gen_arcs(tmp_path)
    odd = tmp_path / "a\nb.csv"
    odd.write_bytes(mat.read_bytes())
    assert run("eval", "rank", "--matrix", odd) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["# srskit eval rank --matrix '" + str(tmp_path / "a"),
                   "# b.csv'", "rank,2"]


def test_non_utf8_argument_is_usage_error_before_any_write(
        tmp_path, capsys, monkeypatch):
    # from the shell, a non-UTF-8 byte of an argument reaches sys.argv as
    # a lone surrogate; the echo holding it could not be written
    mat, lab = tmp_path / "D.csv", tmp_path / "L\udcff.csv"
    monkeypatch.setattr("sys.argv", [
        "srskit", "gen", "arcs", "--tau1", "1.2", "--tau2", "0.6",
        "--n1", "5", "--n2", "5", "--seed", "0",
        "--out-matrix", str(mat), "--out-labels", str(lab)])
    assert main() == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument ")
    assert "L\\udcff.csv" in err and "not UTF-8" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (("exp", "bounds", "--which", "lemma3", "--m", 2, "--delta", 0.1,
      "--empirical", "--tau1", 1.2, "--tau2", 0.6, "--arc-n1", 50,
      "--arc-n2", 50, "--data-seed", 0, "--trials", 0, "--seed", 1),
     "trials must be >= 1"),
    (("exp", "kmeans", "--matrix", "{mat}", "--labels", "{lab}", "--k", 2,
      "--sketch-n", 10, "--seeds", 1, "--seed", 1, "--restarts", 0),
     "restarts must be >= 1"),
    (("exp", "rank-curve", "--matrix", "{mat}", "--methods", "srs,ris",
      "--grid", "5,10", "--trials", 0, "--seed", 1, "--svg", "{svg}"),
     "trials must be >= 1"),
    (("exp", "coverage", "--matrix", "{mat}", "--labels", "{lab}",
      "--methods", "srs,ris", "--n", 5, "--trials", 0, "--seed", 1,
      "--svg", "{svg}"),
     "trials must be >= 1"),
    (("exp", "kmeans", "--matrix", "{mat}", "--labels", "{lab}", "--k", 2,
      "--sketch-n", 10, "--seeds", 0, "--seed", 1),
     "seeds must be >= 1"),
    (("exp", "kmeans", "--matrix", "{mat}", "--labels", "{lab}", "--k", 2,
      "--sketch-n", 0, "--seeds", 1, "--seed", 1),
     "sketch_n must be >= 1"),
    (("exp", "kmeans", "--matrix", "{mat}", "--labels", "{lab}", "--k", 2,
      "--sketch-n", 10, "--seeds", 1, "--seed", 1, "--max-iters", 0),
     "max_iters must be >= 1"),
    (("exp", "kmeans", "--matrix", "{mat}", "--labels", "{lab}", "--k", 2,
      "--sketch-n", 10, "--seeds", 1, "--seed", 1, "--max-iters", -5),
     "max_iters must be >= 1"),
    (("exp", "probability", "--matrix", "{mat}", "--labels", "{lab}",
      "--draws", 0, "--seed", 1, "--estimator", "srs"),
     "draws must be >= 1"),
    (("exp", "probability", "--matrix", "{mat}", "--labels", "{lab}",
      "--draws", 0, "--seed", 1, "--estimator", "directions"),
     "draws must be >= 1"),
    (("exp", "probability", "--matrix", "{mat}", "--labels", "{lab}",
      "--draws", 0, "--seed", 1, "--estimator", "both"),
     "draws must be >= 1"),
], ids=["bounds", "kmeans", "rank-curve", "coverage", "kmeans-seeds",
        "kmeans-sketch-n", "kmeans-max-iters-0", "kmeans-max-iters-negative",
        "probability-srs", "probability-directions",
        "probability-both"])
def test_counts_below_one_exit_one_before_writing(tmp_path, capsys, argv,
                                                  message):
    mat, lab = gen_arcs(tmp_path, n1=20, n2=20)
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    paths = {"mat": mat, "lab": lab, "svg": svg}
    argv = [str(a).format(**paths) for a in argv] + ["--out", str(out)]
    capsys.readouterr()
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"ArgumentError: {message}\n"
    assert not out.exists() and not svg.exists()


def test_exp_coverage_leverage_k_reaches_only_leverage(tmp_path):
    from srskit import SamplerSpec, coverage_experiment

    mat, lab = tmp_path / "S.csv", tmp_path / "SL.csv"
    assert run("gen", "subspaces", "--ambient", 8, "--dims", "2,2,2",
               "--pops", "20,20,20", "--seed", 4,
               "--out-matrix", mat, "--out-labels", lab) == 0
    argv = ["exp", "coverage", "--matrix", mat, "--labels", lab,
            "--methods", "srs,ris,leverage", "--n", 10, "--trials", 3,
            "--seed", 5]
    plain, with_k = tmp_path / "plain.csv", tmp_path / "k.csv"
    assert run(*argv, "--out", plain) == 0
    assert run(*argv, "--leverage-k", 2, "--out", with_k) == 0

    def rows(path, methods):
        return [r for r in load_report(path).rows if r[1] in methods]

    assert rows(with_k, ("srs", "ris")) == rows(plain, ("srs", "ris"))
    direct = coverage_experiment(
        load_csv(mat), load_labels(lab),
        [SamplerSpec("leverage", 10, leverage_k=2)], 10, 3, 5)
    assert rows(with_k, ("leverage",)) == list(direct.rows)


def test_exp_bounds_lemma2_empirical_rows(tmp_path):
    # empirical lemma2 takes n2 and min_population from the arc populations
    import math

    from srskit import ArcSpec, BoundParams, lemma2_bound, lemma2_empirical

    out = tmp_path / "b.csv"
    assert run("exp", "bounds", "--which", "lemma2", "--m", 3,
               "--delta", 0.1, "--empirical", "--tau1", 1.2, "--tau2", 0.6,
               "--arc-n1", 300, "--arc-n2", 40, "--data-seed", 9,
               "--trials", 20, "--seed", 10, "--out", out) == 0
    rows = {m: (x, v) for _, m, x, _, v in load_report(out).rows}
    bound = lemma2_bound(BoundParams(m=3, delta=0.1, n2=340, min_population=40))
    arc = ArcSpec(tau1=1.2, tau2=0.6, n1=300, n2=40, seed=9)
    assert rows == {
        "lemma2_bound": (3, bound),
        "lemma2_empirical": (math.ceil(bound),
                             lemma2_empirical(arc, 3, 0.1, 20, 10)),
    }


@pytest.mark.parametrize("extra", [
    ("--n2", 7), ("--min-pop", 99), ("--n2", 7, "--min-pop", 99),
], ids=["n2", "min-pop", "both"])
def test_exp_bounds_empirical_lemma2_rejects_population_flags(
        tmp_path, capsys, extra):
    out = tmp_path / "b.csv"
    capsys.readouterr()
    rc = run("exp", "bounds", "--which", "lemma2", "--m", 3, "--delta", 0.1,
             "--empirical", "--tau1", 1.2, "--tau2", 0.6, "--arc-n1", 30,
             "--arc-n2", 4, "--data-seed", 9, "--trials", 2, "--seed", 1,
             *extra, "--out", out)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ")
    assert "--n2" in err and "--min-pop" in err and "--arc-n1" in err
    assert not out.exists()


_LEMMA2 = ("--which", "lemma2", "--m", 5, "--delta", 0.05, "--n2", 1000,
           "--min-pop", 10)
_LEMMA3 = ("--which", "lemma3", "--m", 3, "--delta", 0.1, "--tau1", 1.2,
           "--tau2", 0.6)
_LEMMA4 = ("--which", "lemma4", "--m", 1, "--delta", 0.1, "--r", 10,
           "--s", 2, "--pops", "5,7", "--min-p", 0.3)
_EMPIRICAL = _LEMMA3 + ("--empirical", "--arc-n1", 50, "--arc-n2", 50,
                        "--data-seed", 0, "--trials", 2, "--seed", 1)


@pytest.mark.parametrize("base, override, error", [
    (_LEMMA2, ("--beta", "nan"), "BadBetaError"),
    (_LEMMA2, ("--beta", "inf"), "BadBetaError"),
    (_LEMMA2, ("--delta", "1e-320"), "BadParamsError"),
    (_LEMMA3, ("--tau1", "nan"), "BadArcLengthsError"),
    (_LEMMA4, ("--c", "nan"), "BadParamsError"),
    (_LEMMA4, ("--min-p", "nan"), "BadParamsError"),
    (_LEMMA4, ("--min-p", "1e-320"), "BadParamsError"),
    (_EMPIRICAL, ("--beta", "inf"), "BadBetaError"),
    (_EMPIRICAL, ("--delta", "1e-320"), "BadParamsError"),
    (_EMPIRICAL, ("--beta", "nan"), "BadBetaError"),
], ids=["beta-nan", "beta-inf", "delta-tiny", "tau1-nan", "c-nan",
        "min-p-nan", "min-p-tiny", "empirical-beta-inf",
        "empirical-delta-tiny", "empirical-beta-nan"])
def test_exp_bounds_non_finite_exits_one_before_writing(
        tmp_path, capsys, base, override, error):
    # the later of two equal flags wins, so override replaces a base value
    out = tmp_path / "b.csv"
    capsys.readouterr()
    assert run("exp", "bounds", *base, *override, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1
    assert not out.exists()


HUGE = "1" + "0" * 400  # an integer too large for a float


@pytest.mark.parametrize("base, override", [
    (_LEMMA2, ("--n2", HUGE)),
    (_LEMMA2, ("--m", HUGE)),
    (_LEMMA3, ("--m", HUGE)),
    (_LEMMA4, ("--r", HUGE)),
], ids=["lemma2-n2", "lemma2-m", "lemma3-m", "lemma4-r"])
def test_exp_bounds_integer_too_large_exits_one_before_writing(
        tmp_path, capsys, base, override):
    # these ended in an OverflowError traceback
    out = tmp_path / "b.csv"
    capsys.readouterr()
    assert run("exp", "bounds", *base, *override, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("BadParamsError: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--tau1", "nan"), ("--tau2", "inf"), ("--center1", "nan"),
    ("--center2", "inf"),
])
def test_gen_arcs_non_finite_exits_one_before_writing(tmp_path, capsys, flag,
                                                      value):
    # a NaN arc length reached save_csv, which stopped its NaN columns
    mat, lab = tmp_path / "D.csv", tmp_path / "L.csv"
    capsys.readouterr()
    assert run("gen", "arcs", "--tau1", 1.2, "--tau2", 0.6, "--n1", 5,
               "--n2", 5, "--seed", 0, flag, value,
               "--out-matrix", mat, "--out-labels", lab) == 1
    assert capsys.readouterr().err == (
        "BadArcLengthsError: arc lengths and centers must be finite\n")
    assert list(tmp_path.iterdir()) == []


HUGE_N = 10**20  # more draws than an array index can count


@pytest.mark.parametrize("method", ["norm", "leverage", "ris_repl", "srs_repl"])
def test_sketch_n_beyond_an_array_exits_one_before_writing(tmp_path, capsys,
                                                           method):
    mat, _ = gen_arcs(tmp_path, n1=20, n2=20)
    idx = tmp_path / "i.csv"
    capsys.readouterr()
    assert run("sketch", "--matrix", mat, "--method", method, "--n", HUGE_N,
               "--seed", 1, "--out-indices", idx) == 1
    assert capsys.readouterr().err.startswith(f"ArgumentError: n={HUGE_N} ")
    assert not idx.exists()


def test_exp_coverage_n_beyond_an_array_exits_one_before_writing(tmp_path,
                                                                 capsys):
    mat, lab = gen_arcs(tmp_path, n1=20, n2=20)
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run("exp", "coverage", "--matrix", mat, "--labels", lab,
               "--methods", "ris_repl,norm", "--n", HUGE_N, "--trials", 2,
               "--seed", 1, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"ArgumentError: n={HUGE_N} ")
    assert not out.exists()


@pytest.mark.parametrize("which", ["labels", "indices"])
def test_eval_coverage_integer_beyond_64_bits_exits_one(tmp_path, capsys,
                                                        which):
    files = {"labels": tmp_path / "L.csv", "indices": tmp_path / "I.csv"}
    files["labels"].write_text("0\n1\n1\n")
    files["indices"].write_text("# picks\n2\n0\n")
    with open(files[which], "a") as fh:
        fh.write("99999999999999999999\n")
    capsys.readouterr()
    assert run("eval", "coverage", "--labels", files["labels"],
               "--indices", files["indices"]) == 1
    # the value is on line 4 of either file
    assert capsys.readouterr().err.startswith("ParseError: line 4:")


def test_exp_coverage_runs_one_svd_for_all_trials(tmp_path, monkeypatch):
    from srskit import samplers

    calls = []
    svd = samplers.leverage_probabilities
    monkeypatch.setattr(samplers, "leverage_probabilities",
                        lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    mat, lab = gen_arcs(tmp_path, n1=20, n2=20)
    assert run("exp", "coverage", "--matrix", mat, "--labels", lab,
               "--methods", "srs,leverage", "--n", 5, "--trials", 3,
               "--seed", 1, "--out", tmp_path / "out.csv") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("n1, n2", [(3, 2), (20, 20)], ids=["shorter", "longer"])
def test_exp_kmeans_labels_length_mismatch_exits_one_before_lloyd(
        tmp_path, capsys, monkeypatch, n1, n2):
    from srskit import _kernels

    lloyd, calls = _kernels.lloyd, []
    monkeypatch.setattr(_kernels, "lloyd",
                        lambda *a: calls.append(a) or lloyd(*a))
    mat, _ = gen_arcs(tmp_path, n1=15, n2=15)
    other = tmp_path / "other"
    other.mkdir()
    _, lab = gen_arcs(other, n1=n1, n2=n2)
    out = tmp_path / "km.csv"
    capsys.readouterr()
    assert run("exp", "kmeans", "--matrix", mat, "--labels", lab, "--k", 2,
               "--sketch-n", 10, "--seeds", 1, "--seed", 1, "--out", out) == 1
    assert capsys.readouterr().err == (
        "ArgumentError: labels length must match column count\n")
    assert calls == [] and not out.exists()


def test_gen_subspaces_zero_subspaces_exits_one(tmp_path, capsys):
    mat, lab = tmp_path / "D.csv", tmp_path / "L.csv"
    assert run("gen", "subspaces", "--ambient", 8, "--pops", 5,
               "--total-rank", 0, "--n-subspaces", 0, "--seed", 1,
               "--out-matrix", mat, "--out-labels", lab) == 1
    assert capsys.readouterr().err.startswith("BadDimsError: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rel_tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["eval-rank", "rank-curve"])
def test_rel_tol_not_finite_and_positive_exits_one(tmp_path, capsys, rel_tol,
                                                   command):
    mat, _ = gen_arcs(tmp_path, n1=10, n2=10)
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    argv = {
        "eval-rank": ("eval", "rank", "--matrix", mat, "--out", out),
        "rank-curve": ("exp", "rank-curve", "--matrix", mat, "--methods",
                       "srs", "--grid", "2,4", "--trials", 2, "--seed", 1,
                       "--out", out, "--svg", svg),
    }[command]
    capsys.readouterr()
    assert run(*argv, "--rel-tol", rel_tol) == 1
    assert capsys.readouterr().err == (
        "ArgumentError: rel_tol must be finite and > 0\n")
    assert not out.exists() and not svg.exists()


# ---------------------------------------------------------------------------
# one parser per process


@pytest.fixture
def fresh_memo():
    from srskit import cli

    cli._parser.cache_clear()
    yield cli
    cli._parser.cache_clear()


def run_caught(*argv):
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def test_reused_parser_matches_fresh_parser_per_call(
        tmp_path, capsys, monkeypatch, fresh_memo):
    sequence = [
        ("gen", "arcs", "--tau1", 1.2, "--tau2", 0.6, "--n1", 20, "--n2", 20,
         "--seed", 4, "--out-matrix", "D.csv", "--out-labels", "L.csv"),
        ("sketch", "--matrix", "D.csv", "--method", "srs", "--n", 5,
         "--seed", 1, "--out-indices", "i1.csv", "--out-columns", "c1.csv"),
        ("sketch", "--matrix", "D.csv", "--method", "srs", "--n", 5,
         "--seed", 1, "--out-indices", "i2.csv"),
        ("sketch", "--matrix", "D.csv", "--method", "bogus", "--n", 5,
         "--seed", 1, "--out-indices", "i3.csv"),
        ("exp", "coverage", "--matrix", "D.csv", "--labels", "L.csv",
         "--methods", "srs,ris", "--n", 4, "--trials", 2, "--seed", 2,
         "--svg", "cov.svg"),
        ("exp", "coverage", "--matrix", "D.csv", "--labels", "L.csv",
         "--methods", "srs", "--n", 4, "--trials", 2, "--seed", 3,
         "--out", "cov.csv"),
    ]

    def replay(name, clear):
        where = tmp_path / name
        where.mkdir()
        monkeypatch.chdir(where)
        seen = []
        for argv in sequence:
            if clear:
                fresh_memo._parser.cache_clear()
            seen.append((run_caught(*argv), capsys.readouterr()))
        files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
        return seen, files

    reused, fresh = replay("reused", False), replay("fresh", True)
    assert reused == fresh
    assert [rc for rc, _ in reused[0]] == [0, 0, 0, 2, 0, 0]
    # the second sketch wrote no columns file from a stale default
    assert sorted(reused[1]) == ["D.csv", "L.csv", "c1.csv", "cov.csv",
                                 "cov.svg", "i1.csv", "i2.csv"]
    assert reused[1]["i1.csv"].splitlines()[1:] == (
        reused[1]["i2.csv"].splitlines()[1:])


def test_build_parser_runs_once_across_main_calls(
        tmp_path, monkeypatch, fresh_memo):
    builds = []
    build = fresh_memo.build_parser
    monkeypatch.setattr(fresh_memo, "build_parser",
                        lambda: builds.append(1) or build())
    mat, _ = gen_arcs(tmp_path, n1=10, n2=10)
    for seed in range(4):
        assert run("sketch", "--matrix", mat, "--method", "srs", "--n", 3,
                   "--seed", seed, "--out-indices", tmp_path / "i.csv") == 0
    assert run("eval", "rank", "--matrix", mat) == 0
    assert builds == [1]
    # a fresh parser is still built on every direct call
    assert build() is not build()


def test_rebound_command_body_runs_after_parser_is_cached(
        tmp_path, monkeypatch, fresh_memo):
    mat, _ = gen_arcs(tmp_path, n1=10, n2=10)
    assert fresh_memo._parser.cache_info().currsize == 1
    calls = []
    monkeypatch.setattr(fresh_memo, "_cmd_sketch",
                        lambda args, echo: calls.append(args.n) or 0)
    assert run("sketch", "--matrix", mat, "--method", "srs", "--n", 3,
               "--seed", 1, "--out-indices", tmp_path / "i.csv") == 0
    assert calls == [3] and not (tmp_path / "i.csv").exists()


def _leaf_commands(parser, prefix=()):
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [leaf for name, child in subs[0].choices.items()
            for leaf in _leaf_commands(child, prefix + (name,))]


def test_help_from_reused_parser_matches_fresh_parser(
        capsys, monkeypatch, fresh_memo):
    monkeypatch.setenv("COLUMNS", "100")
    leaves = _leaf_commands(fresh_memo.build_parser())
    assert len(leaves) == 11
    for prefix in [()] + leaves * 2:
        with pytest.raises(SystemExit) as info:
            run(*prefix, "--help")
        assert info.value.code == 0
        reused = capsys.readouterr()
        with pytest.raises(SystemExit):
            fresh_memo.build_parser().parse_args([*prefix, "--help"])
        assert reused == capsys.readouterr(), prefix
        assert reused.out.startswith("usage: srskit")


@pytest.mark.parametrize("min_p", ["inf", "2", "0", "nan"])
def test_exp_bounds_min_p_outside_unit_interval_exits_one(tmp_path, capsys,
                                                           min_p):
    # inf printed a bound of 0.0 and 2 a bound of 58.12, both exiting 0
    out = tmp_path / "b.csv"
    capsys.readouterr()
    assert run("exp", "bounds", "--which", "lemma4", "--m", 2, "--delta", 0.1,
               "--r", 2, "--s", 2, "--pops", "3,4", "--min-p", min_p,
               "--out", out) == 1
    assert capsys.readouterr().err == "BadParamsError: min_p must be in (0, 1]\n"
    assert not out.exists()


@pytest.mark.parametrize("n_clusters", [0, -1])
def test_eval_coverage_n_clusters_below_one_exits_one(tmp_path, capsys,
                                                      n_clusters):
    lab, idx, out = tmp_path / "L.csv", tmp_path / "I.csv", tmp_path / "c.csv"
    lab.write_text("0\n1\n1\n")
    idx.write_text("2\n0\n")
    capsys.readouterr()
    assert run("eval", "coverage", "--labels", lab, "--indices", idx,
               "--n-clusters", n_clusters, "--out", out) == 1
    assert capsys.readouterr().err == "ShapeError: n_clusters must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("n_clusters", [2**63, 2**62])
def test_eval_coverage_n_clusters_past_any_array_exits_one(tmp_path, capsys,
                                                          n_clusters):
    # one int64 count per cluster: no array holds 2**62 of them
    lab, idx, out = tmp_path / "L.csv", tmp_path / "I.csv", tmp_path / "c.csv"
    lab.write_text("0\n1\n1\n")
    idx.write_text("2\n0\n")
    capsys.readouterr()
    assert run("eval", "coverage", "--labels", lab, "--indices", idx,
               "--n-clusters", n_clusters, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"ShapeError: n_clusters={n_clusters} is too many to count\n"
    assert not out.exists()


@pytest.mark.parametrize("estimator", ["srs", "directions", "both"])
def test_exp_probability_draws_beyond_an_array_exits_one(tmp_path, capsys,
                                                         estimator):
    mat, lab = gen_arcs(tmp_path, n1=20, n2=20)
    out = tmp_path / "p.csv"
    capsys.readouterr()
    assert run("exp", "probability", "--matrix", mat, "--labels", lab,
               "--draws", HUGE_N, "--seed", 1, "--estimator", estimator,
               "--out", out) == 1
    assert capsys.readouterr().err == (
        f"ArgumentError: n={HUGE_N} is more draws than an array can hold\n")
    assert not out.exists()


@pytest.mark.parametrize("c", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("base", [_LEMMA2, _LEMMA3, _LEMMA4, _EMPIRICAL],
                         ids=["lemma2", "lemma3", "lemma4", "empirical"])
def test_exp_bounds_c_checked_for_every_lemma(tmp_path, capsys, base, c):
    # lemma2 and lemma3 do not read c, and printed a bound for --c nan
    out = tmp_path / "b.csv"
    capsys.readouterr()
    assert run("exp", "bounds", *base, "--c", c, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"BadParamsError: c={float(c)} must be finite and > 0\n"
    assert not out.exists()


def test_memory_error_exits_one_without_output(tmp_path, capsys, monkeypatch):
    from srskit import cli

    class ArrayMemoryError(MemoryError):
        """Like numpy's, a MemoryError under another name."""

    def no_memory(*args, **kwargs):
        raise ArrayMemoryError("Unable to allocate 149. GiB for an array")

    mat, _ = gen_arcs(tmp_path, n1=20, n2=5)
    out = tmp_path / "idx.csv"
    monkeypatch.setattr(cli, "sample_columns", no_memory)
    capsys.readouterr()
    rc = run("sketch", "--matrix", mat, "--method", "srs_repl", "--n", 10**10,
             "--seed", 1, "--out-indices", out)
    assert rc == 1
    assert capsys.readouterr().err == "MemoryError: Unable to allocate 149. GiB for an array\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, error", [
    (("arcs", "--n1", 2**63, "--n2", 5), "BadArcLengthsError"),
    (("arcs", "--n1", 5, "--n2", 2**63), "BadArcLengthsError"),
    (("arcs", "--n1", 10**21, "--n2", 5), "BadArcLengthsError"),
    (("arcs", "--n1", 2**62, "--n2", 5), "BadArcLengthsError"),
    (("subspaces", "--ambient", 2**63, "--dims", "2,2", "--pops", "5,6"),
     "BadDimsError"),
    (("subspaces", "--ambient", 10**21, "--dims", "2,2", "--pops", "5,6"),
     "BadDimsError"),
    (("subspaces", "--ambient", 2**62, "--dims", 2**62, "--pops", 1),
     "BadDimsError"),
    (("subspaces", "--ambient", 8, "--total-rank", 2**63, "--n-subspaces",
      2**63, "--pops", "5,6"), "BadDimsError"),
], ids=["n1-2**63", "n2-2**63", "n1-10**21", "n1-2**62", "ambient-2**63",
        "ambient-10**21", "basis-2**62", "n-subspaces-2**63"])
def test_gen_past_any_array_exits_one_before_writing(tmp_path, capsys, argv,
                                                      error):
    # these ended in numpy's untyped "Maximum allowed dimension exceeded"
    # or "array is too big", and the last in an OverflowError traceback
    kind, *flags = argv
    extra = ("--tau1", 1.2, "--tau2", 0.6) if kind == "arcs" else ()
    capsys.readouterr()
    assert run("gen", kind, *flags, *extra, "--seed", 0,
               "--out-matrix", tmp_path / "D.csv",
               "--out-labels", tmp_path / "L.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("gen", "arcs", "--tau1", 1.2, "--tau2", 0.6, "--n1", 5, "--n2", 5,
     "--seed", -1, "--out-matrix", "{out}", "--out-labels", "{out2}"),
    ("gen", "subspaces", "--ambient", 4, "--dims", "2,2", "--pops", "5,6",
     "--seed", -1, "--out-matrix", "{out}", "--out-labels", "{out2}"),
    ("sketch", "--matrix", "{mat}", "--method", "srs", "--n", 3, "--seed", -1,
     "--out-indices", "{out}"),
    ("sketch", "--matrix", "{mat}", "--method", "srs", "--n", 3, "--seed", 1,
     "--embed", "gaussian", "--embed-dim", 2, "--embed-seed", -1,
     "--out-indices", "{out}"),
    ("exp", "rank-curve", "--matrix", "{mat}", "--methods", "srs",
     "--grid", "2,4", "--trials", 2, "--seed", -1, "--out", "{out}",
     "--svg", "{out2}"),
    ("exp", "coverage", "--matrix", "{mat}", "--labels", "{lab}",
     "--methods", "ris", "--n", 3, "--trials", 2, "--seed", -1,
     "--out", "{out}", "--svg", "{out2}"),
    ("exp", "probability", "--matrix", "{mat}", "--labels", "{lab}",
     "--draws", 5, "--seed", -1, "--out", "{out}"),
    ("exp", "kmeans", "--matrix", "{mat}", "--labels", "{lab}", "--k", 2,
     "--sketch-n", 4, "--seeds", 2, "--seed", -1, "--out", "{out}"),
    ("exp", "bounds", *_EMPIRICAL, "--data-seed", -1, "--out", "{out}"),
    ("exp", "bounds", *_EMPIRICAL, "--seed", -1, "--out", "{out}"),
], ids=["gen-arcs", "gen-subspaces", "sketch", "sketch-embed-seed",
        "rank-curve", "coverage", "probability", "kmeans", "bounds-data-seed",
        "bounds-seed"])
def test_negative_seed_exits_one_before_writing(tmp_path, capsys, argv):
    # numpy's "ValueError: expected non-negative integer" before, except
    # for sketch --seed
    mat, lab = gen_arcs(tmp_path, n1=10, n2=10)
    out = tmp_path / "out"
    out.mkdir()
    paths = {"mat": mat, "lab": lab, "out": out / "a", "out2": out / "b"}
    capsys.readouterr()
    assert run(*[str(a).format(**paths) for a in argv]) == 1
    assert capsys.readouterr().err == (
        "ArgumentError: seed must be a non-negative integer\n")
    assert list(out.iterdir()) == []


# the acceptance runs in a fresh interpreter with its worker count forced to
# argv[1]; prints, per run, the bytes of its outputs (as latin-1 text)
CONTRACT_SCRIPT = """
import json, sys
from pathlib import Path
from srskit import _parallel
from srskit.cli import main
_parallel.workers = lambda: int(sys.argv[1])
out = []
for argv, outputs in json.load(sys.stdin):
    assert main(argv) == 0, argv
    out.append([Path(p).read_bytes().decode("latin-1") for p in outputs])
print(json.dumps(out))
"""

# outputs that are bitwise only on a rerun in one environment (README,
# "Determinism"): eval error's value is a BLAS reduction
RERUN_ONLY = {("eval", "error")}


def test_outputs_do_not_depend_on_blas_threads_or_workers(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(srskit.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [(argv, [str(p) for p in outputs]) for argv, outputs in cli_runs(Path())]
    got = []
    for threads, workers in (("1", "2"), ("2", "1")):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        (tmp_path / threads).mkdir()
        done = subprocess.run(
            [sys.executable, "-c", CONTRACT_SCRIPT, workers], env=env, check=True,
            input=json.dumps(runs), cwd=tmp_path / threads, capture_output=True,
            text=True, timeout=300)
        got.append(json.loads(done.stdout))
    differ = [" ".join(argv[:2]) for (argv, _), a, b in zip(runs, *got)
              if tuple(argv[:2]) not in RERUN_ONLY and a != b]
    assert differ == []
    assert len(got[0]) == len(runs)
