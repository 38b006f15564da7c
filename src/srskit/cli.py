"""Command-line interface.

Four subcommands: ``gen`` writes synthetic matrices, ``sketch`` samples
columns, ``eval`` scores an existing sketch, ``exp`` runs multi-trial
experiments into report CSVs (and optional SVG plots).

Every run is fully determined by its flags: seeds are required wherever
randomness is involved, and each output file starts with a '#' comment
echoing the command line (SVG outputs carry the echo in an XML comment).
Usage errors exit with status 2.  Bad input exits with status 1 and one
stderr line naming the error: an ``SrskitError`` subclass, an ``OSError``
or a ``MemoryError``.  Any other exception is a bug, and ends in a
traceback.

The parser is built once per process, on the first ``main()`` call, so
in-process callers pay for it once; a shell run is unaffected.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import shlex
import sys

import numpy as np

from . import analysis, plots
from .embedding import KINDS, EmbeddingSpec, apply_embedding, build_embedding
from .errors import ShapeError, SrskitError, ZeroMatrixError, check_count, check_seed
from .io import (
    load_csv,
    load_indices,
    load_labels,
    save_csv,
    save_indices,
    save_labels,
    write_lines,
)
from .matrix import (
    DEFAULT_RANK_TOL,
    approximation_error,
    normalize_columns,
    numerical_rank,
)
from .samplers import METHODS, SamplerSpec, sample_columns, sampler_input
from .synthgen import ArcSpec, SubspaceSpec, gen_arc_clusters, gen_union_subspaces


def _int_list(text: str):
    try:
        values = tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("list must not be empty")
    return values


def _method_list(text: str):
    methods = tuple(part for part in text.split(",") if part != "")
    for m in methods:
        if m not in METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r}, expected one of {','.join(METHODS)}"
            )
    if not methods:
        raise argparse.ArgumentTypeError("need at least one method")
    return methods


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srskit",
        description="Spatial column sketching: generators, samplers, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write synthetic data as matrix + labels CSVs")
    gsub = gen.add_subparsers(dest="kind", required=True)

    arcs = gsub.add_parser("arcs", help="two arc clusters on the unit circle")
    arcs.add_argument("--tau1", type=float, required=True)
    arcs.add_argument("--tau2", type=float, required=True)
    arcs.add_argument("--n1", type=int, required=True)
    arcs.add_argument("--n2", type=int, required=True)
    arcs.add_argument("--center1", type=float, default=0.0)
    arcs.add_argument("--center2", type=float, default=math.pi / 2)
    arcs.add_argument("--seed", type=int, required=True)
    arcs.add_argument("--out-matrix", required=True)
    arcs.add_argument("--out-labels", required=True)
    arcs.set_defaults(func="_cmd_gen_arcs")

    subs = gsub.add_parser("subspaces", help="union of random low-dim subspaces")
    subs.add_argument("--ambient", type=int, required=True)
    subs.add_argument("--pops", type=_int_list, required=True,
                      help="comma-separated points per subspace")
    subs.add_argument("--dims", type=_int_list,
                      help="comma-separated subspace dimensions")
    subs.add_argument("--total-rank", type=int,
                      help="with --n-subspaces: equal dims summing to this")
    subs.add_argument("--n-subspaces", type=int)
    subs.add_argument("--seed", type=int, required=True)
    subs.add_argument("--out-matrix", required=True)
    subs.add_argument("--out-labels", required=True)
    subs.set_defaults(func="_cmd_gen_subspaces")

    sk = sub.add_parser("sketch", help="sample columns from a matrix CSV")
    sk.add_argument("--matrix", required=True)
    sk.add_argument("--method", choices=METHODS, required=True)
    sk.add_argument("--n", type=int, required=True)
    sk.add_argument("--seed", type=int, required=True)
    sk.add_argument("--leverage-k", type=int, default=None)
    sk.add_argument("--plain-norm", action="store_true",
                    help="norm sampling proportional to norms, not squares")
    sk.add_argument("--embed", choices=KINDS, default=None)
    sk.add_argument("--embed-dim", type=int, default=None)
    sk.add_argument("--embed-density", type=float, default=1.0 / 3.0)
    sk.add_argument("--embed-seed", type=int, default=None)
    sk.add_argument("--drop-zero-columns", action="store_true",
                    help="remove zero columns instead of aborting")
    sk.add_argument("--out-indices", required=True)
    sk.add_argument("--out-columns", default=None,
                    help="also write the selected original columns")
    sk.set_defaults(func="_cmd_sketch")

    ev = sub.add_parser("eval", help="score a matrix or an existing sketch")
    esub = ev.add_subparsers(dest="kind", required=True)

    rank = esub.add_parser("rank", help="numerical rank of a matrix CSV")
    rank.add_argument("--matrix", required=True)
    rank.add_argument("--rel-tol", type=float, default=DEFAULT_RANK_TOL)
    rank.add_argument("--out", default=None)
    rank.set_defaults(func="_cmd_eval_rank")

    err = esub.add_parser("error", help="relative projection error of a sketch")
    err.add_argument("--matrix", required=True)
    group = err.add_mutually_exclusive_group(required=True)
    group.add_argument("--columns", help="sketch columns as a matrix CSV")
    group.add_argument("--indices", help="sketch as indices into --matrix")
    err.add_argument("--out", default=None)
    err.set_defaults(func="_cmd_eval_error")

    cov = esub.add_parser("coverage", help="per-cluster counts of sampled indices")
    cov.add_argument("--labels", required=True)
    cov.add_argument("--indices", required=True)
    cov.add_argument("--n-clusters", type=int, default=None)
    cov.add_argument("--out", default=None)
    cov.set_defaults(func="_cmd_eval_coverage")

    exp = sub.add_parser("exp", help="multi-trial experiments -> report CSV")
    xsub = exp.add_subparsers(dest="kind", required=True)

    rc = xsub.add_parser("rank-curve", help="sketch rank vs sample count")
    rc.add_argument("--matrix", required=True)
    rc.add_argument("--methods", type=_method_list, required=True)
    rc.add_argument("--grid", type=_int_list, required=True)
    rc.add_argument("--trials", type=int, required=True)
    rc.add_argument("--seed", type=int, required=True)
    rc.add_argument("--leverage-k", type=int, default=None)
    rc.add_argument("--rel-tol", type=float, default=DEFAULT_RANK_TOL)
    rc.add_argument("--out", default=None)
    rc.add_argument("--svg", default=None)
    rc.set_defaults(func="_cmd_exp_rank_curve")

    xc = xsub.add_parser("coverage", help="per-cluster counts per method")
    xc.add_argument("--matrix", required=True)
    xc.add_argument("--labels", required=True)
    xc.add_argument("--methods", type=_method_list, required=True)
    xc.add_argument("--n", type=int, required=True)
    xc.add_argument("--trials", type=int, required=True)
    xc.add_argument("--seed", type=int, required=True)
    xc.add_argument("--leverage-k", type=int, default=None)
    xc.add_argument("--out", default=None)
    xc.add_argument("--svg", default=None)
    xc.set_defaults(func="_cmd_exp_coverage")

    pr = xsub.add_parser("probability", help="per-cluster spatial sampling frequency")
    pr.add_argument("--matrix", required=True)
    pr.add_argument("--labels", required=True)
    pr.add_argument("--draws", type=int, required=True)
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--estimator", choices=("srs", "directions", "both"),
                    default="srs")
    pr.add_argument("--out", default=None)
    pr.set_defaults(func="_cmd_exp_probability")

    bd = xsub.add_parser("bounds", help="sample-complexity bound calculators")
    bd.add_argument("--which", choices=("lemma2", "lemma3", "lemma4"),
                    required=True)
    bd.add_argument("--m", type=int, required=True)
    bd.add_argument("--delta", type=float, required=True)
    bd.add_argument("--beta", type=float, default=None)
    bd.add_argument("--n2", type=int, default=None, help="total column count")
    bd.add_argument("--min-pop", type=int, default=None,
                    dest="min_population", metavar="MIN_POP")
    bd.add_argument("--tau1", type=float, default=None)
    bd.add_argument("--tau2", type=float, default=None)
    bd.add_argument("--r", type=int, default=None)
    bd.add_argument("--s", type=int, default=None)
    bd.add_argument("--pops", type=_int_list, default=None,
                    dest="populations", metavar="POPS")
    bd.add_argument("--min-p", type=float, default=None)
    bd.add_argument("--c", type=float, default=1.0)
    bd.add_argument("--empirical", action="store_true",
                    help="also measure the success rate at the bound on arc data")
    bd.add_argument("--arc-n1", type=int, default=None)
    bd.add_argument("--arc-n2", type=int, default=None)
    bd.add_argument("--data-seed", type=int, default=None)
    bd.add_argument("--trials", type=int, default=None)
    bd.add_argument("--seed", type=int, default=None)
    bd.add_argument("--out", default=None)
    bd.set_defaults(func="_cmd_exp_bounds")

    km = xsub.add_parser("kmeans", help="balanced-centers check, full vs sketch")
    km.add_argument("--matrix", required=True)
    km.add_argument("--labels", required=True)
    km.add_argument("--k", type=int, required=True)
    km.add_argument("--sketch-n", type=int, required=True)
    km.add_argument("--seeds", type=int, required=True)
    km.add_argument("--seed", type=int, required=True)
    km.add_argument("--restarts", type=int, default=10)
    km.add_argument("--max-iters", type=int, default=100)
    km.add_argument("--out", default=None)
    km.set_defaults(func="_cmd_exp_kmeans")

    return parser


@functools.cache
def _parser():
    # one tree per process; main() resolves each ``func`` name at call time
    return build_parser()


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_gen_arcs(args, echo):
    spec = ArcSpec(
        tau1=args.tau1,
        tau2=args.tau2,
        n1=args.n1,
        n2=args.n2,
        center1=args.center1,
        center2=args.center2,
        seed=args.seed,
    )
    D, labels = gen_arc_clusters(spec)
    save_csv(D, args.out_matrix, comment=echo)
    save_labels(labels, args.out_labels, comment=echo)
    return 0


def _cmd_gen_subspaces(args, echo):
    if args.dims is not None:
        spec = SubspaceSpec(args.ambient, args.dims, args.pops, seed=args.seed)
    elif args.total_rank is not None and args.n_subspaces is not None:
        spec = SubspaceSpec.homogeneous(
            args.ambient, args.total_rank, args.n_subspaces, args.pops,
            seed=args.seed,
        )
    else:
        raise UsageError("need --dims, or --total-rank with --n-subspaces")
    D, labels = gen_union_subspaces(spec)
    save_csv(D, args.out_matrix, comment=echo)
    save_labels(labels, args.out_labels, comment=echo)
    return 0


def _drop_zero_columns(D):
    keep = np.flatnonzero(np.einsum("ij,ij->j", D, D) > 0.0)
    if keep.size == 0:
        raise ZeroMatrixError("all columns are zero")
    return np.ascontiguousarray(D[:, keep]), keep


def _cmd_sketch(args, echo):
    D = load_csv(args.matrix)
    keep = None
    if args.drop_zero_columns:
        D, keep = _drop_zero_columns(D)
    M = D
    if args.embed is not None:
        if args.embed_dim is None:
            raise UsageError("--embed requires --embed-dim")
        if args.embed_seed is None:
            raise UsageError("--embed requires --embed-seed")
        espec = EmbeddingSpec(
            kind=args.embed,
            p=args.embed_dim,
            density=args.embed_density,
            seed=args.embed_seed,
        )
        M = apply_embedding(build_embedding(espec, D.shape[0]), D)
    M = sampler_input(M, args.method)
    spec = SamplerSpec(
        method=args.method,
        n=args.n,
        seed=args.seed,
        leverage_k=args.leverage_k,
        norm_squared=not args.plain_norm,
    )
    result = sample_columns(M, spec)
    picked = result.indices
    if keep is not None:
        # report positions in the original matrix, not the filtered one
        result = dataclasses.replace(result, indices=keep[picked])
    save_indices(result, args.out_indices, comment=echo)
    if args.out_columns is not None:
        # original-space columns even when sampling ran on an embedding
        save_csv(D[:, picked], args.out_columns, comment=echo)
    return 0


def _out(args):
    """The file ``--out`` names, or stdout when it is omitted."""
    return sys.stdout if args.out is None else args.out


def _emit_lines(lines, echo, args):
    write_lines(_out(args), lines, echo)
    return 0


def _load_indices_below(path, size, what):
    idx = load_indices(path)  # never empty
    if idx.max() >= size:
        raise ShapeError(f"index {idx.max()} out of range for {size} {what}")
    return idx


def _cmd_eval_rank(args, echo):
    D = load_csv(args.matrix)
    value = numerical_rank(D, rel_tol=args.rel_tol)
    return _emit_lines([f"rank,{value}"], echo, args)


def _cmd_eval_error(args, echo):
    D = load_csv(args.matrix)
    if args.columns is not None:
        C = load_csv(args.columns)
    else:
        C = D[:, _load_indices_below(args.indices, D.shape[1], "columns")]
    value = approximation_error(D, C)
    return _emit_lines([f"error,{value!r}"], echo, args)


def _cmd_eval_coverage(args, echo):
    labels = load_labels(args.labels, n_clusters=args.n_clusters)
    idx = _load_indices_below(args.indices, len(labels), "labels")
    counts = np.bincount(labels.values[idx], minlength=labels.n_clusters)
    lines = ["cluster,count"]
    lines += [f"{cl},{int(c)}" for cl, c in enumerate(counts)]
    return _emit_lines(lines, echo, args)


def _write_report(report, args, echo):
    report.to_csv(_out(args), comment=echo)
    return 0


def _specs(args, n):
    """One spec per ``--methods`` entry; only leverage reads ``leverage_k``."""
    return [SamplerSpec(m, n, leverage_k=args.leverage_k) for m in args.methods]


def _cmd_exp_rank_curve(args, echo):
    D = load_csv(args.matrix)
    rows = []
    # rank_curve grows each sketch to the largest grid size
    for spec in _specs(args, 1):
        rep = analysis.rank_curve(
            D, spec, args.grid, args.trials, args.seed, rel_tol=args.rel_tol
        )
        rows.extend(rep.rows)
    report = analysis.ExperimentReport(
        tuple(rows),
        {
            "experiment": "rank_curve",
            "seed": args.seed,
            "trials": args.trials,
            "methods": ",".join(args.methods),
        },
    )
    _write_report(report, args, echo)
    if args.svg is not None:
        plots.rank_curve_svg(report, args.svg, comment=echo)
    return 0


def _cmd_exp_coverage(args, echo):
    D = load_csv(args.matrix)
    labels = load_labels(args.labels)
    report = analysis.coverage_experiment(
        D, labels, _specs(args, args.n), args.n, args.trials, args.seed
    )
    _write_report(report, args, echo)
    if args.svg is not None:
        plots.coverage_svg(report, labels.n_clusters, args.svg, comment=echo)
    return 0


def _cmd_exp_probability(args, echo):
    # the estimators would name their own counts, n and T
    check_count("draws", args.draws)
    check_seed(args.seed)
    D = load_csv(args.matrix)
    labels = load_labels(args.labels)
    X = normalize_columns(D)
    rng = np.random.default_rng(args.seed)
    rows = []
    # both estimators, in this order, draw from the one generator
    for estimator, method, estimate in (
        ("srs", "srs_repl", analysis.empirical_sampling_probabilities),
        ("directions", "directions", analysis.estimate_region_areas),
    ):
        if args.estimator in (estimator, "both"):
            fracs = estimate(X, labels, args.draws, rng)
            rows += [
                (0, method, args.draws, cl, float(f)) for cl, f in enumerate(fracs)
            ]
    report = analysis.ExperimentReport(
        tuple(rows),
        {"experiment": "probability", "seed": args.seed, "draws": args.draws},
    )
    return _write_report(report, args, echo)


def _cmd_exp_bounds(args, echo):
    # the flags of exp bounds are named after the BoundParams fields, and
    # building them checks --c for every --which
    params = analysis.BoundParams(**{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(analysis.BoundParams)
    })
    if not args.empirical:
        value = getattr(analysis, f"{args.which}_bound")(params)
        rows = [(0, f"{args.which}_bound", args.m, None, value)]
    else:
        if args.which == "lemma4":
            raise UsageError("--empirical supports lemma2 and lemma3 only")
        needed = (args.tau1, args.tau2, args.arc_n1, args.arc_n2,
                  args.data_seed, args.trials, args.seed)
        if any(v is None for v in needed):
            raise UsageError(
                "--empirical needs --tau1 --tau2 --arc-n1 --arc-n2 "
                "--data-seed --trials --seed"
            )
        if args.which == "lemma2" and (args.n2, args.min_population) != (None, None):
            raise UsageError("--empirical --which lemma2 takes the populations "
                             "from --arc-n1 and --arc-n2, not --n2 or --min-pop")
        arc = ArcSpec(
            tau1=args.tau1, tau2=args.tau2, n1=args.arc_n1, n2=args.arc_n2,
            seed=args.data_seed,
        )
        value, rate = analysis.lemma_empirical(
            args.which, arc, args.m, args.delta, args.trials, args.seed,
            beta=args.beta,
        )
        rows = [
            (0, f"{args.which}_bound", args.m, None, value),
            (0, f"{args.which}_empirical", math.ceil(value), None, rate),
        ]
    report = analysis.ExperimentReport(
        tuple(rows), {"experiment": "bounds", "which": args.which}
    )
    return _write_report(report, args, echo)


def _cmd_exp_kmeans(args, echo):
    D = load_csv(args.matrix)
    labels = load_labels(args.labels)
    report = analysis.kmeans_balance_experiment(
        D, labels, args.k, args.sketch_n, args.seeds, args.seed,
        restarts=args.restarts, max_iters=args.max_iters,
    )
    return _write_report(report, args, echo)


class UsageError(Exception):
    """Flag combinations argparse cannot express; exits with status 2."""


def main(argv=None) -> int:
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    args = _parser().parse_args(raw)
    echo = shlex.join(["srskit"] + raw)
    try:
        # every output starts with the echo, so check it can be written
        # before any file is opened; an argument that is not UTF-8
        # arrives with lone surrogates in it
        for arg in raw:
            try:
                arg.encode("utf-8")
            except UnicodeEncodeError:
                raise UsageError(f"argument {ascii(arg)} is not UTF-8") from None
        return globals()[args.func](args, echo)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SrskitError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy raises a subclass named _ArrayMemoryError
        print(f"MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
