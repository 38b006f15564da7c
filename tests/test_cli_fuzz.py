"""A property over the argv of every subcommand: whatever its flags, ``main``
exits 0, 1 or 2 and raises nothing else; an exit 1 prints one stderr line
naming an ``SrskitError`` subclass, an ``OSError`` or a ``MemoryError``; and
a command that fails leaves no output file.

Each draw takes a valid command line and changes one or two of its flags.
Size flags draw from values at and around the fixture's column count, past
any array, not a number or empty.  Loop counts (``--trials``, ``--seeds``,
``--draws``, ``--restarts``, ``--max-iters``) draw only small values: a huge
valid count runs for hours.
"""

import builtins
import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srskit import SubspaceSpec, errors, gen_union_subspaces, save_csv, save_labels
from srskit.cli import main

N2 = 12  # columns of the fixture matrix
OMIT = object()  # the flag is left out
NOT_UTF8 = "\udcff"  # how a non-UTF-8 byte of an argument reaches argv
ODD = [OMIT, NOT_UTF8, ""]


def values(*choices):
    return st.sampled_from([*choices, *ODD])


SIZE = values(-1, 0, 1, 2, N2, N2 + 1, 2**63, 10**21, "nan", "inf")
LOOP = values(-1, 0, 1, 2)
SEED = values(-1, 0, 1, 2**63, 10**21)
FLOAT = values(-1.0, 0.0, 0.3, 0.6, 1.0, 4.0, 1e-320, 1e308, "nan", "inf", "-inf")
LIST = values("6,6", "2,2", "0", "-1", f"{N2},1", f"1,{N2 + 1}", f"2,{2**63}",
              f"1,{10**21}", ",")
FILES = ("matrix", "huge", "tiny", "labels", "indices", "columns", "zero", "empty",
         "bad", "missing")
INPUTS = ("--matrix", "--labels", "--indices", "--columns")


def path(name):
    """The file a flag names: the right one first, then any."""
    return st.sampled_from([name, *FILES])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The input files a flag may name, by name."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {name: root / f"{name}.csv" for name in FILES}
    D, labels = gen_union_subspaces(SubspaceSpec(4, (2, 2), (6, 6), seed=0))
    save_csv(D, paths["matrix"])
    save_labels(labels, paths["labels"])
    paths["indices"].write_text("3\n0\n11\n")
    save_csv(D[:, [3, 0]], paths["columns"])
    # the matrix past float64's range for its squares, both ways
    save_csv(D * 2.0**600, paths["huge"])
    save_csv(D * 2.0**-600, paths["tiny"])
    D[:, 5] = 0.0
    save_csv(D, paths["zero"])
    paths["empty"].write_text("# nothing\n")
    paths["bad"].write_bytes(b"1.0,\xff\n")
    return {name: str(p) for name, p in paths.items()}


MATRIX_LABELS = {"--matrix": path("matrix"), "--labels": path("labels")}
ARC_FLAGS = {"--tau1": FLOAT, "--tau2": FLOAT, "--center1": FLOAT,
             "--center2": FLOAT, "--n1": SIZE, "--n2": SIZE, "--seed": SEED}
SUBSPACE_FLAGS = {"--ambient": SIZE, "--pops": LIST, "--dims": LIST,
                  "--total-rank": SIZE, "--n-subspaces": SIZE, "--seed": SEED}
BOUND_FLAGS = {
    "--which": st.sampled_from(["lemma2", "lemma3", "lemma4"]),
    "--m": SIZE, "--delta": FLOAT, "--beta": FLOAT, "--n2": SIZE,
    "--min-pop": SIZE, "--tau1": FLOAT, "--tau2": FLOAT, "--r": SIZE,
    "--s": SIZE, "--pops": LIST, "--min-p": FLOAT, "--c": FLOAT,
    "--empirical": st.just(True), "--arc-n1": SIZE, "--arc-n2": SIZE,
    "--data-seed": SEED, "--trials": LOOP, "--seed": SEED,
}
EMPIRICAL = {"--which": "lemma3", "--m": 2, "--delta": 0.1, "--tau1": 1.2,
             "--tau2": 0.6, "--empirical": True, "--arc-n1": 6, "--arc-n2": 6,
             "--data-seed": 0, "--trials": 2, "--seed": 0}

# each command line a draw starts from, by its command (and after a '/', its
# form): valid flags, the flags a draw may change with the values each
# draws from, and the output flags
COMMANDS = {
    "gen arcs": (
        {"--tau1": 1.2, "--tau2": 0.6, "--n1": 6, "--n2": 6, "--seed": 0},
        ARC_FLAGS, ("--out-matrix", "--out-labels")),
    "gen subspaces": (
        {"--ambient": 4, "--pops": "6,6", "--dims": "2,2", "--seed": 0},
        SUBSPACE_FLAGS, ("--out-matrix", "--out-labels")),
    "gen subspaces/total-rank": (
        {"--ambient": 4, "--pops": "6,6", "--total-rank": 4,
         "--n-subspaces": 2, "--seed": 0},
        SUBSPACE_FLAGS, ("--out-matrix", "--out-labels")),
    "sketch": (
        {"--matrix": "matrix", "--method": "srs", "--n": 3, "--seed": 0,
         "--out-columns": True},
        {"--matrix": path("matrix"),
         "--method": st.sampled_from(["srs", "srs_repl", "ris", "ris_repl",
                                      "norm", "leverage", "volume", "none"]),
         "--n": SIZE, "--seed": SEED, "--leverage-k": SIZE,
         "--plain-norm": st.just(True),
         "--embed": st.sampled_from(["rows", "gaussian", "sparse",
                                     "rademacher"]),
         "--embed-dim": SIZE, "--embed-density": FLOAT, "--embed-seed": SEED,
         "--drop-zero-columns": st.just(True), "--out-columns": st.just(OMIT)},
        ("--out-indices",)),
    "sketch/embed": (
        {"--matrix": "matrix", "--method": "srs", "--n": 3, "--seed": 0,
         "--embed": "gaussian", "--embed-dim": 3, "--embed-seed": 0},
        {"--embed": st.sampled_from(["rows", "sparse", "rademacher"]),
         "--embed-dim": SIZE, "--embed-density": FLOAT, "--embed-seed": SEED,
         "--method": st.sampled_from(["srs_repl", "volume"]), "--n": SIZE},
        ("--out-indices",)),
    "eval rank": (
        {"--matrix": "matrix"},
        {"--matrix": path("matrix"), "--rel-tol": FLOAT}, ("--out",)),
    "eval error": (
        {"--matrix": "matrix", "--indices": "indices"},
        {"--matrix": path("matrix"), "--indices": path("indices"),
         "--columns": path("columns")}, ("--out",)),
    "eval coverage": (
        {"--labels": "labels", "--indices": "indices"},
        {"--labels": path("labels"), "--indices": path("indices"),
         "--n-clusters": SIZE}, ("--out",)),
    "exp rank-curve": (
        {"--matrix": "matrix", "--methods": "srs,ris", "--grid": "2,4",
         "--trials": 2, "--seed": 0},
        {"--matrix": path("matrix"),
         "--methods": values("srs,volume", "norm,leverage", "srs_repl",
                             "srs,none"),
         "--grid": LIST, "--trials": LOOP, "--seed": SEED,
         "--leverage-k": SIZE, "--rel-tol": FLOAT}, ("--out", "--svg")),
    "exp coverage": (
        {"--matrix": "matrix", "--labels": "labels", "--methods": "srs,ris",
         "--n": 3, "--trials": 2, "--seed": 0},
        {**MATRIX_LABELS,
         "--methods": values("srs,volume", "norm,leverage", "ris_repl"),
         "--n": SIZE, "--trials": LOOP, "--seed": SEED, "--leverage-k": SIZE},
        ("--out", "--svg")),
    "exp probability": (
        {"--matrix": "matrix", "--labels": "labels", "--draws": 5, "--seed": 0},
        {**MATRIX_LABELS, "--draws": LOOP, "--seed": SEED,
         "--estimator": st.sampled_from(["srs", "directions", "both"])},
        ("--out",)),
    "exp bounds": (
        {"--which": "lemma3", "--m": 2, "--delta": 0.1, "--tau1": 1.2,
         "--tau2": 0.6}, BOUND_FLAGS, ("--out",)),
    "exp bounds/empirical": (EMPIRICAL, BOUND_FLAGS, ("--out",)),
    "exp kmeans": (
        {"--matrix": "matrix", "--labels": "labels", "--k": 2,
         "--sketch-n": 4, "--seeds": 1, "--seed": 0, "--restarts": 1,
         "--max-iters": 5},
        {**MATRIX_LABELS, "--k": SIZE, "--sketch-n": SIZE, "--seeds": LOOP,
         "--seed": SEED, "--restarts": LOOP, "--max-iters": LOOP},
        ("--out",)),
}


def changed(name):
    """The flags of the command line ``name``: its valid ones, one or two
    of them changed."""
    valid, vary, _ = COMMANDS[name]
    flags = st.lists(st.sampled_from(sorted(vary)), min_size=1, max_size=2,
                     unique=True)
    return flags.flatmap(lambda names: st.fixed_dictionaries(
        {flag: vary[flag] for flag in names})).map(lambda new: {**valid, **new})


def argv_of(name, flags, files, out_dir):
    argv = name.split("/")[0].split()
    for flag, value in flags.items():
        if value is OMIT:
            continue
        argv.append(flag)
        if flag == "--out-columns":
            argv.append(str(out_dir / "columns.csv"))
        elif value is not True:
            argv.append(files[value] if flag in INPUTS else str(value))
    for flag in COMMANDS[name][2]:
        argv += [flag, str(out_dir / flag.lstrip("-"))]
    return argv


def named_error(line):
    """The exception class a diagnostic line starts with, or None."""
    name = line.split(":", 1)[0]
    return getattr(errors, name, None) or getattr(builtins, name, None)


@pytest.mark.parametrize("name", sorted(COMMANDS),
                         ids=lambda name: name.replace(" ", "-"))
@settings(deadline=None, max_examples=80, derandomize=True)
@given(data=st.data())
def test_main_exits_0_1_or_2_and_a_failure_writes_nothing(files, name, data):
    flags = data.draw(changed(name))
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        argv = argv_of(name, flags, files, out_dir)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        message = err.getvalue()
        assert rc in (0, 1, 2), (argv, message)
        if rc == 1:
            error = named_error(message)
            assert isinstance(error, type) and issubclass(
                error, (errors.SrskitError, OSError, MemoryError)), (argv, message)
            assert message.endswith("\n") and message.count("\n") == 1, argv
        if rc != 0:
            assert list(out_dir.iterdir()) == [], (argv, message)
