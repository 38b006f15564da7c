"""One benchmark process: set up a workload, run its ops, check every output.

Started by ``run.py``, which sets the BLAS thread count in this process's
environment before numpy loads.  Not meant to be run by hand; see
``perfbench/README.md``.

Roles:

* ``ops``: import, generate the inputs and run one untimed warm-up op,
  timed from the moment ``run.py`` spawned us (the set-up time); then a
  closed loop of ops (one client, the next op starts only after the
  previous one finished and was checked) for the given number of seconds.
  The ops cycle through the op seeds, so each input repeats across the
  run.  With ``--trace 1`` every other pass over the op seeds is traced, so
  the untraced passes give the tracing overhead.
* ``record``: the same set-up, then one op per op seed; prints the output
  digests that ``reference.json`` stores.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shlex
import sys
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# The workload seed picks one of VARIANTS input sets and op k uses op seed
# k % OP_SEEDS, so every output has a digest recorded in reference.json.
# Few op seeds, so that a pass over them is short and a traced run
# alternates traced and untraced passes many times.
VARIANTS = 8
OP_SEEDS = 8

# The host-speed probe: a fixed pure-Python loop that touches no srskit
# code, timed next to every op and set-up.  run.py scales each time by the
# probe's reading.  See "Steadiness" in README.md.
PROBE_LOOPS = 40_000


def host_probe():
    """Seconds the probe loop takes now; the better of two tries."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def import_srskit():
    """Import srskit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "srskit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no srskit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import srskit
    import srskit.cli  # noqa: F401  (not imported by the package itself)

    if Path(srskit.__file__).resolve().parent != SRC / "srskit":
        sys.exit(f"perfbench: srskit imported from {srskit.__file__}, not {SRC}")
    return srskit


class CheckFailed(Exception):
    """An op's output differs from what it must be."""


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def read_data_lines(path):
    """(echo line, data lines) of an srskit output file."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise CheckFailed(f"{Path(path).name}: no command echo")
    return lines[0], [ln for ln in lines if not ln.startswith("#")]


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def run_cli(srskit, argv):
    """One in-process ``srskit`` command; a non-zero status fails the op."""
    status = srskit.cli.main(argv)
    if status != 0:
        raise CheckFailed(f"srskit {argv[0]} exited with {status}")


# ---------------------------------------------------------------------------
# workloads: setup() makes the inputs, op(s) is the timed call, check(s, out)
# validates its output, corrupt(out) damages it for the self-check


class CliSketch:
    """`srskit sketch` from one 11 MB CSV to indices and columns files."""

    SPEC = ((5, 5, 5, 5), (5000, 250, 125, 25))  # U4: dims, populations

    def __init__(self, srskit, work, variant):
        self.srskit, self.variant = srskit, variant
        self.matrix = str(work / "U4.csv")
        self.labels = str(work / "U4_labels.csv")
        self.idx = str(work / "idx.csv")
        self.cols = str(work / "cols.csv")
        self.D = None

    def setup(self):
        dims, pops = (",".join(map(str, v)) for v in self.SPEC)
        run_cli(self.srskit, [
            "gen", "subspaces", "--ambient", "100", "--dims", dims,
            "--pops", pops, "--seed", str(self.variant),
            "--out-matrix", self.matrix, "--out-labels", self.labels,
        ])

    def argv(self, s):
        return [
            "sketch", "--matrix", self.matrix, "--method", "srs", "--n", "200",
            "--embed", "sparse", "--embed-dim", "50", "--embed-seed", str(s),
            "--seed", str(s), "--out-indices", self.idx, "--out-columns", self.cols,
        ]

    def prepare(self, s):
        for path in (self.idx, self.cols):
            if os.path.exists(path):
                os.remove(path)

    def op(self, s):
        run_cli(self.srskit, self.argv(s))
        return (self.idx, self.cols)

    def check(self, s, out):
        import numpy as np

        if self.D is None:
            # read without srskit, so the check does not trust the reader it
            # tests, and require the file to round-trip the generated matrix
            D = np.loadtxt(self.matrix, delimiter=",", comments="#")
            spec = self.srskit.SubspaceSpec(100, *self.SPEC, seed=self.variant)
            expect(np.array_equal(D, self.srskit.synthgen.gen_union_subspaces(spec)[0]),
                   "U4.csv does not round-trip the generated matrix")
            self.D = D
        echo = "# " + shlex.join(["srskit"] + self.argv(s))
        head, rows = read_data_lines(out[0])
        expect(head == echo, "indices: wrong command echo")
        idx = np.array([int(r) for r in rows], dtype=np.int64)
        expect(idx.size == 200, f"indices: {idx.size} rows, expected 200")
        expect(np.unique(idx).size == 200, "indices: not distinct")
        expect(idx.min() >= 0 and idx.max() < self.D.shape[1], "indices: out of range")
        head, rows = read_data_lines(out[1])
        expect(head == echo, "columns: wrong command echo")
        want = [",".join(map(repr, row)) for row in self.D[:, idx].tolist()]
        expect(rows == want, "columns: bytes differ from D[:, indices]")
        return digest(idx.astype("<i8").tobytes())

    def corrupt(self, out):
        head, rows = read_data_lines(out[0])
        rows[0] = str((int(rows[0]) + 1) % self.D.shape[1])
        Path(out[0]).write_text("\n".join([head] + rows) + "\n")
        return out


class SrsLarge:
    """`sample_columns` srs, n=400, on a normalized 100 x 50,000 matrix."""

    N = 400

    def __init__(self, srskit, work, variant):
        self.srskit, self.variant = srskit, variant

    def setup(self):
        spec = self.srskit.SubspaceSpec(
            100, (10, 10, 10, 10), (40000, 6000, 3000, 1000), seed=self.variant
        )
        D, _ = self.srskit.synthgen.gen_union_subspaces(spec)
        self.X = self.srskit.matrix.normalize_columns(D)

    def prepare(self, s):
        pass

    def op(self, s):
        spec = self.srskit.SamplerSpec("srs", n=self.N, seed=s)
        return self.srskit.samplers.sample_columns(self.X, spec)

    def check(self, s, out):
        import numpy as np

        idx = np.asarray(out.indices)
        expect(idx.shape == (self.N,), f"indices: shape {idx.shape}")
        expect(np.unique(idx).size == self.N, "indices: not distinct")
        expect(idx.min() >= 0 and idx.max() < self.X.shape[1], "indices: out of range")
        expect(np.array_equal(out.columns, self.X[:, idx]), "columns differ from X[:, indices]")
        return digest(idx.astype("<i8").tobytes())

    def corrupt(self, out):
        import dataclasses

        # reversed selection order, with columns kept consistent
        return dataclasses.replace(out, indices=out.indices[::-1].copy(),
                                   columns=out.columns[:, ::-1].copy())


METHODS = "srs,srs_repl,ris,ris_repl,norm,leverage,volume"


class Experiments:
    """A fixed study of four `srskit exp` commands on small CSVs."""

    COV_N, COV_TRIALS, KM_SEEDS, RC_TRIALS, DRAWS = 20, 3, 2, 2, 800
    GRID = (4, 8, 16)

    def __init__(self, srskit, work, variant):
        self.srskit, self.variant = srskit, variant
        self.files = {name: str(work / f"{name}.csv") for name in (
            "S", "S_labels", "A", "A_labels", "cov", "km", "rc", "pr")}
        self.svgs = {name: str(work / f"{name}.svg") for name in ("cov", "rc")}

    def setup(self):
        f = self.files
        run_cli(self.srskit, [
            "gen", "subspaces", "--ambient", "100", "--dims", "3,3,3,3",
            "--pops", "300,100,50,25", "--seed", str(self.variant),
            "--out-matrix", f["S"], "--out-labels", f["S_labels"],
        ])
        # the README's arc pair
        run_cli(self.srskit, [
            "gen", "arcs", "--tau1", "1.2", "--tau2", "0.6", "--n1", "5000",
            "--n2", "50", "--seed", str(self.variant),
            "--out-matrix", f["A"], "--out-labels", f["A_labels"],
        ])

    def commands(self, s):
        f, s = self.files, str(s)
        return [
            ["exp", "coverage", "--matrix", f["S"], "--labels", f["S_labels"],
             "--methods", METHODS, "--n", str(self.COV_N), "--trials", str(self.COV_TRIALS),
             "--seed", s, "--out", f["cov"], "--svg", self.svgs["cov"]],
            ["exp", "kmeans", "--matrix", f["S"], "--labels", f["S_labels"], "--k", "4",
             "--sketch-n", str(self.COV_N), "--seeds", str(self.KM_SEEDS), "--seed", s,
             "--restarts", "5", "--out", f["km"]],
            ["exp", "rank-curve", "--matrix", f["S"], "--methods", "srs,ris",
             "--grid", ",".join(map(str, self.GRID)), "--trials", str(self.RC_TRIALS),
             "--seed", s, "--out", f["rc"], "--svg", self.svgs["rc"]],
            ["exp", "probability", "--matrix", f["A"], "--labels", f["A_labels"],
             "--draws", str(self.DRAWS), "--seed", s, "--estimator", "both",
             "--out", f["pr"]],
        ]

    def prepare(self, s):
        for path in [self.files[k] for k in ("cov", "km", "rc", "pr")] + list(self.svgs.values()):
            if os.path.exists(path):
                os.remove(path)

    def op(self, s):
        for argv in self.commands(s):
            run_cli(self.srskit, argv)
        return {k: self.files[k] for k in ("cov", "km", "rc", "pr")} | {
            k + "_svg": v for k, v in self.svgs.items()}

    @staticmethod
    def rows(path):
        _, lines = read_data_lines(path)
        expect(lines and lines[0] == "trial,method,x,cluster,value", f"{Path(path).name}: no header")
        return lines[1:]

    def check(self, s, out):
        cov, rc = self.rows(out["cov"]), self.rows(out["rc"])
        counts = {}
        for row in cov:
            t, m, x, cl, v = row.split(",")
            counts[(t, m)] = counts.get((t, m), 0.0) + float(v)
        expect(len(counts) == 7 * self.COV_TRIALS, "coverage: wrong method x trial rows")
        expect(all(c == self.COV_N for c in counts.values()), "coverage: counts do not sum to n")
        expect(len(rc) == 2 * self.RC_TRIALS * len(self.GRID), "rank-curve: wrong row count")
        km = [row.split(",") for row in self.rows(out["km"])]
        want = sorted((str(t), m) for t in range(self.KM_SEEDS) for m in ("full", "srs_sketch"))
        expect(sorted((r[0], r[1]) for r in km) == want, "kmeans: not one full and one srs_sketch row per seed")
        expect(all(float(r[4]) in (0.0, 1.0) for r in km), "kmeans: value outside {0, 1}")
        sums = {}
        for row in self.rows(out["pr"]):
            t, m, x, cl, v = row.split(",")
            expect(int(x) == self.DRAWS, "probability: wrong draw count")
            sums[m] = sums.get(m, 0.0) + float(v)
        expect(sorted(sums) == ["directions", "srs_repl"], "probability: missing estimator")
        expect(all(abs(v - 1.0) < 1e-9 for v in sums.values()), "probability: frequencies do not sum to 1")
        for key in ("cov_svg", "rc_svg"):
            text = Path(out[key]).read_text()
            expect(text.startswith("<svg") and text.rstrip().endswith("</svg>"), f"{key}: not an SVG")
        return digest("\n".join(cov), "\n".join(rc))

    def corrupt(self, out):
        path = out["cov"]
        lines = Path(path).read_text().splitlines()
        last = lines[-1].rsplit(",", 1)
        lines[-1] = f"{last[0]},{float(last[1]) + 1.0!r}"
        Path(path).write_text("\n".join(lines) + "\n")
        return out


WORKLOADS = {"cli_sketch": CliSketch, "srs_large": SrsLarge, "experiments": Experiments}


# ---------------------------------------------------------------------------


def blas_info(np):
    """BLAS name, version, build config and the thread count it runs with."""
    info = {"env_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"),
                    config=blas.get("openblas configuration"))
    except (KeyError, TypeError, AttributeError):
        pass
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                info["threads"] = int(getattr(handle, sym)())
                return info
    info["threads"] = None
    return info


class Reference:
    def __init__(self, workload, variant):
        data = json.loads((HERE / "reference.json").read_text())
        self.digests = data["digests"][workload][str(variant)]

    def verify(self, s, got):
        expect(got == self.digests[s], f"op seed {s}: digest {got} != reference {self.digests[s]}")


def check_op(wl, ref, s, out):
    """None when the output of op seed ``s`` is right, else why it is not."""
    try:
        ref.verify(s, wl.check(s, out))
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # output the checker cannot even parse
        return f"op seed {s}: unreadable output: {type(exc).__name__}: {exc}"
    return None


def run_ops(wl, ref, tracer, seconds, first_op):
    """Closed loop for ``seconds``; each op is checked outside its timing.

    Op ``k`` counts on from ``first_op``, the ops the run's earlier workers
    made, so the op seeds and traced passes cycle evenly over the run.  Each
    op's latency is stored with the better of the probe readings just before
    and just after it.
    """
    lat, traced_lat, failures, per_op = [], [], [], []
    k = first_op
    deadline = time.perf_counter() + seconds
    # a traced run makes at least two passes, so it has traced and untraced ops
    least = first_op + (1 if tracer is None else 2 * OP_SEEDS)
    while k < least or time.perf_counter() < deadline:
        s = k % OP_SEEDS
        traced = tracer is not None and (k // OP_SEEDS) % 2 == 1
        wl.prepare(s)
        gc.collect()
        probe = host_probe()
        if traced:
            tracer.reset()
            tracer.active = True
            tracer.enter(layers.OP)
        err = None
        t0 = time.perf_counter()
        try:
            out = wl.op(s)
        except Exception as exc:  # an op that raises counts as failed
            err = f"op seed {s}: {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if traced:
            span = tracer.exit()
            tracer.active = False
        probe = min(probe, host_probe())
        if traced:
            per_op.append({"dur": span, "self": dict(tracer.self_s),
                           "counts": dict(tracer.counts), "probe": probe})
            traced_lat.append([t1 - t0, probe])
        else:
            lat.append([t1 - t0, probe])
        if err is None:
            err = check_op(wl, ref, s, out)
            del out
        if err is not None:
            failures.append(err)
        k += 1
    result = {"latencies": lat, "failures": failures, "attempted": k - first_op}
    if tracer is not None:
        result.update(per_op=per_op, traced_latencies=traced_lat)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("ops", "record"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-op", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="perf_counter reading of the parent just before spawning")
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    variant = args.seed % VARIANTS
    srskit = import_srskit()
    import numpy as np

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        absent = tracer.install()
    wl = WORKLOADS[args.workload](srskit, work, variant)
    ref = None if args.role == "record" else Reference(args.workload, variant)

    if tracer:
        tracer.active = True
    wl.setup()
    if tracer:
        tracer.active = False
        setup_trace = dict(tracer.self_s)
        tracer.reset()
    wl.prepare(0)
    try:
        out, warmup_failure = wl.op(0), None
    except Exception as exc:  # a broken program fails its ops, not the benchmark
        out, warmup_failure = None, f"warm-up op: {type(exc).__name__}: {exc}"
    setup_s = time.perf_counter() - args.spawned

    result = {"setup_s": setup_s, "setup_probe": host_probe(), "variant": variant}
    if args.role == "record":
        if warmup_failure:
            sys.exit(warmup_failure)
        digests = []
        for s in range(OP_SEEDS):
            wl.prepare(s)
            digests.append(wl.check(s, wl.op(s)))
        result["digests"] = digests
        Path(args.out).write_text(json.dumps(result))
        return
    if warmup_failure is None:
        warmup_failure = check_op(wl, ref, 0, out)
    if warmup_failure is None:
        # self-check: a damaged output must fail the same check
        caught = check_op(wl, ref, 0, wl.corrupt(out))
        result["selfcheck"] = f"detected: {caught}" if caught else "missed"
    else:
        result["selfcheck"] = "not run: the warm-up op failed"
    result["warmup_failure"] = warmup_failure
    del out

    result.update(run_ops(wl, ref, tracer, args.seconds, args.first_op))
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        provenance={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(np),
            "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "variant": variant,
        },
    )
    if tracer:
        result.update(setup_trace=setup_trace, absent=absent)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
