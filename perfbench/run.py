"""srskit benchmark: three closed-loop workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_sketch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload srs_large --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it holds provenance and run details.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from worker import OP_SEEDS, VARIANTS, WORKLOADS, host_probe  # noqa: E402

# One BLAS thread for the process under test, whatever the caller's
# environment says: the workloads are single-client, and a second thread
# on a small shared box mostly adds run-to-run noise.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# No transparent huge pages for numpy's large arrays: whether the kernel
# finds free huge pages depends on how fragmented memory is, and it moved
# an srs_large op between 0.22 and 0.30 s from one process to the next.
# With 4 KiB pages the same op takes 0.34-0.37 s in every process.
NUMPY_ENV = {"NUMPY_MADVISE_HUGEPAGE": "0"}

# A run is split over this many worker processes, one after the other.  Each
# sets up (one set-up sample) and then runs its share of the ops time, so
# the set-up samples are spread over the run like the ops are: the machine's
# speed drifts on a scale of seconds to minutes, and set-ups back to back
# would all land in one phase of it.
WORKERS = 6
WORKER_TIMEOUT_S = 150.0
MIN_TAIL_BEYOND = 10

# Every time metric is scaled to a host on which worker.host_probe() reads
# this many seconds, this machine's fast state: time * PROBE_REF_S / probe.
PROBE_REF_S = 2.0e-3


def provenance_of_tree():
    """Git commit when there is one, and a digest of the srskit sources."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=20)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "srskit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16]}


def spawn(role, workload, seed, work, seconds=0.0, trace=0, first_op=0):
    """Run one worker to completion and return its result dict."""
    out = work / f"{role}-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS}, **NUMPY_ENV)
    argv = [sys.executable, str(HERE / "worker.py"), "--role", role,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--first-op", str(first_op),
            "--work", str(work / role), "--out", str(out)]
    probe = host_probe()
    spawned = time.perf_counter()
    proc = subprocess.Popen(argv + ["--spawned", repr(spawned)], cwd=ROOT, env=env)
    try:
        status = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: {role} worker timed out")
    if status != 0 or not out.exists():
        sys.exit(f"perfbench: {role} worker failed with status {status}")
    result = json.loads(out.read_text())
    # the probe just before the spawn and the worker's just after set-up
    result["setup_probe"] = min(probe, result["setup_probe"])
    return result


def tail(latencies):
    """Highest percentile with at least MIN_TAIL_BEYOND ops beyond it."""
    lat = sorted(latencies)
    j = max(0, len(lat) - MIN_TAIL_BEYOND - 1)
    return lat[j], 100.0 * (j + 1) / len(lat)


def scaled(timed):
    """[time, probe] pairs as times on the reference host."""
    return [t * PROBE_REF_S / probe for t, probe in timed]


def merge(parts):
    """One result from the workers of a run."""
    ops = {key: [x for p in parts for x in p.get(key, [])]
           for key in ("latencies", "traced_latencies", "failures", "per_op")}
    ops.update(
        attempted=sum(p["attempted"] for p in parts),
        setups=[[p["setup_s"], p["setup_probe"]] for p in parts],
        workers=[{"setup_s": p["setup_s"], "setup_probe_s": p["setup_probe"],
                  "ops": len(p["latencies"]),
                  "op_p50_s": statistics.median(t for t, _ in p["latencies"])}
                 for p in parts],
        selfcheck=[p["selfcheck"] for p in parts],
        warmup_failures=[p["warmup_failure"] for p in parts if p["warmup_failure"]],
        peak_rss_mb=max(p["peak_rss_mb"] for p in parts),
    )
    if "setup_trace" in parts[0]:
        layers_seen = {layer for p in parts for layer in p["setup_trace"]}
        ops["setup_trace"] = {
            layer: statistics.median(p["setup_trace"].get(layer, 0.0) * PROBE_REF_S
                                     / p["setup_probe"] for p in parts)
            for layer in layers_seen}
        ops["absent"] = parts[0]["absent"]
    return ops


def end_to_end(ops):
    """The five end-to-end metrics, in reference-host seconds.

    Other tenants of a shared host slow every process by up to 1.8x, for
    seconds to many minutes at a time, so raw times of the same code differ
    by a third from run to run.  Each op and set-up is timed with the host
    probe next to it and scaled by that reading; the details line keeps the
    raw figures.
    """
    lat = scaled(ops["latencies"])
    raw = [t for t, _ in ops["latencies"]]
    value, pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(scaled(ops["setups"])), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (ops["peak_rss_mb"], "MB"),
    }
    details = {"op_tail_percentile": pct, "ops": len(lat),
               "probe_ref_s": PROBE_REF_S,
               "probe_p50_s": statistics.median(p for _, p in ops["latencies"]),
               "raw_setup_s": statistics.median(t for t, _ in ops["setups"]),
               "raw_op_p50_s": statistics.median(raw), "raw_ops_per_s": len(raw) / sum(raw),
               "workers": ops["workers"]}
    return metrics, details


def per_layer(ops):
    """Mean per traced op of every layer metric; set-up ones per set-up (median).

    Times are scaled by the probe reading of their op or set-up, like the
    end-to-end ones.
    """
    runs = ops["per_op"]
    absent = set(ops["absent"])
    n = len(runs)

    def mean_self(layer):
        return sum(r["self"].get(layer, 0.0) * PROBE_REF_S / r["probe"] for r in runs) / n

    def mean_count(name):
        return sum(r["counts"].get(name, 0.0) for r in runs) / n

    values = {m: mean_self(layer) for m, layer in layers.SELF_METRICS.items()}
    values["synthgen.gen_s"] = ops["setup_trace"].get("synthgen.gen", 0.0)
    values["setup.io.save_s"] = ops["setup_trace"].get("io.save", 0.0)
    for name in ("io.read_mb", "io.write_mb", "samplers.project_gflop", "select.rows",
                 "lloyd.iters", "lloyd.calls", "samplers.peak_alloc_mb",
                 "analysis.peak_alloc_mb"):
        values[name] = mean_count(name)
    load_s = values["io.load_s"]
    values["io.read_mb_per_s"] = values["io.read_mb"] / load_s if load_s else 0.0
    rows = values["select.rows"]
    values["select.collision_frac"] = mean_count("select.collisions") / rows if rows else 0.0
    values["op.traced_s"] = sum(r["dur"] * PROBE_REF_S / r["probe"] for r in runs) / n
    values["trace.overhead_frac"] = (statistics.median(scaled(ops["traced_latencies"]))
                                     / statistics.median(scaled(ops["latencies"])) - 1.0)

    metrics = {}
    for name, (unit, needs) in layers.PER_LAYER.items():
        if needs and all(layer in absent for layer in needs):
            metrics[name] = {"value": 0.0, "unit": unit, "absent": True}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    first = runs[0]
    details = {
        "traced_ops": n,
        "absent_layers": sorted(absent),
        "first_op": {"duration_s": first["dur"], "self_s": first["self"],
                     "self_sum_s": sum(first["self"].values())},
    }
    return metrics, details


def record(work):
    """Run every op seed of every variant and store the output digests."""
    digests = {}
    for name in WORKLOADS:
        digests[name] = {}
        for variant in range(VARIANTS):
            res = spawn("record", name, variant, work)
            digests[name][str(variant)] = res["digests"]
            print(f"recorded {name} variant {variant}", file=sys.stderr)
    ref = {"recorded_at": provenance_of_tree(), "variants": VARIANTS,
           "op_seeds": OP_SEEDS, "digests": digests}
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record reference digests from the current sources")
    args = ap.parse_args()
    if not (ROOT / "src" / "srskit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no srskit sources under {ROOT / 'src'}")
    if not args.record:
        if args.workload is None:
            ap.error("--workload is required")
        if not (HERE / "reference.json").is_file():
            sys.exit("perfbench: reference.json missing; run with --record first")

    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        if args.record:
            record(work)
            return
        parts = []
        for _ in range(WORKERS):
            done = sum(p["attempted"] for p in parts)
            parts.append(spawn("ops", args.workload, args.seed, work,
                               args.seconds / WORKERS, args.trace, done))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    ops = merge(parts)
    if args.trace:
        metrics, details = per_layer(ops)
    else:
        metrics, details = end_to_end(ops)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    failures = ops["failures"]
    details.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                   selfcheck=ops["selfcheck"], failures=failures[:5],
                   warmup_failures=ops["warmup_failures"][:5],
                   provenance=parts[0]["provenance"] | provenance_of_tree())
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures and not ops["warmup_failures"]
                   and all(c.startswith("detected") for c in ops["selfcheck"]),
        "attempted": ops["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))

if __name__ == "__main__":
    main()
