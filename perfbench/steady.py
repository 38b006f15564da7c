"""Steadiness report: repeat the benchmark and compare spreads to bounds.

Run from the root of a checkout:

    python3 perfbench/steady.py --runs 10

Every workload in BENCHMARK.json runs ``--runs`` times for its
``run_seconds``.  Runs are interleaved (run r of every workload, then run
r+1, with the workload order rotated each round), because on a small
shared machine a median drifts between back-to-back batches; blocks of one
workload would read that drift as a difference between workloads.  Run r
uses seed ``FIRST_SEED + r``.

For each workload and end-to-end metric it prints the median, the
quartiles, the spread (q3 - q1) / median and the drift between the
medians of the even and the odd runs, both against the metric's bound in
BENCHMARK.json.  ``OVER`` marks a value above its bound, ``warn`` one
above a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def flag(value, bound):
    return "OVER" if value > bound else ("warn" if value > bound / 3 else "ok")


def summarize(values, better, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    even, odd = statistics.median(values[0::2]), statistics.median(values[1::2])
    # how much worse the second half reads than the first
    drift = (odd - even) / even if better == "lower" else (even - odd) / even
    spread = (q3 - q1) / med
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "drift": drift,
            "bound": bound, "spread_flag": flag(spread, bound), "drift_flag": flag(drift, bound)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("--runs must be at least 4 to give quartiles of both halves")
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        k = r % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            res = run_once(w, FIRST_SEED + r, bench["run_seconds"])
            results[w].append(res)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"run {r} {w}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {values}", file=sys.stderr)

    report = {}
    print(f"{'workload':12s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'drift':>7s} {'bound':>6s}  flags")
    for w in workloads:
        report[w] = {"correct": all(r["correct"] for r in results[w]),
                     "failed": sum(r["failed"] for r in results[w]), "metrics": {}}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results[w]]
            s = summarize(values, m["better"], m["bound"])
            report[w]["metrics"][m["name"]] = s
            print(f"{w:12s} {m['name']:12s} {s['median']:10.4g} {s['q1']:10.4g} {s['q3']:10.4g} "
                  f"{s['spread']:7.1%} {s['drift']:7.1%} {m['bound']:6.0%}  "
                  f"spread {s['spread_flag']}, drift {s['drift_flag']}")
    print(json.dumps({w: {"correct": v["correct"], "failed": v["failed"],
                          "over": [m for m, s in v["metrics"].items()
                                   if "OVER" in (s["spread_flag"], s["drift_flag"])]}
                      for w, v in report.items()}))


if __name__ == "__main__":
    main()
