#!/usr/bin/env python3
"""Exact-repeat test of the benchmark's count metrics.

For each workload, runs perfbench/run.py with --trace 0 and --trace 1 for
seed A twice and for seed B once. The count metrics (taken over the count
window, see README.md) must be identical across the two seed-A runs, and
store_cost_per_read must differ for seed B. Timings are not compared.

Usage (from the repository root):

    python3 perfbench/check_repeat.py [workload ...]

Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["serve_warm", "adhoc_rewrite", "join_ingest"]
SEED_A, SEED_B = 11, 12
COUNT_METRICS = [
    "store_cost_per_read",
    "runtime.plan_cache_hit_rate",
    "pacb.candidates_verified",
    "pacb.backchase_atoms",
    "pacb.rewritings_per_candidate",
    "engine.rows_in_per_row_out",
] + [f"stores.{s}.{m}"
     for s in ["postgres", "redis", "mongodb", "spark", "solr"]
     for m in ["ops_per_read", "rows_scanned_per_read", "cost_per_read"]]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: run not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def counts(workload, seed):
    metrics = {**run(workload, seed, 0), **run(workload, seed, 1)}
    return {k: metrics[k] for k in COUNT_METRICS}


def main():
    for workload in sys.argv[1:] or WORKLOADS:
        first, second = counts(workload, SEED_A), counts(workload, SEED_A)
        other = counts(workload, SEED_B)
        diff = [k for k in COUNT_METRICS if first[k] != second[k]]
        if diff:
            sys.exit(f"{workload}: seed {SEED_A} counts differ between runs: "
                     + ", ".join(f"{k} {first[k]} vs {second[k]}"
                                 for k in diff))
        if other["store_cost_per_read"] == first["store_cost_per_read"]:
            sys.exit(f"{workload}: store_cost_per_read is the same for seeds "
                     f"{SEED_A} and {SEED_B}")
        print(f"{workload}: counts repeat exactly for seed {SEED_A} and "
              f"change for seed {SEED_B}")


if __name__ == "__main__":
    main()
