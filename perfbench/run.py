#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

With --trace 0 the run is TRIALS trials, each a separate perfbench process
with its own set-up and its own operation sequence (seed * 100 + trial),
measuring for a TRIALS-th of --seconds. This script pools the trials'
samples into the end-to-end metrics. With --trace 1 it runs one traced
process on the first trial's sequence and passes its per-layer metrics on;
the spans are written beside the binary as trace-<workload>.jsonl.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and its output to stderr. The last line of stdout is the JSON result
{correct, attempted, failed, metrics}. See perfbench/README.md.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
TRIALS = 10

current = None  # The perfbench process running now, if any.


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def stop_current():
    if current is not None and current.poll() is None:
        os.killpg(current.pid, signal.SIGKILL)
        current.wait()


def on_signal(signum, _frame):
    stop_current()
    sys.exit(128 + signum)


def run(cmd, deadline=None, stdout=subprocess.PIPE):
    """Runs cmd in its own process group, so that a timeout or a signal
    to this script stops it and what it starts; returns its stdout lines."""
    global current
    sys.stdout.flush()
    current = subprocess.Popen(cmd, stdout=stdout, text=True,
                               start_new_session=True)
    try:
        out, _ = current.communicate(
            timeout=None if deadline is None else
            max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        stop_current()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    code = current.returncode
    current = None
    if code != 0:
        fail(f"{' '.join(cmd)} exited with {code}")
    return (out or "").splitlines()


def build(build_dir):
    if not os.path.isdir(os.path.join(HERE, "..", "src")):
        fail("no src/ beside perfbench/: run from a full checkout")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def quantile(values, q):
    """Nearest-rank quantile, as perfbench.cc computes it."""
    v = sorted(values)
    return v[int(q * (len(v) - 1))] if v else 0.0


def tail(values, q, what):
    n = len(values)
    beyond = n - 1 - int(q * (n - 1)) if n else 0
    print(f"{what}: {n} samples, {beyond} beyond")
    if beyond < 10:
        print(f"warning: {what} has too few samples")
    return quantile(values, q)


def pool(trials):
    """The end-to-end metrics of a --trace 0 run from its trial records.

    The latency samples of all trials, each scaled by the host probe around
    it, are pooled. setup_s (scaled by its trial's probe median) and
    peak_rss_mb are medians over the trials, store_cost_per_read the mean
    of their count windows. The raw (unscaled) figures are printed beside.
    """
    read, write, raw_read, raw_write = [], [], [], []
    for t in trials:
        read += t["read_scaled_us"]
        write += t["write_scaled_us"]
        raw_read += t["read_us"]
        raw_write += t["write_us"]
    print(f"host probe median over trials "
          f"{statistics.median(t['probe_us'] for t in trials):.3f}us")
    print(f"raw: read p50 {quantile(raw_read, 0.5):.1f}us, read p99 "
          f"{quantile(raw_read, 0.99):.1f}us, write p50 "
          f"{quantile(raw_write, 0.5):.1f}us, setup "
          f"{statistics.median(t['setup_s'] for t in trials):.4f}s")
    # Printed, not reported: too few inserts for a gated tail.
    print(f"write p95 {tail(write, 0.95, 'write p95'):.1f}us")
    metrics = [
        ("read_p50_us", quantile(read, 0.5), "us"),
        ("read_p99_us", tail(read, 0.99, "read_p99_us"), "us"),
        ("write_p50_us", quantile(write, 0.5), "us"),
        ("store_cost_per_read",
         statistics.fmean(t["cost_per_read"] for t in trials), "cost/read"),
        ("peak_rss_mb", statistics.median(t["peak_rss_mb"] for t in trials),
         "MB"),
        ("setup_s", statistics.median(t["setup_s"] * t["time_scale"]
                                      for t in trials), "s"),
    ]
    for name, value, unit in metrics:
        print(f"{name:36s} {value:16.6f} {unit}")
    return {
        "correct": all(t["correct"] for t in trials),
        "attempted": sum(t["attempted"] for t in trials),
        "failed": sum(t["failed"] for t in trials),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics},
    }


def main():
    args = sys.argv[1:]
    opts = dict(zip(args[::2], args[1::2]))
    if len(args) % 2 or not {"--workload", "--seed", "--seconds",
                             "--trace"} <= opts.keys():
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    try:
        seed, seconds = int(opts["--seed"]), float(opts["--seconds"])
    except ValueError:
        fail("--seed must be an integer and --seconds a number")
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    binary = build(build_dir)
    deadline = time.time() + RUN_TIMEOUT_S
    base = [binary, "--workload", opts["--workload"]]

    def trial_seed(t):
        return str(seed * 100 + t)

    if opts["--trace"] == "1":
        trace_out = os.path.join(build_dir,
                                 f"trace-{opts['--workload']}.jsonl")
        lines = run(base + ["--seed", trial_seed(0), "--seconds",
                            str(seconds), "--trace", "1", "--trace-out",
                            trace_out], deadline)
        print("\n".join(lines))
        return
    if opts["--trace"] != "0":
        fail("--trace must be 0 or 1")
    trials = []
    for t in range(TRIALS):
        # The staging oracle is slow on join_ingest's three-way join; one
        # trial's check runs on the same code path as the others'.
        lines = run(base + ["--seed", trial_seed(t), "--seconds",
                            str(seconds / TRIALS), "--trace", "0", "--check",
                            "1" if t == 0 else "0"], deadline)
        if not lines:
            fail(f"trial {t} printed nothing")
        for line in lines[:-1]:
            print(f"trial {t}: {line}")
        trials.append(json.loads(lines[-1]))
    print(json.dumps(pool(trials)))


if __name__ == "__main__":
    main()
