"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in its own process
(bench/worker.py) for whole rounds until S seconds have passed; a few more
processes only set up, to time set-up.  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per-layer with --trace 1).  Run outputs go to bench/runs/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("inequality_matrix", "large_p_limit", "geometry_fine")
SETUP_PROBES = 6      # set-up-only processes per run, besides the workload's own set-up
CHILD_TIMEOUT = 170   # seconds
# the one operation that fails on every seed, until the fault it shows is mended
KNOWN_FAILURES = {
    "lambda2_square_p2": "solve_lambda2 reports a lambda_2 below the 5-point lambda_2, "
                         "although every bipartition candidate is documented as an upper bound",
}


# BLAS pools stay at one thread: the program is single-threaded, and a second
# pool thread only makes the timings depend on the load of the other core
_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _worker(args: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, WORKER] + args, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=False, env=_ENV)


def _fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    rundir = os.path.join(BENCH, "runs", args.workload)
    result_path = os.path.join(rundir, f"seed{args.seed}-trace{args.trace}.json")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    os.makedirs(rundir, exist_ok=True)
    if os.path.exists(result_path):
        os.remove(result_path)

    spawned = time.monotonic()
    proc = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--rundir", os.path.join(rundir, f"trace{args.trace}"), "--result", result_path])
    if proc.returncode != 0 or not os.path.exists(result_path):
        return _fail(f"workload process exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    setup = [res["ready"] - spawned]

    correct = True
    failures = res["failures"]
    for name, msgs in sorted(failures.items()):
        for msg in msgs:
            print(f"FAILED {name}: {msg}")
    for name in sorted(set(failures) & set(KNOWN_FAILURES)):
        print(f"known fault, counted as failed: {name}: {KNOWN_FAILURES[name]}")
    unexpected = sorted(set(failures) - set(KNOWN_FAILURES))
    if unexpected:
        correct = False
        print(f"unexpected failures: {unexpected}")

    if args.trace:
        if not res["restored"]:
            correct = False
            print("tracer left a rebound name in the program")
        untraced = os.path.join(rundir, f"seed{args.seed}-trace0.json")
        if os.path.exists(untraced):
            with open(untraced, encoding="utf-8") as fh:
                same = json.load(fh)["reports_sha256"] == res["reports_sha256"]
            print(f"reports byte-identical to the untraced run of seed {args.seed}: {same}")
            correct = correct and same
        from tracer import METRICS  # bench/ is the script's directory, so it is on sys.path

        metrics = {name: {"value": value, "unit": METRICS[name][0]} for name, value in res["layers"].items()}
    else:
        for _ in range(SETUP_PROBES):
            t0 = time.monotonic()
            probe = _worker(common + ["--rundir", os.path.join(rundir, "setup_probe"), "--setup-only"])
            if probe.returncode != 0:
                return _fail(f"set-up process exited with {probe.returncode}:\n{probe.stderr[-4000:]}")
            setup.append(json.loads(probe.stdout.strip().splitlines()[-1])["ready"] - t0)
        metrics = {
            "wall_s": {"value": statistics.median(res["wall_rounds"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"set-up samples {[round(s, 3) for s in setup]} s")
    print(f"rounds {res['rounds']} of {res['ops_per_round']} operations, tracing {'on' if args.trace else 'off'}; "
          f"wall per round {[round(w, 3) for w in res['wall_rounds']]} s, "
          f"cpu per round {[round(c, 3) for c in res['cpu_rounds']]} s")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
