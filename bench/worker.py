"""One workload in its own process: set up, run timed rounds, check, write a result file.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --rundir DIR --result FILE
    python3 bench/worker.py --workload NAME --seed N --rundir DIR --setup-only

The program is imported from src/ of the checkout this file sits in.  With
--setup-only the process stops once its inputs exist and prints the
CLOCK_MONOTONIC time at which it was ready.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    sys.path.insert(0, SRC)
    import finsler_spectra

    if not os.path.abspath(finsler_spectra.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"finsler_spectra was imported from {finsler_spectra.__file__}, not from {SRC}")


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds of every operation until `seconds` have passed (at least one round)."""
    from workloads import Output

    first, differs = {}, {op.name: 0 for op in ops}
    walls, cpus = [], []
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_round()
        t0, c0 = time.perf_counter(), time.process_time()
        for op in ops:
            try:
                out = op.run()
            except Exception as exc:  # the failure is the operation's result
                out = Output(-1, f"raised {exc!r}".encode())
            if op.name not in first:
                first[op.name] = out
            elif out.data != first[op.name].data:
                differs[op.name] += 1
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if tracer is not None:
            tracer.end_round()
        if time.perf_counter() - t_start >= seconds:
            return first, differs, walls, cpus


def check_all(ops, first: dict) -> dict:
    """Failure messages of each operation's first-round output; empty lists are left out."""
    failures = {}
    for op in ops:
        out = first[op.name]
        if out.rc == -1:
            msgs = [out.data.decode()]
        else:
            try:
                msgs = op.check(first)
            except Exception as exc:  # a malformed output fails its operation
                msgs = [f"check raised {exc!r}"]
        if msgs:
            failures[op.name] = msgs
    return failures


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_program()
    import workloads

    os.makedirs(args.rundir, exist_ok=True)
    ops = workloads.BUILDERS[args.workload](args.seed, args.rundir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        first, differs, walls, cpus = run_rounds(ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss = peak_rss_mb()
    failures = check_all(ops, first)
    rounds = len(walls)
    failed = 0
    for op in ops:
        if op.name in failures:
            failed += rounds
        else:
            failed += differs[op.name]
            if differs[op.name]:
                failures[op.name] = [f"output differs from the first round in {differs[op.name]} later rounds"]
    digest = hashlib.sha256(b"".join(first[op.name].data for op in ops)).hexdigest()
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ready": ready, "rounds": rounds, "ops_per_round": len(ops),
        "wall_rounds": walls, "cpu_rounds": cpus, "peak_rss_mb": rss,
        "attempted": rounds * len(ops), "failed": failed, "failures": failures,
        "reports_sha256": digest,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["restored"] = tracer.restored()
        tracer.save(os.path.join(args.rundir, "trace.npz"))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
