"""Command line entry point.

    finsler-spectra run --config cfg.json [--out DIR] [--format json|csv|svg-data]
    finsler-spectra check-duality --norm '{"family":"lq","q":3.0}' --samples 100

Exit code 0 iff every pass flag of the run is true, 1 if one is false, 2 (one
line on standard error) for a config file, --norm or --samples that cannot be
read or is rejected, or an output directory that is an existing file or cannot
be written (refused before the run where it is a file), 3 (one line on standard
error) for a run whose solve raised ConvergenceError.  FS_LOG in {error, info,
debug} controls diagnostics on standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import asdict

from . import experiments
from .eigensolve import ConvergenceError
from .norms import check_duality, norm_from_dict

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


@contextlib.contextmanager
def _package_logging():
    """For one command, send the package's records at the FS_LOG level to
    standard error through its own handler, whatever logging was configured
    before (basicConfig is a no-op once the root has a handler); records do
    not propagate, so each prints once, and the logger is restored after."""
    pkg = logging.getLogger("finsler_spectra")
    saved = pkg.level, pkg.propagate
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    pkg.addHandler(handler)
    pkg.setLevel(_LOG_LEVELS.get(os.environ.get("FS_LOG", "error").lower(), logging.ERROR))
    pkg.propagate = False
    try:
        yield
    finally:
        pkg.removeHandler(handler)
        pkg.setLevel(saved[0])
        pkg.propagate = saved[1]


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = experiments.ExperimentConfig.from_json(args.config)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"finsler-spectra: {args.config}: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.out or "."
    if os.path.exists(out_dir) and not os.path.isdir(out_dir):
        print(f"finsler-spectra: {out_dir}: the output directory is an existing file", file=sys.stderr)
        return 2
    try:
        report = experiments.run(cfg)
    except ConvergenceError as exc:
        print(f"finsler-spectra: {args.config}: {exc}", file=sys.stderr)
        return 3
    try:
        paths = experiments.emit_report(report, out_dir, args.format)
    except OSError as exc:
        print(f"finsler-spectra: {exc}", file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    return 0 if report.passed else 1


def _cmd_check_duality(args: argparse.Namespace) -> int:
    try:
        norm = norm_from_dict(json.loads(args.norm))
    except ValueError as exc:
        print(f"finsler-spectra: --norm: {exc}", file=sys.stderr)
        return 2
    try:
        rep = check_duality(norm, args.samples)
    except ValueError as exc:
        print(f"finsler-spectra: --samples: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"norm": norm.to_dict(), "samples": args.samples, **asdict(rep)},
                     indent=2, sort_keys=True))
    return 0 if rep.max_residual <= experiments.DUALITY_TOL else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsler-spectra",
        description="Eigenvalues of the anisotropic p-Laplacian on rasterized planar sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment described by a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment config")
    p_run.add_argument("--out", default=None, help="output directory (default: config or cwd)")
    p_run.add_argument("--format", default="json", choices=experiments.FORMATS)
    p_run.set_defaults(func=_cmd_run)

    p_dual = sub.add_parser("check-duality", help="verify the norm duality identities")
    p_dual.add_argument("--norm", required=True, help="norm spec as inline JSON")
    p_dual.add_argument("--samples", type=int, default=100)
    p_dual.set_defaults(func=_cmd_check_duality)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _package_logging():
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
