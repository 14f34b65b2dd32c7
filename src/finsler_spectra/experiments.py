"""Experiment orchestration: configs, verification runs, reports, serialization.

Each runner computes the quantities of one verification experiment
(Faber-Krahn, Hong-Krahn-Szego, scaling, the p -> infinity limits, distance
identities, norm duality), collects per-p records, and emits inequality
checks whose pass flags are pure functions of the serialized left/right
values.  Reports serialize deterministically: re-running a config yields
byte-identical files (wall-clock timings are logged, never serialized).
"""
from __future__ import annotations

import csv
import io
import json
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import distance as dist
from . import eigensolve as eig
from .eigensolve import SolverOptions
from .fem import triangulate
from .geometry import DomainGrid, ShapeSpec, measure, rasterize, shape, wulff
from .norms import NormSpec, check_duality, norm_from_dict, wulff_measure

log = logging.getLogger("finsler_spectra")

EXPERIMENTS = ("lambda1", "lambda2", "faber_krahn", "hks", "p_limit", "distance", "duality")
FORMATS = ("json", "csv", "svg-data")

DEFAULT_TOLERANCE = 0.03   # relative tolerance for equality-type inequality checks
P_LIMIT_GAP = 0.2          # admissible asymptotic gap at the largest exponent
DUALITY_TOL = 1e-8
DISTANCE_IDENTITY_TOL = 0.05
EIKONAL_BULK_FRACTION = 0.95


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    domain: ShapeSpec
    norm: NormSpec
    h: float
    p_list: Sequence[float] = (2.0,)
    solver: SolverOptions = SolverOptions()
    tolerance: float = DEFAULT_TOLERANCE
    samples: int = 100
    out: Optional[str] = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not 0.0 < self.h < np.inf:
            raise ValueError(f"h must be finite and positive, got {self.h}")
        if self.experiment in ("lambda1", "lambda2", "faber_krahn", "hks", "p_limit") and not self.p_list:
            raise ValueError("p_list must be nonempty for eigenvalue experiments")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return ExperimentConfig(
            experiment=d["experiment"],
            domain=ShapeSpec.from_dict(d["domain"]),
            norm=norm_from_dict(d["norm"]),
            h=float(d["h"]),
            p_list=tuple(float(p) for p in d.get("p_list", [2.0])),
            solver=SolverOptions.from_dict(d.get("solver", {})),
            tolerance=float(d.get("tolerance", DEFAULT_TOLERANCE)),
            samples=int(d.get("samples", 100)),
            out=d.get("out"),
        )

    @staticmethod
    def from_json(path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def echo(self) -> dict:
        return {
            "experiment": self.experiment,
            "domain": self.domain.to_dict(),
            "norm": self.norm.to_dict(),
            "h": self.h,
            "p_list": list(self.p_list),
            "solver": self.solver.to_dict(),
            "tolerance": self.tolerance,
            "samples": self.samples,
        }


def check_record(name: str, kind: str, left: float, right: float, tolerance: float = 0.0) -> dict:
    """Inequality record; `passed` is recomputable from the serialized fields."""
    left, right = float(left), float(right)
    if kind == "ge":
        passed = left >= right * (1.0 - tolerance)
        margin = left / right - 1.0 if right != 0.0 else np.inf
    elif kind == "le":
        passed = left <= right + tolerance
        margin = right - left
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    return {
        "name": name,
        "kind": kind,
        "left": left,
        "right": right,
        "tolerance": float(tolerance),
        "margin": float(margin),
        "passed": bool(passed),
    }


def recheck(record: dict) -> bool:
    """Recompute a check's flag from its serialized sides (self-consistency)."""
    if record["kind"] == "ge":
        return record["left"] >= record["right"] * (1.0 - record["tolerance"])
    return record["left"] <= record["right"] + record["tolerance"]


@dataclass
class Report:
    experiment: str
    inputs: dict
    records: List[dict] = field(default_factory=list)
    checks: List[dict] = field(default_factory=list)
    runtime_seconds: float = 0.0  # logged only, never serialized

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "inputs": self.inputs,
            "records": self.records,
            "checks": self.checks,
            "passed": self.passed,
        }


class _Lab:
    """Shared rasterizations and eigenvalue solves within one experiment run."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self._grids: Dict[str, DomainGrid] = {}
        self._lam1: Dict[str, eig.EigenResult] = {}
        self._lam2: Dict[str, eig.BipartitionResult] = {}

    @staticmethod
    def _domain_key(spec: ShapeSpec) -> str:
        return json.dumps(spec.to_dict(), sort_keys=True)

    def grid(self, spec: ShapeSpec) -> DomainGrid:
        key = self._domain_key(spec)
        if key not in self._grids:
            self._grids[key] = rasterize(spec, self.cfg.h)
        return self._grids[key]

    def lambda1(self, spec: ShapeSpec, p: float) -> eig.EigenResult:
        key = f"{self._domain_key(spec)}|{p!r}"
        if key not in self._lam1:
            t0 = time.perf_counter()
            self._lam1[key] = eig.solve_lambda1(self.grid(spec), self.cfg.norm, p, self.cfg.solver)
            log.info("lambda1 p=%g dofs=%d took %.2fs", p,
                     self.grid(spec).interior_count, time.perf_counter() - t0)
        return self._lam1[key]

    def lambda2(self, spec: ShapeSpec, p: float) -> eig.BipartitionResult:
        key = f"{self._domain_key(spec)}|{p!r}"
        if key not in self._lam2:
            t0 = time.perf_counter()
            self._lam2[key] = eig.solve_lambda2(self.grid(spec), self.cfg.norm, p, self.cfg.solver)
            log.info("lambda2 p=%g dofs=%d took %.2fs", p,
                     self.grid(spec).interior_count, time.perf_counter() - t0)
        return self._lam2[key]


def unit_wulff_spec(norm: NormSpec, radius: float = 1.0) -> ShapeSpec:
    return shape(wulff((0.0, 0.0), radius, norm))


def two_wulff_union_spec(norm: NormSpec, radius: float, separation_radii: float = 3.0) -> ShapeSpec:
    """Two disjoint Wulff shapes on the x-axis, centers separation_radii*r apart."""
    s = separation_radii * radius
    return shape(wulff((0.0, 0.0), radius, norm), wulff((s, 0.0), radius, norm))


def _map_p(cfg: ExperimentConfig, fn: Callable[[float], dict], threads: int) -> List[dict]:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, cfg.p_list))
    return [fn(p) for p in cfg.p_list]


def run_lambda1(cfg: ExperimentConfig, threads: int = 1) -> Report:
    lab = _Lab(cfg)
    rep = Report("lambda1", cfg.echo())

    def job(p: float) -> dict:
        r = lab.lambda1(cfg.domain, p)
        rec = r.to_dict()
        rec["measure"] = measure(lab.grid(cfg.domain))
        return rec

    rep.records = _map_p(cfg, job, threads)
    return rep


def run_lambda2(cfg: ExperimentConfig, threads: int = 1) -> Report:
    lab = _Lab(cfg)
    rep = Report("lambda2", cfg.echo())
    h2 = cfg.h ** 2

    def job(p: float) -> dict:
        r = lab.lambda2(cfg.domain, p)
        return {
            "p": p,
            "lambda2": r.lambda2,
            "lambda1_part1": r.lambda1_part1,
            "lambda1_part2": r.lambda1_part2,
            "measure_part1": float(r.part1.sum() * h2),
            "measure_part2": float(r.part2.sum() * h2),
        }

    rep.records = _map_p(cfg, job, threads)
    return rep


def run_faber_krahn(cfg: ExperimentConfig, threads: int = 1) -> Report:
    """|Omega|^{p/2} lambda_1(p, Omega) vs kappa^{p/2} lambda_1(p, W).

    The right side kappa^{p/2} lambda_1(p, W) is scale invariant, so it is
    estimated as measure^{p/2} * lambda_1 of the rasterized unit Wulff shape:
    the half-cell boundary shrink then cancels to first order exactly as it
    does on the left, which keeps the equality case flat in h.
    """
    lab = _Lab(cfg)
    rep = Report("faber_krahn", cfg.echo())
    kappa = wulff_measure(cfg.norm)
    wspec = unit_wulff_spec(cfg.norm)

    def job(p: float) -> dict:
        lam = lab.lambda1(cfg.domain, p).lam
        lam_w = lab.lambda1(wspec, p).lam
        area = measure(lab.grid(cfg.domain))
        area_w = measure(lab.grid(wspec))
        left = area ** (p / 2.0) * lam
        right = area_w ** (p / 2.0) * lam_w
        return {
            "p": p, "lambda1": lam, "lambda1_wulff": lam_w,
            "measure": area, "measure_wulff": area_w, "kappa": kappa,
            "left": left, "right": right, "ratio": left / right,
        }

    rep.records = _map_p(cfg, job, threads)
    for rec in rep.records:
        rep.checks.append(check_record(
            f"faber_krahn_p_{rec['p']:g}", "ge", rec["left"], rec["right"], cfg.tolerance))
    return rep


def run_hks(cfg: ExperimentConfig, threads: int = 1) -> Report:
    """lambda_2(p, Omega) vs lambda_2 of two disjoint Wulff shapes of half measure.

    lambda_2 of the equal-radii pair is lambda_1 of a single shape; it is
    estimated through the scale invariant measure^{p/2} * lambda_1 of the
    rasterized reference shape so the boundary-shrink bias cancels against
    the one in lambda_2(Omega).
    """
    lab = _Lab(cfg)
    rep = Report("hks", cfg.echo())
    kappa = wulff_measure(cfg.norm)
    area = measure(lab.grid(cfg.domain))
    radius = float(np.sqrt(0.5 * area / kappa))
    ref_spec = unit_wulff_spec(cfg.norm, radius)

    def job(p: float) -> dict:
        lam2 = lab.lambda2(cfg.domain, p).lambda2
        lam1_ref = lab.lambda1(ref_spec, p).lam
        half_area = measure(lab.grid(ref_spec))
        lam2_ref = lam1_ref * (half_area / (0.5 * area)) ** (p / 2.0)
        return {
            "p": p, "lambda2": lam2, "lambda2_ref": lam2_ref,
            "lambda1_ref_raster": lam1_ref,
            "measure": area, "measure_ref": 2.0 * half_area, "radius_ref": radius,
            "ratio": lam2 / lam2_ref,
            "normalized_ratio": (lam2 * area ** (p / 2.0))
                                / (lam2_ref * (2.0 * half_area) ** (p / 2.0)),
        }

    rep.records = _map_p(cfg, job, threads)
    for rec in rep.records:
        rep.checks.append(check_record(
            f"hks_p_{rec['p']:g}", "ge", rec["lambda2"], rec["lambda2_ref"], cfg.tolerance))
    return rep


def run_p_limit(cfg: ExperimentConfig, threads: int = 1) -> Report:
    """lambda^{1/p} against the inradius reciprocals along an increasing p list."""
    lab = _Lab(cfg)
    rep = Report("p_limit", cfg.echo())
    grid = lab.grid(cfg.domain)
    dfield = dist.distance_transform(grid, cfg.norm)
    rho_f, _ = dist.inradius(dfield)
    rho2 = dist.two_wulff_radius(dfield, cfg.norm).rho2

    def job(p: float) -> dict:
        lam1 = lab.lambda1(cfg.domain, p).lam
        lam2 = lab.lambda2(cfg.domain, p).lambda2
        root1 = lam1 ** (1.0 / p)
        root2 = lam2 ** (1.0 / p)
        return {
            "p": p, "lambda1": lam1, "lambda2": lam2,
            "lambda1_root": root1, "lambda2_root": root2,
            "gap1": abs(root1 * rho_f - 1.0), "gap2": abs(root2 * rho2 - 1.0),
            "monotone_diagnostic": p * root1,
        }

    rep.records = _map_p(cfg, job, threads)
    for rec in rep.records:
        rec["rho_f"] = rho_f
        rec["rho_2f"] = rho2
    gaps1 = [r["gap1"] for r in rep.records]
    gaps2 = [r["gap2"] for r in rep.records]
    rep.checks.append(check_record(
        "gap1_decreasing", "le", max(np.diff(gaps1), default=0.0), 0.0))
    rep.checks.append(check_record("gap1_final", "le", gaps1[-1], P_LIMIT_GAP))
    rep.checks.append(check_record(
        "gap2_decreasing", "le", max(np.diff(gaps2), default=0.0), 0.0))
    rep.checks.append(check_record("gap2_final", "le", gaps2[-1], P_LIMIT_GAP))
    return rep


def run_distance(cfg: ExperimentConfig, threads: int = 1) -> Report:
    """Distance transform, inradii and the sup-norm Rayleigh identity."""
    lab = _Lab(cfg)
    rep = Report("distance", cfg.echo())
    grid = lab.grid(cfg.domain)
    dfield = dist.distance_transform(grid, cfg.norm)
    rho_f, argmax = dist.inradius(dfield)
    rho2 = dist.two_wulff_radius(dfield, cfg.norm).rho2
    tri = triangulate(grid)
    sup = dist.sup_rayleigh(dfield.as_field(tri), cfg.norm)
    frac = dist.eikonal_bulk_fraction(dfield, cfg.norm, tri)
    rep.records.append({
        "rho_f": rho_f, "rho_2f": rho2, "argmax_node": list(argmax),
        "sup_rayleigh": sup, "identity": sup * rho_f,
        "identity_margin": abs(sup * rho_f - 1.0),
        "eikonal_bulk_fraction": frac,
        "measure": measure(grid),
    })
    rep.checks.append(check_record(
        "sup_rayleigh_identity", "le", abs(sup * rho_f - 1.0), DISTANCE_IDENTITY_TOL))
    rep.checks.append(check_record(
        "eikonal_bulk", "ge", frac, EIKONAL_BULK_FRACTION, 0.0))
    return rep


def run_duality(cfg: ExperimentConfig, threads: int = 1) -> Report:
    rep = Report("duality", cfg.echo())
    r = check_duality(cfg.norm, cfg.samples)
    rep.records.append({
        "samples": cfg.samples,
        "euler_primal": r.euler_primal,
        "euler_polar": r.euler_polar,
        "unit_grad_primal": r.unit_grad_primal,
        "unit_grad_polar": r.unit_grad_polar,
        "polar_inverse": r.polar_inverse,
        "max_residual": r.max_residual,
    })
    rep.checks.append(check_record("duality_residual", "le", r.max_residual, DUALITY_TOL))
    return rep


_RUNNERS = {
    "lambda1": run_lambda1,
    "lambda2": run_lambda2,
    "faber_krahn": run_faber_krahn,
    "hks": run_hks,
    "p_limit": run_p_limit,
    "distance": run_distance,
    "duality": run_duality,
}


def run(cfg: ExperimentConfig, threads: int = 1) -> Report:
    t0 = time.perf_counter()
    rep = _RUNNERS[cfg.experiment](cfg, threads=threads)
    rep.runtime_seconds = time.perf_counter() - t0
    log.info("experiment %s finished in %.2fs (passed=%s)",
             cfg.experiment, rep.runtime_seconds, rep.passed)
    return rep


def report_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def report_csv(report: Report) -> str:
    buf = io.StringIO()
    keys = sorted({k for rec in report.records for k in rec})
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", "domain", "norm", "h"] + keys)
    domain = json.dumps(report.inputs["domain"], sort_keys=True)
    norm = json.dumps(report.inputs["norm"], sort_keys=True)
    for rec in report.records:
        writer.writerow([report.experiment, domain, norm, report.inputs["h"]]
                        + [rec.get(k, "") for k in keys])
    return buf.getvalue()


def report_plot_data(report: Report) -> str:
    """Series of lambda^{1/p} against p with the inradius asymptotes."""
    series = []
    ps = [rec["p"] for rec in report.records if "p" in rec]
    for name in ("lambda1_root", "lambda2_root", "monotone_diagnostic"):
        pts = [[rec["p"], rec[name]] for rec in report.records if name in rec]
        if pts:
            series.append({"name": name, "points": pts})
    asymptotes = []
    if report.records and "rho_f" in report.records[0]:
        asymptotes.append({"name": "one_over_rho_f", "value": 1.0 / report.records[0]["rho_f"]})
    if report.records and "rho_2f" in report.records[0]:
        asymptotes.append({"name": "one_over_rho_2f", "value": 1.0 / report.records[0]["rho_2f"]})
    payload = {"experiment": report.experiment, "p": ps, "series": series, "asymptotes": asymptotes}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_report(report: Report, out_dir: str, fmt: str = "json") -> List[str]:
    """Write the report in the requested format; returns the paths written."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
    os.makedirs(out_dir, exist_ok=True)
    name = {"json": "report.json", "csv": "report.csv", "svg-data": "plot_data.json"}[fmt]
    text = {"json": report_json, "csv": report_csv, "svg-data": report_plot_data}[fmt](report)
    path = os.path.join(out_dir, name)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"could not write report to {path}: {exc}") from exc
    return [path]
