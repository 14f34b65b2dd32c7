"""Experiment orchestration: configs, verification runs, reports, serialization.

Each runner computes the quantities of one verification experiment
(Faber-Krahn, Hong-Krahn-Szego, scaling, the p -> infinity limits, distance
identities, norm duality), collects per-p records, and emits inequality
checks whose pass flags are pure functions of the serialized left/right
values.  Reports serialize deterministically: re-running a config under the
same BLAS thread count yields byte-identical files (wall-clock timings are
logged, never serialized).
"""
from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import distance as dist
from . import eigensolve as eig
from .eigensolve import SolverOptions
from .fem import triangulate
from .geometry import (DomainGrid, ShapeSpec, _check_keys, _grid_frame, _numbers, measure,
                       rasterize, shape, wulff)
from .norms import NormSpec, _number, check_duality, norm_from_dict, wulff_measure

log = logging.getLogger("finsler_spectra")

FORMATS = ("json", "csv", "svg-data")

DEFAULT_TOLERANCE = 0.03   # relative tolerance for equality-type inequality checks
P_LIMIT_GAP = 0.2          # admissible asymptotic gap at the largest exponent
DUALITY_TOL = 1e-8
DISTANCE_IDENTITY_TOL = 0.05
EIKONAL_BULK_FRACTION = 0.95
# experiments that split the domain or pack two shapes in it need two interior nodes
_TWO_NODES = ("lambda2", "hks", "p_limit", "distance")


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
    # the domain and the reference shape (see _reference_radius), rasterized at h once
    grid: DomainGrid = field(init=False, repr=False, compare=False)
    reference: Optional[DomainGrid] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.experiment, str) or self.experiment not in _RUNNERS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not 0.0 < self.h < np.inf:
            raise ValueError(f"h must be finite and positive, got {self.h}")
        if not all(1.0 < p < np.inf for p in self.p_list):
            raise ValueError(f"p_list entries must lie in (1, inf), got {list(self.p_list)}")
        if not 0.0 <= self.tolerance < 1.0:
            raise ValueError(f"tolerance must be finite and in [0, 1), got {self.tolerance!r}")
        if isinstance(self.samples, bool) or not isinstance(self.samples, int) or self.samples < 1:
            raise ValueError(f"samples must be an integer >= 1, got {self.samples!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path string or null, got {self.out!r}")
        _, nx, ny = _grid_frame(self.domain, self.h)  # rejects a frame above MAX_GRID_NODES
        # the reference shape's frame, for hks bounded by the domain frame's area
        radius = _reference_radius(self, nx * ny * self.h ** 2)
        if radius is not None:
            _grid_frame(unit_wulff_spec(self.norm, radius), self.h)
        if self.experiment not in ("distance", "duality") and not self.p_list:
            raise ValueError("p_list must be nonempty for eigenvalue experiments")
        if self.experiment == "p_limit" and any(a >= b for a, b in zip(self.p_list, self.p_list[1:])):
            raise ValueError(f"p_list must be strictly increasing for p_limit, got {list(self.p_list)}")
        # every frame is checked: the domain can be rasterized without a large allocation
        need = 2 if self.experiment in _TWO_NODES else 1
        try:
            object.__setattr__(self, "grid", rasterize(self.domain, self.h))
            count = self.grid.interior_count
        except ValueError:  # no interior node
            count = 0
        if count < need:
            raise ValueError(f"domain has {count} interior node(s) at h={self.h}; "
                             f"{self.experiment} needs at least {need}")
        radius = _reference_radius(self, measure(self.grid))
        try:
            object.__setattr__(self, "reference", None if radius is None else
                               rasterize(unit_wulff_spec(self.norm, radius), self.h))
        except ValueError:  # no interior node
            raise ValueError(f"reference shape (the Wulff shape of radius {radius:.6g}) has no interior "
                             f"node at h={self.h}; {self.experiment} solves lambda_1 on it") from None

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        _check_keys("config", d, ("experiment", "domain", "norm", "h"),
                    ("p_list", "solver", "tolerance", "samples", "out"))
        return ExperimentConfig(
            experiment=d["experiment"],
            domain=ShapeSpec.from_dict(d["domain"]),
            norm=norm_from_dict(d["norm"]),
            h=_number("h", d["h"]),
            p_list=_numbers("p_list", d.get("p_list", [2.0])),
            solver=SolverOptions.from_dict(d.get("solver", {})),
            tolerance=_number("tolerance", d.get("tolerance", DEFAULT_TOLERANCE)),
            samples=d.get("samples", 100),
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
        margin = left / right - 1.0 if right != 0.0 else np.inf
    elif kind == "le":
        margin = right - left
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    record = {
        "name": name,
        "kind": kind,
        "left": left,
        "right": right,
        "tolerance": float(tolerance),
        "margin": float(margin),
    }
    record["passed"] = bool(recheck(record))
    return record


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


def unit_wulff_spec(norm: NormSpec, radius: float = 1.0) -> ShapeSpec:
    return shape(wulff((0.0, 0.0), radius, norm))


def _reference_radius(cfg: ExperimentConfig, area: float) -> Optional[float]:
    """Radius of the Wulff shape that cfg's runner solves beside a domain of measure area:
    1 for faber_krahn, that of half the measure for hks, None for the other experiments."""
    if cfg.experiment == "hks":
        return math.sqrt(0.5 * area / wulff_measure(cfg.norm))
    return 1.0 if cfg.experiment == "faber_krahn" else None


def _solve(label: str, solve, grid: DomainGrid, cfg: ExperimentConfig, p: float):
    """solve(grid, norm, p, solver) for one top-level solve, logged at INFO as `label`."""
    t0 = time.perf_counter()
    result = solve(grid, cfg.norm, p, cfg.solver)
    log.info("%s p=%g dofs=%d took %.2fs", label, p, grid.interior_count, time.perf_counter() - t0)
    return result


def run_lambda1(cfg: ExperimentConfig) -> Report:
    rep = Report("lambda1", cfg.echo())
    grid = cfg.grid
    for p in cfg.p_list:
        rec = _solve("lambda1", eig.solve_lambda1, grid, cfg, p).to_dict()
        rec["measure"] = measure(grid)
        rep.records.append(rec)
    return rep


def run_lambda2(cfg: ExperimentConfig) -> Report:
    rep = Report("lambda2", cfg.echo())
    grid = cfg.grid
    h2 = cfg.h ** 2
    for p in cfg.p_list:
        r = _solve("lambda2", eig.solve_lambda2, grid, cfg, p)
        rep.records.append({
            "p": p,
            "lambda2": r.lambda2,
            "lambda1_part1": r.result1.lam,
            "lambda1_part2": r.result2.lam,
            "measure_part1": float(r.part1.sum() * h2),
            "measure_part2": float(r.part2.sum() * h2),
        })
    return rep


def run_faber_krahn(cfg: ExperimentConfig) -> Report:
    """|Omega|^{p/2} lambda_1(p, Omega) vs kappa^{p/2} lambda_1(p, W).

    The right side kappa^{p/2} lambda_1(p, W) is scale invariant, so it is
    estimated as measure^{p/2} * lambda_1 of the rasterized unit Wulff shape:
    the half-cell boundary shrink then cancels to first order exactly as it
    does on the left, which keeps the equality case flat in h.
    """
    rep = Report("faber_krahn", cfg.echo())
    kappa = wulff_measure(cfg.norm)
    grid, grid_w = cfg.grid, cfg.reference
    area = measure(grid)
    area_w = measure(grid_w)
    for p in cfg.p_list:
        lam = _solve("lambda1", eig.solve_lambda1, grid, cfg, p).lam
        lam_w = _solve("lambda1", eig.solve_lambda1, grid_w, cfg, p).lam
        left = area ** (p / 2.0) * lam
        right = area_w ** (p / 2.0) * lam_w
        rep.records.append({
            "p": p, "lambda1": lam, "lambda1_wulff": lam_w,
            "measure": area, "measure_wulff": area_w, "kappa": kappa,
            "left": left, "right": right, "ratio": left / right,
        })
        rep.checks.append(check_record(f"faber_krahn_p_{p:g}", "ge", left, right, cfg.tolerance))
    return rep


def run_hks(cfg: ExperimentConfig) -> Report:
    """lambda_2(p, Omega) vs lambda_2 of two disjoint Wulff shapes of half measure.

    lambda_2 of the equal-radii pair is lambda_1 of a single shape; it is
    estimated through the scale invariant measure^{p/2} * lambda_1 of the
    rasterized reference shape so the boundary-shrink bias cancels against
    the one in lambda_2(Omega).
    """
    rep = Report("hks", cfg.echo())
    grid, grid_ref = cfg.grid, cfg.reference
    area = measure(grid)
    radius = _reference_radius(cfg, area)
    half_area = measure(grid_ref)
    for p in cfg.p_list:
        lam2 = _solve("lambda2", eig.solve_lambda2, grid, cfg, p).lambda2
        lam1_ref = _solve("lambda1", eig.solve_lambda1, grid_ref, cfg, p).lam
        lam2_ref = lam1_ref * (half_area / (0.5 * area)) ** (p / 2.0)
        rep.records.append({
            "p": p, "lambda2": lam2, "lambda2_ref": lam2_ref,
            "lambda1_ref_raster": lam1_ref,
            "measure": area, "measure_ref": 2.0 * half_area, "radius_ref": radius,
            "ratio": lam2 / lam2_ref,
            "normalized_ratio": (lam2 * area ** (p / 2.0))
                                / (lam2_ref * (2.0 * half_area) ** (p / 2.0)),
        })
        rep.checks.append(check_record(f"hks_p_{p:g}", "ge", lam2, lam2_ref, cfg.tolerance))
    return rep


def run_p_limit(cfg: ExperimentConfig) -> Report:
    """lambda^{1/p} against the inradius reciprocals along an increasing p list."""
    rep = Report("p_limit", cfg.echo())
    grid = cfg.grid
    dfield = dist.distance_transform(grid, cfg.norm)
    rho_f, _ = dist.inradius(dfield)
    rho2 = dist.two_wulff_radius(dfield, cfg.norm).rho2
    for p in cfg.p_list:
        lam1 = _solve("lambda1", eig.solve_lambda1, grid, cfg, p).lam
        lam2 = _solve("lambda2", eig.solve_lambda2, grid, cfg, p).lambda2
        root1 = lam1 ** (1.0 / p)
        root2 = lam2 ** (1.0 / p)
        rep.records.append({
            "p": p, "lambda1": lam1, "lambda2": lam2,
            "lambda1_root": root1, "lambda2_root": root2,
            "gap1": abs(root1 * rho_f - 1.0), "gap2": abs(root2 * rho2 - 1.0),
            "monotone_diagnostic": p * root1, "rho_f": rho_f, "rho_2f": rho2,
        })
    gaps1 = [r["gap1"] for r in rep.records]
    gaps2 = [r["gap2"] for r in rep.records]
    rep.checks.append(check_record(
        "gap1_decreasing", "le", max(np.diff(gaps1), default=0.0), 0.0))
    rep.checks.append(check_record("gap1_final", "le", gaps1[-1], P_LIMIT_GAP))
    rep.checks.append(check_record(
        "gap2_decreasing", "le", max(np.diff(gaps2), default=0.0), 0.0))
    rep.checks.append(check_record("gap2_final", "le", gaps2[-1], P_LIMIT_GAP))
    return rep


def run_distance(cfg: ExperimentConfig) -> Report:
    """Distance transform, inradii and the sup-norm Rayleigh identity."""
    rep = Report("distance", cfg.echo())
    grid = cfg.grid
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


def run_duality(cfg: ExperimentConfig) -> Report:
    rep = Report("duality", cfg.echo())
    r = check_duality(cfg.norm, cfg.samples)
    rep.records.append({"samples": cfg.samples, **asdict(r)})
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


def run(cfg: ExperimentConfig) -> Report:
    """Run one experiment; triangulations, Newton matrices and p=2 eigenpairs
    that repeat within the run are computed once (see eigensolve._GridContext)."""
    t0 = time.perf_counter()
    with eig._GridContext() as ctx:
        rep = _RUNNERS[cfg.experiment](cfg)
    log.debug("grid context: %s", "; ".join(f"{kind} built={ctx.built[kind]} reused={ctx.reused[kind]} "
                                            f"build_s={ctx.seconds[kind]:.4f}" for kind in eig._KINDS))
    log.info("experiment %s finished in %.2fs (passed=%s)",
             cfg.experiment, time.perf_counter() - t0, rep.passed)
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
    name = {"json": "report.json", "csv": "report.csv", "svg-data": "plot_data.json"}[fmt]
    text = {"json": report_json, "csv": report_csv, "svg-data": report_plot_data}[fmt](report)
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"could not write report to {path}: {exc}") from exc
    return [path]
