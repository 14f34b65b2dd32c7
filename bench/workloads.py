"""The workloads: inputs drawn from the seed, the operations of one round, and their checks.

An operation is one program call: a JSON config through the `finsler-spectra
run` entry point (called in-process), or a group of library calls as in the
README quick start.  Its checks run once, on the first round's output; later
rounds must reproduce that output byte for byte.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import finsler_spectra as fs
import finsler_spectra.cli as cli
import finsler_spectra.distance as fs_distance
import finsler_spectra.norms as fs_norms

import checks
import reference as ref

NORMS = {
    "euclidean": {"family": "euclidean"},
    "weighted_quadratic": {"family": "weighted_quadratic", "a1": 4.0, "a2": 1.0},
    "lq": {"family": "lq", "q": 3.0},
}


def _rect(x0, y0, x1, y1, mode="add"):
    return {"type": "rectangle", "mode": mode, "x0": x0, "y0": y0, "x1": x1, "y1": y1}


def _disk(cx, cy, r):
    return {"type": "euclidean_disk", "mode": "add", "center": [cx, cy], "radius": r}


# the domains of the acceptance matrix; each run shifts them by a seeded sub-cell offset
DOMAINS = {
    "square": [_rect(0.0, 0.0, 1.0, 1.0)],
    "l_shape": [_rect(0.0, 0.0, 1.0, 1.0), _rect(0.5, 0.5, 1.01, 1.01, "subtract")],
    "rect_2x1": [_rect(0.0, 0.0, 2.0, 1.0)],
    "two_disks": [_disk(0.0, 0.0, 1.0), _disk(3.0, 0.0, 0.75)],
}
RECTANGLE_SIDES = {"square": (1.0, 1.0), "rect_2x1": (2.0, 1.0)}

# inequality_matrix: the acceptance matrix settings on a coarser grid
MATRIX_H = 1.0 / 16
MATRIX_P = [1.5, 2.0, 3.0]
MATRIX_SOLVER = {"max_iter": 2500}
# large_p_limit: the p -> infinity ladder; the iteration cap bounds each part solve
LIMIT_H = 1.0 / 8
LIMIT_P = [2.0, 4.0, 8.0, 16.0, 32.0]
LIMIT_SOLVER = {"max_iter": 700}
# geometry_fine: distance configs, then direct calls on a finer grid
DISTANCE_H = 1.0 / 40
FINE_H = 1.0 / 64
GEOMETRY_DOMAINS = ("square", "l_shape", "two_disks")
SAMPLE_NODES = 64

@dataclass
class Output:
    rc: int
    data: bytes          # compared byte for byte across rounds
    live: object = None  # parsed report or live results, checked after the rounds


@dataclass
class Op:
    name: str
    run: Callable[[], Output]
    check: Callable[[dict], list]  # all first-round outputs by op name -> failure messages


def shifted(prims: list, dx: float, dy: float) -> list:
    out = []
    for p in prims:
        q = dict(p)
        if p["type"] == "rectangle":
            q.update(x0=p["x0"] + dx, x1=p["x1"] + dx, y0=p["y0"] + dy, y1=p["y1"] + dy)
        else:
            q["center"] = [p["center"][0] + dx, p["center"][1] + dy]
        out.append(q)
    return out


def seeded_domains(rng: np.random.Generator, h: float) -> dict:
    """Every domain shifted by its own offset in [0.05, 0.45] h along each axis (always four draws)."""
    return {name: shifted(prims, *(rng.uniform(0.05, 0.45, 2) * h)) for name, prims in DOMAINS.items()}


class References:
    """Reference values of one run, each computed once and kept."""

    def __init__(self):
        self._grids = {}
        self._five = {}
        self._dist = {}

    def grid(self, prims: list, h: float):
        key = (json.dumps(prims, sort_keys=True), h)
        if key not in self._grids:
            self._grids[key] = fs.rasterize(fs.ShapeSpec.from_dict(prims), h)
        return self._grids[key]

    def five_point(self, prims: list, h: float, norm: dict):
        weights = ref.quadratic_weights(norm)
        if weights is None:
            return None
        key = (json.dumps(prims, sort_keys=True), h, weights)
        if key not in self._five:
            self._five[key] = ref.five_point_eigenvalues(self.grid(prims, h).mask, h, *weights)
        return self._five[key]

    def distance(self, prims: list, h: float, norm: dict) -> np.ndarray:
        """Brute-force polar distance on the whole grid array, 0 off the mask."""
        key = (json.dumps(prims, sort_keys=True), h, json.dumps(norm, sort_keys=True))
        if key not in self._dist:
            g = self.grid(prims, h)
            d = np.zeros(g.mask.shape)
            d[g.mask] = ref.polar_distance(g.mask, g.origin, h, norm)
            self._dist[key] = d
        return self._dist[key]

    def quotients(self, prims: list, h: float, norm: dict, ps) -> dict:
        d = self.distance(prims, h, norm)
        return {p: ref.p1_quotient(d, h, norm, p) for p in ps}

    def packing(self, prims: list, h: float, norm: dict, claimed: float) -> float:
        g = self.grid(prims, h)
        px, py = ref.node_xy(g.origin, h, np.argwhere(g.mask))
        d = self.distance(prims, h, norm)[g.mask]
        return ref.packing_radius(px, py, d, norm, floor=claimed - 1e-9)

    def rectangle(self, name: str, prims: list, h: float, norm: dict):
        weights = ref.quadratic_weights(norm)
        if name not in RECTANGLE_SIDES or weights is None:
            return None
        sides = RECTANGLE_SIDES[name]
        return {
            "five_point": self.five_point(prims, h, norm)[0],
            "lattice": ref.rectangle_lattice_eigenvalue(sides, h, *weights),
            "analytic": ref.rectangle_eigenvalue(sides, *weights),
            "bound": ref.rectangle_discretization_bound(sides, h),
        }


def _first(values):
    return None if values is None else float(values[0])


def _second(values):
    return None if values is None else float(values[1])


def wulff_prims(norm: dict, radius: float = 1.0) -> list:
    return [{"type": "wulff", "mode": "add", "center": [0.0, 0.0], "radius": radius, "norm": norm}]


def config_op(rundir: str, name: str, cfg: dict, check: Callable[[dict, int, dict], list]) -> Op:
    """Write the config now; each run calls the CLI on it and reads the report back."""
    path = os.path.join(rundir, "configs", f"{name}.json")
    out_dir = os.path.join(rundir, "reports", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)

    def run() -> Output:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", "--config", path, "--out", out_dir])
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            data = fh.read()
        return Output(rc, data, json.loads(data))

    def run_check(outputs: dict) -> list:
        out = outputs[name]
        return check(out.live, out.rc, outputs)

    return Op(name, run, run_check)


def _config(experiment: str, prims: list, norm: dict, h: float, p_list=(2.0,), solver=None) -> dict:
    cfg = {"experiment": experiment, "domain": prims, "norm": norm, "h": h, "p_list": list(p_list)}
    if solver:
        cfg["solver"] = solver
    return cfg


def inequality_matrix(seed: int, rundir: str) -> list:
    h = MATRIX_H
    doms = seeded_domains(np.random.default_rng(seed), h)
    refs = References()
    ops = []
    for dname, prims in doms.items():
        for nname, norm in NORMS.items():
            fk_name = f"faber_krahn_{dname}_{nname}"

            def fk_check(rep, rc, outputs, dname=dname, prims=prims, norm=norm):
                sides = RECTANGLE_SIDES.get(dname)
                wp = wulff_prims(norm)
                return checks.check_faber_krahn(rep, rc, {
                    "kappa": ref.wulff_area(norm),
                    "measure": None if sides is None else
                    (round(sides[0] / h) - 1) * (round(sides[1] / h) - 1) * h * h,
                    "lam1_5pt": _first(refs.five_point(prims, h, norm)),
                    "lam1_wulff_5pt": _first(refs.five_point(wp, h, norm)),
                    "rectangle": refs.rectangle(dname, prims, h, norm),
                    "quotient": refs.quotients(prims, h, norm, MATRIX_P),
                    "quotient_wulff": refs.quotients(wp, h, norm, MATRIX_P),
                })

            def hks_check(rep, rc, outputs, fk_name=fk_name, prims=prims, norm=norm):
                radius = rep["records"][0]["radius_ref"] if rep["records"] else 1.0
                fk = outputs[fk_name].live
                return checks.check_hks(rep, rc, {
                    "kappa": ref.wulff_area(norm),
                    "h": h,
                    "lam2_5pt": _second(refs.five_point(prims, h, norm)),
                    "lam1_ref_5pt": _first(refs.five_point(wulff_prims(norm, radius), h, norm)),
                    "lambda1": {r["p"]: r["lambda1"] for r in fk["records"]},
                })

            ops.append(config_op(rundir, fk_name, _config("faber_krahn", prims, norm, h, MATRIX_P, MATRIX_SOLVER),
                                 fk_check))
            ops.append(config_op(rundir, f"hks_{dname}_{nname}",
                                 _config("hks", prims, norm, h, MATRIX_P, MATRIX_SOLVER), hks_check))

    # the lambda_2 config sits on the unshifted unit square: it does not depend on the seed
    square = DOMAINS["square"]
    euclid = NORMS["euclidean"]
    ops.append(config_op(
        rundir, "lambda2_square_p2", _config("lambda2", square, euclid, h),
        lambda rep, rc, outputs: checks.check_lambda2(rep, rc, {
            "h": h, "lam_5pt": tuple(float(v) for v in refs.five_point(square, h, euclid))})))
    return ops


def large_p_limit(seed: int, rundir: str) -> list:
    h = LIMIT_H
    prims = seeded_domains(np.random.default_rng(seed), h)["square"]
    norm = NORMS["euclidean"]
    refs = References()

    def check(rep, rc, outputs):
        rec = rep["records"][0] if rep["records"] else {"rho_2f": 0.0}
        return checks.check_p_limit(rep, rc, {
            "h": h,
            "rho_f": float(refs.distance(prims, h, norm).max()),
            "rho_2f": refs.packing(prims, h, norm, rec["rho_2f"]),
            "quotient": refs.quotients(prims, h, norm, LIMIT_P),
            "lam_5pt": tuple(float(v) for v in refs.five_point(prims, h, norm)),
            "rectangle": refs.rectangle("square", prims, h, norm),
        })

    return [config_op(rundir, "p_limit_square_euclidean",
                      _config("p_limit", prims, norm, h, LIMIT_P, LIMIT_SOLVER), check)]


def _distance_check(refs: References, prims: list, norm: dict, h: float):
    def check(rep, rc, outputs):
        rec = rep["records"][0]
        d = refs.distance(prims, h, norm)
        return checks.check_distance(rep, rc, {
            "rho_f": float(d.max()),
            "d_argmax": float(d[tuple(rec["argmax_node"])]),
            "rho_2f": refs.packing(prims, h, norm, rec["rho_2f"]),
        })
    return check


def _fine_calls(prims: list) -> Output:
    """The README quick-start geometry calls on one fine grid, for every norm."""
    grid = fs.rasterize(fs.ShapeSpec.from_dict(prims), FINE_H)
    tri = fs.triangulate(grid)
    live, summary = {}, {}
    for nname, norm_dict in NORMS.items():
        norm = fs_norms.norm_from_dict(norm_dict)
        field = fs.distance_transform(grid, norm)
        rho, argmax = fs.inradius(field)
        pack = fs.two_wulff_radius(field, norm)
        frac = fs_distance.eikonal_bulk_fraction(field, norm, tri)
        live[nname] = (field, pack, frac)
        summary[nname] = {
            "rho_f": rho, "argmax": list(argmax), "rho_2f": pack.rho2,
            "centers": [list(c) for c in pack.centers], "eikonal": frac,
            "d_sha256": hashlib.sha256(field.d.tobytes()).hexdigest(),
        }
    return Output(0, json.dumps(summary, sort_keys=True).encode(), (grid, live))


def _fine_check(name: str, seed: int, index: int):
    def check(outputs: dict) -> list:
        grid, live = outputs[name].live
        nodes = np.argwhere(grid.mask)
        rng = np.random.default_rng([seed, index])
        sample = nodes[rng.choice(len(nodes), size=min(SAMPLE_NODES, len(nodes)), replace=False)]
        failures = []
        for nname, (field, pack, frac) in live.items():
            norm = NORMS[nname]
            pol = ref.polar_of(norm)
            # brute force on the nodes that can hold a packing ball, plus the sample and the centers
            floor = pack.rho2 - 1e-9
            cand = np.argwhere(grid.mask & (field.d >= floor))
            d_cand = ref.polar_distance(grid.mask, grid.origin, grid.h, norm, cand)
            px, py = ref.node_xy(grid.origin, grid.h, cand)
            centers = np.array(pack.centers)
            d_c = ref.polar_distance(grid.mask, grid.origin, grid.h, norm, centers)
            cx, cy = ref.node_xy(grid.origin, grid.h, centers)
            gap = 0.5 * float(ref.norm_value(pol, cx[0] - cx[1], cy[0] - cy[1]))
            summary = {"d_sample": [float(v) for v in field.d[sample[:, 0], sample[:, 1]]],
                       "rho_f": field.rho_f, "rho_2f": pack.rho2, "eikonal": frac}
            found = checks.check_geometry_call(summary, {
                "d_sample": ref.polar_distance(grid.mask, grid.origin, grid.h, norm, sample),
                "d_argmax": float(ref.polar_distance(grid.mask, grid.origin, grid.h, norm,
                                                     np.array([field.argmax_node]))[0]),
                "rho_2f": ref.packing_radius(px, py, d_cand, norm, floor),
                "pair_value": min(float(d_c[0]), float(d_c[1]), gap),
            })
            failures += [f"{nname}: {msg}" for msg in found]
        return failures
    return check


def geometry_fine(seed: int, rundir: str) -> list:
    doms = seeded_domains(np.random.default_rng(seed), DISTANCE_H)
    refs = References()
    ops = []
    for dname in GEOMETRY_DOMAINS:
        for nname, norm in NORMS.items():
            ops.append(config_op(rundir, f"distance_{dname}_{nname}",
                                 _config("distance", doms[dname], norm, DISTANCE_H),
                                 _distance_check(refs, doms[dname], norm, DISTANCE_H)))
    for index, dname in enumerate(GEOMETRY_DOMAINS):
        name = f"fine_calls_{dname}"
        ops.append(Op(name, lambda prims=doms[dname]: _fine_calls(prims), _fine_check(name, seed, index)))
    return ops


BUILDERS = {
    "inequality_matrix": inequality_matrix,
    "large_p_limit": large_p_limit,
    "geometry_fine": geometry_fine,
}
