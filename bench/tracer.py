"""Span tracer that wraps finsler_spectra's public functions from outside the package.

install() wraps every public function defined in each module of the package,
plus DomainGrid.subgrid, and rebinds each name in every package module that
holds it, whether defined there or imported by name; uninstall() puts every
original back.  Spans (name, parent span, start, end, status, a per-call
value) stay in flat arrays until the run writes them out.  A layer is a
module; self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import re
import statistics
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "experiments", "geometry", "norms", "fem", "eigensolve", "distance")

# per-layer metric -> (unit, better); the order is the order of the output
METRICS = {
    "cli.self_s": ("s", "lower"),
    "experiments.run.calls": ("count", "lower"),
    "experiments.self_s": ("s", "lower"),
    "geometry.rasterize.calls": ("count", "lower"),
    "geometry.rasterize.s": ("s", "lower"),
    "geometry.subgrid.calls": ("count", "lower"),
    "norms.kernel.calls": ("count", "lower"),
    "norms.kernel.s": ("s", "lower"),
    "norms.kernel.elements": ("count", "lower"),
    "fem.triangulate.calls": ("count", "lower"),
    "fem.triangulate.repeat_calls": ("count", "lower"),
    "fem.triangulate.s": ("s", "lower"),
    "fem.energy_terms.calls": ("count", "lower"),
    "fem.energy_terms.s": ("s", "lower"),
    "fem.gradient.calls": ("count", "lower"),
    "fem.gradient.s": ("s", "lower"),
    "fem.accepted_per_trial": ("ratio", "higher"),
    "fem.matvecs": ("count", "lower"),
    "eigensolve.lambda1.calls": ("count", "lower"),
    "eigensolve.lambda1.s": ("s", "lower"),
    "eigensolve.lambda1.self_s": ("s", "lower"),
    "eigensolve.lambda1.failed": ("count", "lower"),
    "eigensolve.lambda1.repeat_calls": ("count", "lower"),
    "eigensolve.bb_iterations": ("count", "lower"),
    "eigensolve.lambda2.calls": ("count", "lower"),
    "eigensolve.lambda2.s": ("s", "lower"),
    "eigensolve.part_solves": ("count", "lower"),
    "eigensolve.part_solves_failed": ("count", "lower"),
    "eigensolve.linear_p2.calls": ("count", "lower"),
    "eigensolve.linear_p2.s": ("s", "lower"),
    "eigensolve.linear_p2.repeat_calls": ("count", "lower"),
    "eigensolve.lu_solves": ("count", "lower"),
    "distance.transform.calls": ("count", "lower"),
    "distance.transform.s": ("s", "lower"),
    "distance.transform.pairs": ("count", "lower"),
    "distance.packing.s": ("s", "lower"),
    "distance.eikonal.s": ("s", "lower"),
    "distance.sup_rayleigh.s": ("s", "lower"),
    "distance.sup_rayleigh.pairs": ("count", "lower"),
}

_ITERATIONS = re.compile(r"after (\d+) iterations")


def _grid_key(grid):
    return (grid.h, grid.nx, grid.ny, grid.origin, grid.mask.tobytes())


def _ring_count(grid) -> int:
    return len(grid.boundary_node_indices())


# per wrapped function: key(arguments) -> repeat key or None, and
# value(arguments, result, exception) -> the number stored with the span
def _lambda1_key(a):
    if a["initial"] is not None:
        return None  # warm starts are not repeats of a cold solve
    return (_grid_key(a["grid"]), a["norm"], a["p"], a["opts"], a["plateau"])


def _lambda1_value(a, result, exc):
    if result is not None:
        return result.iterations
    found = _ITERATIONS.search(str(exc))
    return int(found.group(1)) if found else 0


_PROBES = {
    "fem.triangulate": (lambda a: _grid_key(a["grid"]), None),
    "eigensolve.solve_lambda1": (_lambda1_key, _lambda1_value),
    "eigensolve.solve_linear_p2": (lambda a: (_grid_key(a["grid"]), a["norm"], a["k"]),
                                   lambda a, r, e: r.iterations if r is not None else 0),
    "distance.distance_transform": (None, lambda a, r, e: a["grid"].interior_count * _ring_count(a["grid"])),
    "distance.sup_rayleigh": (None, lambda a, r, e: (a["field"].tri.ndof + _ring_count(a["field"].tri.grid)) ** 2),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.value = array("d")
        self.repeat = array("b")
        self.rounds: list = []          # (first span, end span) of each round
        self._stack: list = []
        self._seen: set = set()
        self.rebound: list = []         # (owner, attribute, original)

    # -- wrapping -------------------------------------------------------
    def _wrap(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        key_of, value_of = _PROBES.get(qual, (None, None))
        if qual == "norms.squared_with_halfgrad":
            def value_of(a, r, e):
                return np.size(a[1])
            sig = None
        else:
            sig = inspect.signature(fn) if key_of is not None or value_of is not None else None
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.start)
            if sig is not None:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                a = ba.arguments
            else:
                a = args
            rep = 0
            if key_of is not None:
                k = key_of(a)
                if k is not None:
                    rep = 1 if k in tr._seen else 0
                    tr._seen.add(k)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1] if tr._stack else -1)
            tr.failed.append(0)
            tr.value.append(0.0)
            tr.repeat.append(rep)
            tr.end.append(0.0)
            tr._stack.append(idx)
            tr.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr.end[idx] = time.perf_counter()
                tr._stack.pop()
                tr.failed[idx] = 1
                if value_of is not None:
                    tr.value[idx] = value_of(a, None, exc)
                raise
            tr.end[idx] = time.perf_counter()
            tr._stack.pop()
            if value_of is not None:
                tr.value[idx] = value_of(a, result, None)
            return result

        return traced

    def install(self) -> None:
        from finsler_spectra.geometry import DomainGrid

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"finsler_spectra.{layer}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        holders = [m for n, m in list(sys.modules.items())
                   if n == "finsler_spectra" or n.startswith("finsler_spectra.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        original = DomainGrid.subgrid
        self.rebound.append((DomainGrid, "subgrid", original))
        DomainGrid.subgrid = self._wrap("geometry.DomainGrid.subgrid", original)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(getattr(owner, attr) is original for owner, attr, original in self.rebound)

    # -- rounds -----------------------------------------------------------
    def begin_round(self) -> None:
        self._seen.clear()  # repeats count within one round
        self.rounds.append([len(self.start), None])

    def end_round(self) -> None:
        self.rounds[-1][1] = len(self.start)

    # -- metrics ----------------------------------------------------------
    def arrays(self):
        return (np.array(self.name, dtype=np.uint16), np.array(self.parent, dtype=np.int32),
                np.array(self.start), np.array(self.end), np.array(self.failed, dtype=np.int8),
                np.array(self.value), np.array(self.repeat, dtype=np.int8))

    def metrics(self) -> dict:
        """Every per-layer metric, as the median over rounds of its per-round value."""
        name, parent, start, end, failed, value, repeat = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_t = dur - child
        ids = {n: i for i, n in enumerate(self.names)}
        layer_of = np.array([n.split(".")[0] for n in self.names] or [""])
        lambda2_id = ids.get("eigensolve.solve_lambda2", -1)
        per_round = []
        for lo, hi in self.rounds:
            sl = slice(lo, hi)
            nm = name[sl]

            def sel(qual):
                return nm == ids.get(qual, -1)

            def calls(qual):
                return int(sel(qual).sum())

            def total(qual, arr=dur):
                return float(arr[sl][sel(qual)].sum())

            def layer_self(layer):
                return float(self_t[sl][layer_of[nm] == layer].sum()) if len(nm) else 0.0

            lam1 = np.flatnonzero(sel("eigensolve.solve_lambda1")) + lo
            parts = [i for i in lam1 if self._under(parent, name, i, lambda2_id)]
            energy, grad = calls("fem.energy_terms"), calls("fem.gradient_from_terms")
            per_round.append({
                "cli.self_s": layer_self("cli"),
                "experiments.run.calls": calls("experiments.run"),
                "experiments.self_s": layer_self("experiments"),
                "geometry.rasterize.calls": calls("geometry.rasterize"),
                "geometry.rasterize.s": total("geometry.rasterize"),
                "geometry.subgrid.calls": calls("geometry.DomainGrid.subgrid"),
                "norms.kernel.calls": calls("norms.squared_with_halfgrad"),
                "norms.kernel.s": total("norms.squared_with_halfgrad"),
                "norms.kernel.elements": total("norms.squared_with_halfgrad", value),
                "fem.triangulate.calls": calls("fem.triangulate"),
                "fem.triangulate.repeat_calls": total("fem.triangulate", repeat),
                "fem.triangulate.s": total("fem.triangulate"),
                "fem.energy_terms.calls": energy,
                "fem.energy_terms.s": total("fem.energy_terms"),
                "fem.gradient.calls": grad,
                "fem.gradient.s": total("fem.gradient_from_terms"),
                "fem.accepted_per_trial": grad / energy if energy else 0.0,
                "fem.matvecs": 2 * energy + 2 * grad,
                "eigensolve.lambda1.calls": calls("eigensolve.solve_lambda1"),
                "eigensolve.lambda1.s": total("eigensolve.solve_lambda1"),
                "eigensolve.lambda1.self_s": total("eigensolve.solve_lambda1", self_t),
                "eigensolve.lambda1.failed": total("eigensolve.solve_lambda1", failed),
                "eigensolve.lambda1.repeat_calls": total("eigensolve.solve_lambda1", repeat),
                "eigensolve.bb_iterations": total("eigensolve.solve_lambda1", value),
                "eigensolve.lambda2.calls": calls("eigensolve.solve_lambda2"),
                "eigensolve.lambda2.s": total("eigensolve.solve_lambda2"),
                "eigensolve.part_solves": len(parts),
                "eigensolve.part_solves_failed": int(sum(failed[i] for i in parts)),
                "eigensolve.linear_p2.calls": calls("eigensolve.solve_linear_p2"),
                "eigensolve.linear_p2.s": total("eigensolve.solve_linear_p2"),
                "eigensolve.linear_p2.repeat_calls": total("eigensolve.solve_linear_p2", repeat),
                "eigensolve.lu_solves": total("eigensolve.solve_linear_p2", value),
                "distance.transform.calls": calls("distance.distance_transform"),
                "distance.transform.s": total("distance.distance_transform"),
                "distance.transform.pairs": total("distance.distance_transform", value),
                "distance.packing.s": total("distance.two_wulff_radius"),
                "distance.eikonal.s": total("distance.eikonal_bulk_fraction"),
                "distance.sup_rayleigh.s": total("distance.sup_rayleigh"),
                "distance.sup_rayleigh.pairs": total("distance.sup_rayleigh", value),
            })
        out = {}
        for k, (unit, _) in METRICS.items():
            v = statistics.median(r[k] for r in per_round)
            out[k] = int(v) if unit == "count" and float(v).is_integer() else float(v)
        return out

    @staticmethod
    def _under(parent, name, i, ancestor_id) -> bool:
        j = parent[i]
        while j >= 0:
            if name[j] == ancestor_id:
                return True
            j = parent[j]
        return False

    def save(self, path: str) -> None:
        name, parent, start, end, failed, value, repeat = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end,
                 failed=failed, value=value, repeat=repeat, rounds=np.array(self.rounds, dtype=np.int64))
