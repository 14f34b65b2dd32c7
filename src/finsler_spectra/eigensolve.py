"""First and second Dirichlet eigenvalues of the anisotropic p-Laplacian.

lambda_1 comes from minimizing the Rayleigh quotient

    R_p(u) = energy_p(u) / mass_p(u)

over nonzero P1 fields, one connected component at a time, by Newton's
method on the mass sphere mass_p(u) = 1 (one banded bordered KKT solve per
step) along an exponent ladder 2 -> 4 -> ... -> p of warm starts.  lambda_2
comes from its bipartition characterization: the minimum over disjoint
sub-domain pairs of max(lambda_1, lambda_1), searched over nodal splits,
packing-based splits and a greedy interface descent.  A linear 5-point
oracle provides exact p = 2 answers for the quadratic (q = 2) norms and all
initial guesses.
"""
from __future__ import annotations

import functools
import itertools
import logging
import math
import time
from collections import Counter
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import ndimage
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import distance as _distance
from .fem import (CELL_ORDER, CORNERS, HATS, STENCIL, ScalarField, Triangulation, _mass_gradient_values,
                  energy_from_terms, energy_p, energy_terms, gradient_from_terms, mass_p, triangulate)
from .geometry import _FOUR, _MESH, DomainGrid, _check_keys, components
from .norms import NormSpec, _number, euclidean, polar_eval, power_hessian_from_terms

log = logging.getLogger(__name__)

_SEED = 0

# a Newton step whose predicted change of the quotient is below this fraction of
# it is rounding noise: the stage stops there on "floor"
_FLOOR = 1e-14
# the largest residual (or tol, if larger) at which a "floor" stop counts as converged
_FLOOR_RESIDUAL = 1e-4
_BACKTRACKS = 10
_MAX_SWEEPS = 6


class ConvergenceError(RuntimeError):
    """Raised when an eigenvalue solve ends far from stationarity."""


_KINDS = ("triangulations", "p2_factorizations", "newton_matrices", "rungs", "components")


class _GridContext:
    """What one experiments.run(), or one direct solve_lambda1 or solve_lambda2
    call, computes once per grid and keeps until it returns.

    It holds each grid's components, and the triangulations and the Newton
    matrices of lambda_1's components, keyed by (h, origin, mask shape, mask
    bytes), the p=2 eigenpairs (one eigsh call serves k = 1 and 2), keyed by
    that and the norm, and the cold ladder rungs of solve_lambda1; each under
    (kind, key) of one store, with read-only arrays.  Entered while another is
    open, it joins that one: ``with`` yields the open context, and the exit
    undoes nothing.  So nothing outlives the block that opened it, whose exit
    logs each kind's built and reused counts and ``seconds`` at DEBUG.  _kept
    is the one path that reads the store.  ``seconds`` sums each kind's build
    time, a build that triangulates its grid on the way included.
    """

    def __init__(self):
        self.kept: Dict[tuple, object] = {}
        self.built: Counter = Counter()
        self.reused: Counter = Counter()
        self.seconds: Counter = Counter()
        self._token = None

    def __enter__(self) -> "_GridContext":
        if _CONTEXT.get() is None:
            self._token = _CONTEXT.set(self)
        return _CONTEXT.get()

    def __exit__(self, *exc) -> None:
        if self._token is not None:  # the context that opened; one that joined undoes nothing
            _CONTEXT.reset(self._token)
            self.kept = {}
            log.debug("grid context: %s", "; ".join(f"{kind} built={self.built[kind]} reused={self.reused[kind]} "
                                                    f"build_s={self.seconds[kind]:.4f}" for kind in _KINDS))


_CONTEXT: ContextVar[Optional[_GridContext]] = ContextVar("finsler_spectra_grid_context",
                                                          default=None)


def _grid_key(grid: DomainGrid):
    return grid.h, grid.origin, grid.mask.shape, grid.mask.tobytes()


def _sparse_arrays(*mats):
    return [a for m in mats for a in (m.data, m.indices, m.indptr)]


def _kept(kind: str, key, build, arrays=None):
    """build(), or inside a grid context the value kept under (kind, key): a hit counts a
    reuse, a miss keeps build() with arrays(value) read-only, or returns None if build is None."""
    ctx = _CONTEXT.get()
    if ctx is None:
        return None if build is None else build()
    value = ctx.kept.get((kind, key))
    if value is not None:
        ctx.reused[kind] += 1
    elif build is not None:
        t0 = time.perf_counter()
        value = ctx.kept[kind, key] = build()
        ctx.seconds[kind] += time.perf_counter() - t0
        ctx.built[kind] += 1
        for a in arrays(value):
            a.flags.writeable = False
    return value


def _components(grid: DomainGrid) -> List[DomainGrid]:
    """components(grid), or inside a grid context the ones kept for grid's mask."""
    return _kept("components", _grid_key(grid), lambda: components(grid), lambda parts: [c.mask for c in parts])


def _triangulation(grid: DomainGrid) -> Triangulation:
    """triangulate(grid), or inside a grid context the one kept for grid's mask."""
    return _kept("triangulations", _grid_key(grid), lambda: triangulate(grid),
                 lambda tri: [tri.dof_nodes, tri.cell_ij, tri.cell_nodes, tri.node_cells, tri.grid.mask,
                              *_sparse_arrays(tri.G, tri.GxT, tri.GyT)])


@dataclass(frozen=True)
class SolverOptions:
    """max_iter caps the Newton steps of each stage; tol is the scaled residual to reach."""

    max_iter: int = 20000
    tol: float = 1e-8

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ValueError(f"solver.max_iter must be at least 1, got {self.max_iter!r}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"solver.tol must be finite and positive, got {self.tol!r}")

    @staticmethod
    def from_dict(d: dict) -> "SolverOptions":
        _check_keys("solver", d, (), ("max_iter", "tol"))
        opts = SolverOptions()
        return SolverOptions(
            max_iter=_number("solver.max_iter", d.get("max_iter", opts.max_iter), integer=True),
            tol=_number("solver.tol", d.get("tol", opts.tol)))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EigenResult:
    lam: float
    u: ScalarField
    p: float
    iterations: int
    residual: float

    @property
    def nodal_count(self) -> int:
        """The number of nodal domains of u (see nodal_domains), counted when read."""
        return nodal_domains(self.u)[0]

    def to_dict(self) -> dict:
        return {"lambda": self.lam, "p": self.p, "iterations": self.iterations,
                "residual": self.residual, "nodal_count": self.nodal_count}


@dataclass
class BipartitionResult:
    """One lambda_2 candidate: two disjoint part masks of a grid and lambda_1 on each."""

    part1: np.ndarray
    part2: np.ndarray
    result1: EigenResult
    result2: EigenResult

    @property
    def lambda2(self) -> float:
        return max(self.result1.lam, self.result2.lam)

    def signed_field(self, tri: Triangulation) -> ScalarField:
        """Positive first eigenfunction on part1 minus the one on part2."""
        arr = self.result1.u.as_grid_array() - self.result2.u.as_grid_array()
        return ScalarField.from_grid_array(tri, arr)


def rayleigh_quotient(u: ScalarField, norm: NormSpec, p: float) -> float:
    """energy_p(u, p) / mass_p(u, p); 0-homogeneous in u."""
    m = mass_p(u, p)
    if m == 0.0:
        raise ValueError("rayleigh_quotient: zero field")
    return energy_p(u, norm, p) / m


def nodal_domains(u: ScalarField) -> Tuple[int, np.ndarray]:
    """Count the mesh-connected components (see geometry._MESH) of {u > t} and {u < -t},
    t = 1e-6 max|u|: a P1 field's sign set is connected across a triangle's shared edge.

    Returns (count, labels) with positive-domain labels first, 0 elsewhere.
    """
    arr = u.as_grid_array()
    t = 1e-6 * np.abs(arr).max(initial=0.0)
    labels = np.zeros(arr.shape, dtype=np.int32)
    pos, npos = ndimage.label(arr > t, structure=_MESH)
    neg, nneg = ndimage.label(arr < -t, structure=_MESH)
    labels[pos > 0] = pos[pos > 0]
    labels[neg > 0] = neg[neg > 0] + npos
    return int(npos + nneg), labels


def _mass_root(tri: Triangulation, values: np.ndarray, p: float) -> float:
    # p-th root of the lumped mass in a form that cannot overflow for huge
    # line-search trials: mass^{1/p} = max|v| * (h^2 sum (|v|/max)^p)^{1/p}
    a = np.abs(values)
    peak = float(a.max(initial=0.0))
    if peak == 0.0 or not math.isfinite(peak):
        raise ValueError("cannot normalize a zero or non-finite field")
    a /= peak
    a **= p
    root = peak * (tri.h ** 2 * float(a.sum())) ** (1.0 / p)
    if root == 0.0 or not math.isfinite(root):
        raise ValueError("cannot normalize a zero or non-finite field")
    return root


def _normalize(tri: Triangulation, values: np.ndarray, p: float) -> np.ndarray:
    return values / _mass_root(tri, values, p)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    # einsum sums in one thread whatever OPENBLAS_NUM_THREADS says; x @ y goes to a
    # BLAS ddot whose long sums are split by thread, so its last bits follow the count
    return float(np.einsum("i,i", x, y))


def _evaluate(tri, norm, p, w):
    """w / c, c the p-th root of w's lumped mass, with its gradient components
    G w / c, quotient and energy terms: one mass pass, one sparse product and
    the norm kernel.  A zero or non-finite w raises ValueError."""
    c = _mass_root(tri, w, p)
    comps = tri.gradient_components(w) / c
    terms = energy_terms(comps, norm)
    return w / c, comps, energy_from_terms(tri, terms, p), terms


def _tangent_gradient(tri, p, v, r, terms):
    """(g, gm, res) at a unit-mass field v of quotient r: the quotient's gradient g projected on the
    mass sphere's tangent, the mass gradient gm and the scaled stationarity residual |g|_2 |v|_2 / r."""
    gm = _mass_gradient_values(tri, v, p)
    g = gradient_from_terms(tri, terms, p)
    g -= r * gm
    g -= (_dot(g, gm) / _dot(gm, gm)) * gm
    return g, gm, math.sqrt(_dot(g, g) * _dot(v, v)) / r


def _map_template():
    """The rows of _NewtonMatrix.map as one template per STENCIL slot s: the entries start[s] to
    start[s] + length[s] of (comp, upper, corner, mult).  Map row (r, s), the entry of L at node r
    and its neighbour in slot s, sums over the triangles that hold both (fem.HATS) mult area/h^2
    times K's component comp (0 = xx, 1 = xy, 2 = yy) at column comp * ntri + upper * ncell +
    node_cells[r, corner]; the diagonal adds the mass (comp 3, corner 4: r itself).  Sorted by
    (comp, upper, CELL_ORDER), a template is in column order."""
    rows = [[] for _ in STENCIL]
    for upper, hat in enumerate(HATS):
        for k, (gx, gy) in hat.items():
            for k2, (gx2, gy2) in hat.items():
                slot = STENCIL.index((CORNERS[k2][0] - CORNERS[k][0], CORNERS[k2][1] - CORNERS[k][1]))
                for comp, mult in enumerate((gx * gx2, gx * gy2 + gy * gx2, gy * gy2)):
                    if mult:
                        rows[slot].append((comp, upper, CELL_ORDER.index(k), k, mult))
    rows[STENCIL.index((0, 0))].append((3, 0, 0, 4, 1))
    length = np.array([len(row) for row in rows])
    entries = np.array([(comp, upper, k, mult) for row in rows for comp, upper, _, k, mult in sorted(row)])
    return (np.cumsum(length) - length, length, *entries.T)


_MAP_TEMPLATE = _map_template()


class _NewtonMatrix:
    """L = H_E - lam H_M + mu I of one triangulation in LAPACK band storage, bordered by
    the mass gradient m.  H_E = area G^T K G, with K the per-triangle 2x2 blocks of
    norms.power_hessian.  The nodes are renumbered once in reverse Cuthill-McKee order
    (half-bandwidth w) of the mesh's 7-point stencil, L's pattern; the entries of L are one
    sparse product of a map with [K entries, -H_M diagonal], whose rows are written from each
    node's cells (see _map_template)."""

    def __init__(self, tri: Triangulation):
        n, nt = tri.ndof, tri.ntri
        nbr = tri.stencil()
        on = nbr >= 0
        graph = sp.csr_matrix((np.ones(on.sum()), nbr[on], np.concatenate([[0], np.cumsum(on.sum(axis=1))])),
                              shape=(n, n))
        self.perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
        self.rank = np.argsort(self.perm)
        # L's entries in the new numbering, row by row and by column within a row
        col = np.where(on, self.rank[nbr], n)[self.perm]
        slot = np.argsort(col, axis=1)
        col = np.take_along_axis(col, slot, axis=1)
        on = col < n
        self.rows, self.cols = np.nonzero(on)[0], col[on]
        start, length, comp, upper, corner, mult = _MAP_TEMPLATE
        slot = slot[on]
        size = length[slot]
        indptr = np.concatenate([[0], np.cumsum(size)])
        e = np.arange(indptr[-1]) + np.repeat(start[slot] - indptr[:-1], size)  # template entry
        node = np.repeat(self.perm[self.rows], size)
        cells = np.column_stack([tri.node_cells, np.arange(n)])
        coef = (comp * nt + upper * (nt // 2))[e] + cells[node, corner[e]]
        value = np.where(comp == 3, 1.0, mult * (tri.area * (1.0 / tri.h) * (1.0 / tri.h)))[e]
        self.map = sp.csr_matrix((value, coef, indptr), shape=(self.rows.size, 3 * nt + n))
        self.w = w = int(np.abs(self.rows - self.cols).max(initial=0))
        self.band = (2 * w + self.rows - self.cols, self.cols)  # where L's entries sit in the band
        self.tri = tri
        log.debug("newton matrix dofs=%d band=%d", n, w)

    def data(self, norm, p, v, gv, terms, gm, lam):
        """Entries of L at mu = 0 and m, renumbered, at the unit-mass v of quotient lam from what its stage
        holds: the gradients gv, their energy terms and the mass gradient gm, none computed again."""
        a = np.abs(v)
        a = np.maximum(a, 1e-5 * a.max())  # the p < 2 mass Hessian is infinite where v = 0
        hm = lam * p * (p - 1.0) * self.tri.h ** 2 * a ** (p - 2.0)
        entries = self.map @ np.concatenate([*power_hessian_from_terms(norm, p, *gv, terms), -hm])
        return entries, gm[self.perm]

    def step(self, data, mu, g):
        """The d of [[L + mu I, m], [m^T, 0]] [d; nu] = [-g; 0], or None where L + mu I has a
        zero pivot or m^T (L + mu I)^-1 m = 0: block elimination over one band LU, then one
        step of iterative refinement, without which d loses its digits near an eigenfunction,
        where L is nearly singular (Govaerts & Pryce, BIT 30, 1990)."""
        (entries, m), w, n = data, self.w, data[1].size
        ab = np.zeros((3 * w + 1, n), order="F")
        ab[self.band] = entries
        ab[2 * w] += mu
        lu, piv, info = dgbtrf(ab, w, w, overwrite_ab=True)
        if info > 0:
            return None
        f = -g[self.perm]
        xg, xm = dgbtrs(lu, w, w, np.array([f, m]).T, piv)[0].T
        mxm = _dot(m, xm)
        if mxm == 0.0:
            return None
        nu = _dot(m, xg) / mxm
        d = xg - nu * xm
        r = f - np.bincount(self.rows, entries * d[self.cols], minlength=n) - mu * d - nu * m
        y = dgbtrs(lu, w, w, r, piv)[0]
        d += y - ((_dot(m, y) + _dot(m, d)) / mxm) * xm
        return d[self.rank]


def _newton_matrix(tri: Triangulation) -> _NewtonMatrix:
    """_NewtonMatrix(tri), or inside a grid context the one kept for tri's mask."""
    return _kept("newton_matrices", _grid_key(tri.grid), lambda: _NewtonMatrix(tri),
                 lambda kkt: [kkt.perm, kkt.rank, kkt.rows, kkt.cols, *kkt.band,
                              *_sparse_arrays(kkt.map)])


def _newton_stage(tri, kkt, norm, p, values, tol, max_iter):
    """Newton's method for the quotient on the mass sphere at one exponent.

    A step solves the system of _NewtonMatrix, scales v + a d to unit mass and
    halves a until the quotient drops (Armijo); an accepted full step also tries
    a at the minimum of the parabola through R(0), R'(0) and R(1) and keeps the
    lower quotient (Nocedal & Wright, section 3.5).  A step that is no descent
    direction or fails its line search is retried with mu grown tenfold (from 0
    to 1e-12 of the largest matrix entry); an accepted one shrinks a nonzero mu
    tenfold, down to that floor.  Stops on tol, on the quotient's rounding
    floor, or after max_iter steps.
    """
    v, gv, r, terms = _evaluate(tri, norm, p, values)
    g, gm, res = _tangent_gradient(tri, p, v, r, terms)
    steps = factorizations = trials = parabola = 0
    mu, data, reason = 0.0, None, "tol"
    while res > tol:
        if steps == max_iter:
            reason = "maxiter"
            break
        if data is None:
            data = kkt.data(norm, p, v, gv, terms, gm, r)
            mu_min = 1e-12 * max(float(np.abs(x).max()) for x in data)
        d = kkt.step(data, mu, g)
        factorizations += 1
        slope = 0.0 if d is None else _dot(g, d)
        floor = d is not None and abs(slope) <= _FLOOR * r
        # at the floor the quotient cannot resolve the Armijo decrease: the step is
        # taken unless the quotient rises beyond rounding, and it is the stage's last
        slack = _FLOOR * r if floor else 0.0
        accepted = False
        if slope < 0.0:
            for alpha in 0.5 ** np.arange(_BACKTRACKS):
                trials += 1
                try:
                    trial = _evaluate(tri, norm, p, v + alpha * d)
                except ValueError:  # a zero or overflowing trial
                    continue
                accepted = trial[2] <= r + 1e-4 * alpha * slope + slack
                if accepted:
                    break
            # an accepted full step also tries the minimum of the parabola through R(0), R'(0) and R(1)
            # if well off 1: near a p < 2 apex R acts like |x|^p, where Newton overshoots by (p-2)/(p-1)
            curve = trial[2] - r - slope if accepted and alpha == 1.0 and not floor else 0.0
            a_fit = -slope / (2.0 * curve) if curve > 0.0 else 1.0
            if 0.05 < a_fit < 4.0 and abs(a_fit - 1.0) > 0.05:
                trials += 1
                try:
                    fit = _evaluate(tri, norm, p, v + a_fit * d)
                except ValueError:
                    fit = trial
                if fit[2] < trial[2]:
                    trial = fit
                    parabola += 1
        if accepted:
            v, gv, r, terms = trial
            g, gm, res = _tangent_gradient(tri, p, v, r, terms)
            steps += 1
            data = None
            mu = max(0.1 * mu, mu_min) if mu else 0.0
        elif not floor:
            mu = max(10.0 * mu, mu_min)
            continue
        if floor and res > tol:
            reason = "floor"
            break
    log.debug("newton stage p=%g dofs=%d steps=%d factorizations=%d trials=%d parabola=%d mu=%.1e "
              "stop=%s residual=%.3e", p, tri.ndof, steps, factorizations, trials, parabola, mu, reason, res)
    return v, r, steps, res, reason


def _exponent_ladder(p: float) -> List[float]:
    """2, 4, 8, ... up to just below p, then p."""
    ladder = [2.0]
    while 2.0 * ladder[-1] < p * 0.999:
        ladder.append(2.0 * ladder[-1])
    return ladder if p == 2.0 else ladder + [p]


def _p2_stand_in(norm: NormSpec) -> NormSpec:
    # the linear oracle needs q = 2; l_q norms start from the Euclidean one
    return norm if norm.q == 2.0 else euclidean()


def solve_lambda1(
    grid: DomainGrid,
    norm: NormSpec,
    p: float,
    opts: SolverOptions = SolverOptions(),
    initial: None = None,
    plateau: None = None,
) -> EigenResult:
    """Minimize the Rayleigh quotient; returns the nonnegative eigenfunction.

    lambda_1 is the smallest value over the connected components, each solved
    on its own (at p < 2 the mass Hessian is infinite where u vanishes); u is
    zero off the winning one.  A component climbs the doubling ladder from its
    p=2 linear eigenfunction, one Newton stage per rung.  The solve joins the
    open grid context, or opens one for the call, which keeps each rung's
    stage for (component mask, norm, rung, opts): rung 2 starts from the p=2
    eigenfunction, any other from the power of two before it in every ladder
    that holds it, so a kept stage is bit for bit a fresh one, and a repeated
    mask runs only the final field evaluation.  ``iterations`` counts the
    steps of every rung that led to u, kept ones included.  A stage, kept or
    run, raises ConvergenceError unless its quotient is finite and its
    residual is at most ``opts.tol``, or at most max(opts.tol,
    _FLOOR_RESIDUAL) for a stop on the rounding floor; so a stage that
    reaches ``opts.max_iter`` steps raises.  ``initial`` and ``plateau`` are
    no longer settings and must stay None (bench/tracer.py binds both).
    """
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    for name, value in (("initial", initial), ("plateau", plateau)):
        if value is not None:
            raise ValueError(f"solve_lambda1: {name} is no longer a setting, got a {type(value).__name__}")
    with _GridContext():
        tri = _triangulation(grid)
        best, total = None, 0
        parts = _components(grid)
        for part in parts if len(parts) > 1 else [grid]:
            sub = tri if part is grid else _triangulation(part)
            kkt = _newton_matrix(sub)
            v = _linear_p2(part, _p2_stand_in(norm), 1).u.values
            for q in _exponent_ladder(p):
                key = (_grid_key(part), norm, q, opts)
                kept = _kept("rungs", key, None)
                stage = functools.partial(_newton_stage, sub, kkt, norm, q, v, opts.tol, opts.max_iter)
                v, lam, steps, res, reason = kept or _kept("rungs", key, stage, lambda rung: rung[:1])
                if kept:
                    log.debug("newton stage kept p=%g dofs=%d steps=%d stop=%s residual=%.3e",
                              q, sub.ndof, steps, reason, res)
                total += steps
                bound = max(opts.tol, _FLOOR_RESIDUAL) if reason == "floor" else opts.tol
                if not (math.isfinite(lam) and res <= bound):
                    raise ConvergenceError(f"lambda_1 solve did not converge: p={q}, dofs={sub.ndof}, "
                                           f"residual={res:.3e} after {total} iterations")
            if best is None or lam < best[0]:
                best = (lam, part.mask, v)
        arr = np.zeros(grid.mask.shape)
        arr[best[1]] = best[2]
        # first eigenfunctions have constant sign: the nodewise absolute value
        # never increases the energy for these norms and pins the sign convention
        v, _, lam, terms = _evaluate(tri, norm, p, np.abs(arr[grid.mask]))
        return EigenResult(lam=float(lam), u=ScalarField(tri, v), p=p, iterations=total,
                           residual=_tangent_gradient(tri, p, v, lam, terms)[2])


def _stiffness(tri: Triangulation, norm: NormSpec) -> sp.csc_matrix:
    """K = area (w1 Gx^T Gx + w2 Gy^T Gy), the quadratic form of energy_2: the 5-point stencil,
    -2/h^2 per neighbour and 4/h^2 per direction on the diagonal, summed as a sparse product sums."""
    x = (1.0 / tri.h) * (1.0 / tri.h)
    side, diag = -2.0 * x, x + x + x + x
    values = tri.area * np.array([norm.w1 * side, norm.w2 * side, norm.w1 * diag + norm.w2 * diag,
                                  norm.w2 * side, norm.w1 * side])
    nbr = tri.stencil()[:, 1:6]  # (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)
    on = nbr >= 0
    return sp.csc_matrix((np.broadcast_to(values, nbr.shape)[on], nbr[on],
                          np.concatenate([[0], np.cumsum(on.sum(axis=1))])), shape=(tri.ndof, tri.ndof))


class _LinearPairs:
    """The two lowest eigenpairs of a grid's p=2 operator from one eigsh call;
    the EigenResult of each k is built when first asked for, with a read-only
    field when the pairs are kept read-only by a grid context."""

    def __init__(self, tri: Triangulation, norm: NormSpec):
        self.tri = tri
        self.norm = norm
        self.K = _stiffness(tri, norm)
        self.solves = 0
        if tri.ndof > 2:
            lu = spla.splu(self.K)

            def inverse(x):
                self.solves += 1
                return lu.solve(x)

            op = spla.LinearOperator(self.K.shape, matvec=inverse, dtype=float)
            v0 = np.random.default_rng(_SEED).standard_normal(tri.ndof)
            self.w, self.vecs = spla.eigsh(self.K, k=2, sigma=0.0, OPinv=op, v0=v0)
        else:
            # ARPACK needs more unknowns than requested pairs
            self.w, self.vecs = scipy.linalg.eigh(self.K.toarray())
        self._results: Dict[int, EigenResult] = {}

    def result(self, k: int) -> EigenResult:
        tri = self.tri
        if tri.ndof < k:
            raise ValueError(f"eigenpair k={k} needs at least k interior nodes, got ndof={tri.ndof}")
        if k in self._results:
            return self._results[k]
        v = self.vecs[:, np.argsort(self.w)[k - 1]]
        if v.sum() < 0:
            v = -v
        v = _normalize(tri, v, 2.0)
        u = ScalarField(tri, v)
        lam = rayleigh_quotient(u, self.norm, 2.0)
        m = tri.h ** 2  # lumped mass is m * identity
        residual = float(np.linalg.norm(self.K @ v - lam * m * v) / (lam * m * np.linalg.norm(v)))
        if residual > 1e-9:
            raise ConvergenceError(f"linear p=2 oracle did not converge: k={k}, residual={residual:.2e}")
        v.flags.writeable = self.vecs.flags.writeable  # read-only where the pairs are kept
        self._results[k] = EigenResult(lam=lam, u=u, p=2.0, iterations=self.solves, residual=residual)
        return self._results[k]


def solve_linear_p2(grid: DomainGrid, norm: NormSpec, k: int) -> EigenResult:
    """k-th eigenpair (k = 1 or 2) of the 5-point operator for quadratic (q = 2) norms.

    Assembles the same quadratic form as energy_2 on the triangulation and
    takes the two lowest pairs from shift-invert Lanczos (ARPACK at sigma=0
    over one sparse LU factor, seeded start, so reruns are identical) or, on
    grids too small for ARPACK, from a dense solve.  The answer is the exact
    discrete minimizer the nonlinear solver targets.  Two pairs are computed
    even for k = 1: asked for one pair of a degenerate lambda_1 (two equal
    components), ARPACK stops near a 1e-9 residual.  Inside a grid context
    both pairs are kept and reused while it is open.  ``iterations`` counts the
    LU solves; ``residual`` is the relative residual of the returned pair.
    """
    if norm.q != 2.0:
        raise ValueError(f"the linear p=2 oracle needs a quadratic norm (q = 2), got q={norm.q!r}")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    pairs = _kept("p2_factorizations", (_grid_key(grid), norm),
                  lambda: _LinearPairs(_triangulation(grid), norm),
                  lambda p2: [p2.w, p2.vecs, *_sparse_arrays(p2.K)])
    return pairs.result(k)


def _linear_p2(grid: DomainGrid, norm: NormSpec, k: int) -> EigenResult:
    """solve_linear_p2, or inside a grid context the pairs already computed for this grid."""
    pairs = _kept("p2_factorizations", (_grid_key(grid), norm), None)
    return solve_linear_p2(grid, norm, k) if pairs is None else pairs.result(k)


def _greedy_refine(grid: DomainGrid, solve, p1: np.ndarray, p2: np.ndarray):
    """Move interface layers onto the side with larger lambda_1 while max drops.

    A sweep grows the side with the larger lambda_1 (the first part on a tie)
    by its frontier and solves the shrunk side first: the pair's max is at
    least that value, so a shrunk side that does not beat the best value
    rejects the sweep alone.  A solve that raises ConvergenceError ends the
    search at its best pair.  solve(mask) is lambda_1 on a part mask of grid
    (see _lambda2_connected).  Returns the best BipartitionResult and
    (start, sweeps, accepted): the given pair's value, the sweeps that
    requested a part solve, and those that moved the interface.
    """
    best = BipartitionResult(p1, p2, solve(p1), solve(p2))
    start, sweeps, accepted = best.lambda2, 0, 0
    for _ in range(_MAX_SWEEPS):
        # values within 1e-12 are a tie (mirror-image parts), which grows the first part
        hi_is_first = best.result1.lam >= best.result2.lam * (1.0 - 1e-12)
        hi, lo = (best.part1, best.part2) if hi_is_first else (best.part2, best.part1)
        frontier = ndimage.binary_dilation(hi, structure=_FOUR) & grid.mask & ~hi
        new_hi, new_lo = hi | frontier, lo & ~frontier
        if not new_lo.any():
            break
        sweeps += 1
        try:
            c_lo = solve(new_lo)
            if not c_lo.lam < best.lambda2 * (1.0 - 1e-10):
                break
            c_hi = solve(new_hi)
        except ConvergenceError:
            break
        cand = (BipartitionResult(new_hi, new_lo, c_hi, c_lo) if hi_is_first
                else BipartitionResult(new_lo, new_hi, c_lo, c_hi))
        if not cand.lambda2 < best.lambda2 * (1.0 - 1e-10):
            break
        accepted += 1
        best = cand
    return best, (start, sweeps, accepted)


def _split_candidates(grid: DomainGrid, norm: NormSpec) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """The nodal and packing splits of grid that have two nonempty parts, by name, in that order."""
    cands = {}
    # nodal split of the p=2 second eigenfunction
    try:
        arr = _linear_p2(grid, _p2_stand_in(norm), 2).u.as_grid_array()
    except ConvergenceError as exc:
        log.warning("nodal bipartition candidate dropped: %s: %s", type(exc).__name__, exc)
    else:
        t = 1e-8 * np.abs(arr).max(initial=0.0)
        pos = (arr > t) & grid.mask
        neg = (arr < -t) & grid.mask
        if pos.any() and neg.any():
            cands["nodal"] = pos, neg
    # split along the polar-distance bisector of the two packing centers
    dfield = _distance.distance_transform(grid, norm)
    if grid.interior_count >= 2:
        pack = _distance.two_wulff_radius(dfield, norm)
        pts = grid.node_points(np.argwhere(grid.mask))
        c1 = grid.node_points(np.asarray(pack.centers[0]))
        c2 = grid.node_points(np.asarray(pack.centers[1]))
        d1 = polar_eval(norm, pts - c1)
        d2 = polar_eval(norm, pts - c2)
        side1 = np.zeros(grid.mask.shape, dtype=bool)
        side1[grid.mask] = d1 <= d2
        side2 = grid.mask & ~side1
        if side1.any() and side2.any():
            cands["packing"] = side1, side2
    return cands


def _lambda2_connected(grid, norm, p, opts):
    """The best refined nodal or packing split of a connected grid, a
    BipartitionResult of node-disjoint parts, or None when every candidate
    was dropped.  Each part is one solve_lambda1 call in the caller's grid
    context, so a repeated part mask takes its triangulation, Newton matrix,
    p=2 pair and ladder rungs from there.  The search logs one DEBUG line: p,
    dofs, each candidate's start value, sweeps run and accepted and refined
    value (or why it was dropped), and the winner.
    """
    best, winner, notes = None, "none", []
    for name, (p1, p2) in _split_candidates(grid, norm).items():
        try:
            cand, (start, sweeps, accepted) = _greedy_refine(
                grid, lambda mask: solve_lambda1(grid.subgrid(mask), norm, p, opts), p1, p2)
        except ConvergenceError as exc:
            log.warning("bipartition candidate dropped: %s: %s", type(exc).__name__, exc)
            notes.append(f"{name} dropped {type(exc).__name__}: {exc}")
            continue
        notes.append(f"{name} start={start!r} sweeps={sweeps} accepted={accepted} value={cand.lambda2!r}")
        if best is None or cand.lambda2 < best.lambda2:
            best, winner = cand, name
    log.debug("lambda2 search p=%g dofs=%d; %s; winner=%s",
              p, grid.interior_count, "; ".join(notes) or "no candidate", winner)
    return best


def solve_lambda2(
    grid: DomainGrid,
    norm: NormSpec,
    p: float,
    opts: SolverOptions = SolverOptions(),
) -> BipartitionResult:
    """lambda_2: the BipartitionResult of least max(lambda_1, lambda_1) among disjoint pairs.

    The candidates are the component pairs of a disconnected set, the first
    least one starting the search, and the refined nodal and packing splits
    of each component (see _lambda2_connected) whose lambda_1 could still
    beat the best value; a connected set is its own one component.  A
    candidate whose solve raises ConvergenceError is dropped with a warning,
    and a component whose splits are all dropped gives none; only when no
    candidate is left does ConvergenceError reach the caller.  The search
    joins the open grid context, or opens one for the call.

    The result is not a certified upper bound of the discrete lambda_2:
    node-disjoint parts still share the triangles between them, and on the
    unit square (Euclidean, p=2) the value lies below the 5-point lambda_2,
    5.4% at h=1/16 (see the FOUND line on `solve_lambda2` in CHANGES.md and
    the benchmark's kept failure `lambda2_square_p2`).
    """
    if grid.interior_count < 2:
        raise ValueError("solve_lambda2 needs at least two interior nodes")
    with _GridContext():
        comps = _components(grid)
        # a connected set has no component pair, so its lambda_1 is never needed
        firsts = [solve_lambda1(c, norm, p, opts) for c in comps] if len(comps) > 1 else [None]
        pairs = (BipartitionResult(ca.mask, cb.mask, a, b)
                 for (ca, a), (cb, b) in itertools.combinations(zip(comps, firsts), 2))
        best = min(pairs, key=lambda cand: cand.lambda2, default=None)  # the first least pair
        for comp, first in zip(comps, firsts):
            if best is None or first.lam < best.lambda2 * (1.0 - 1e-12):
                sub = _lambda2_connected(comp, norm, p, opts)
                if sub is not None and (best is None or sub.lambda2 < best.lambda2):
                    best = sub
    if best is None:
        raise ConvergenceError("no admissible bipartition candidate was found")
    return best
