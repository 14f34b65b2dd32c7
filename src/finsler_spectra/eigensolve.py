"""First and second Dirichlet eigenvalues of the anisotropic p-Laplacian.

lambda_1 comes from minimizing the Rayleigh quotient

    R_p(u) = energy_p(u) / mass_p(u)

over nonzero P1 fields with a projected Barzilai-Borwein descent
(non-monotone line search, epsilon-regularized continuation, and an
exponent ladder 2 -> 4 -> ... -> p so that large p is reached through
warm starts).  lambda_2 comes from its bipartition characterization:
the minimum over disjoint sub-domain pairs of max(lambda_1, lambda_1),
searched over nodal splits, packing-based splits and a greedy interface
descent.  A linear 5-point oracle provides exact p = 2 answers for the
quadratic (q = 2) norms and all initial guesses.
"""
from __future__ import annotations

import logging
import math
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla
from scipy import ndimage

from . import distance as _distance
from .fem import (ScalarField, Triangulation, _mass_gradient_values, energy_from_terms, energy_p,
                  energy_terms, gradient_from_terms, mass_p, triangulate)
from .geometry import _FOUR, DomainGrid, _check_keys, components
from .norms import NormSpec, euclidean, polar_eval

log = logging.getLogger(__name__)

_SEED = 0

# a solve whose scaled stationarity residual stays above this is reported failed;
# well-converged large-p solves stall around 1e-2 on this scale, genuine
# breakdowns sit orders of magnitude higher
FAIL_RESIDUAL = 0.5
_PLATEAU_WINDOW = 100
_PLATEAU_RTOL = 1e-9
_NONMONOTONE_WINDOW = 8
_MAX_SWEEPS = 6


class ConvergenceError(RuntimeError):
    """Raised when an eigenvalue solve ends far from stationarity."""


_KINDS = ("triangulations", "p2_factorizations")


class _GridContext:
    """What one experiments.run() computes once per grid and keeps for the run.

    It holds the triangulations, keyed by (h, origin, mask shape, mask
    bytes), and the p=2 eigenpairs (one eigsh call serves k = 1 and 2),
    keyed by that and the norm; their arrays are read-only.  It is active
    only inside the ``with`` block, and only experiments.run() opens one, so
    a direct library call computes everything afresh and nothing outlives a
    run.  A miss goes through the public triangulate / solve_linear_p2.
    """

    def __init__(self):
        self.kept: Dict[str, dict] = {kind: {} for kind in _KINDS}
        self.built = dict.fromkeys(_KINDS, 0)
        self.reused = dict.fromkeys(_KINDS, 0)
        self._token = None

    def __enter__(self) -> "_GridContext":
        self._token = _CONTEXT.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _CONTEXT.reset(self._token)
        self.kept = {kind: {} for kind in _KINDS}

    def lookup(self, kind: str, key):
        value = self.kept[kind].get(key)
        if value is not None:
            self.reused[kind] += 1
        return value

    def keep(self, kind: str, key, value):
        self.kept[kind][key] = value
        self.built[kind] += 1
        return value

    def summary(self) -> str:
        return "; ".join(f"{kind} built={self.built[kind]} reused={self.reused[kind]}"
                         for kind in _KINDS)


_CONTEXT: ContextVar[Optional[_GridContext]] = ContextVar("finsler_spectra_grid_context",
                                                          default=None)


def _grid_key(grid: DomainGrid):
    return grid.h, grid.origin, grid.mask.shape, grid.mask.tobytes()


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _sparse_arrays(*mats):
    return [a for m in mats for a in (m.data, m.indices, m.indptr)]


def _triangulation(grid: DomainGrid) -> Triangulation:
    """triangulate(grid), or inside experiments.run() the triangulation kept
    for this mask: built once, with all its arrays (and its grid's) read-only."""
    ctx = _CONTEXT.get()
    if ctx is None:
        return triangulate(grid)
    key = _grid_key(grid)
    tri = ctx.lookup("triangulations", key)
    if tri is None:
        tri = ctx.keep("triangulations", key, triangulate(grid))
        _read_only(tri.node_index, tri.dof_nodes, tri.cell_ij, tri.grid.mask,
                   tri.grid.component_id, *_sparse_arrays(tri.G, tri.GxT, tri.GyT))
    return tri


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 20000
    tol: float = 1e-8
    epsilon_schedule: Tuple[float, ...] = (1e-2, 1e-4, 0.0)

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ValueError(f"solver.max_iter must be at least 1, got {self.max_iter!r}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"solver.tol must be finite and positive, got {self.tol!r}")

    @staticmethod
    def from_dict(d: dict) -> "SolverOptions":
        _check_keys("solver", d, (), ("max_iter", "tol", "epsilon_schedule"))
        opts = SolverOptions()
        return replace(
            opts,
            max_iter=int(d.get("max_iter", opts.max_iter)),
            tol=float(d.get("tol", opts.tol)),
            epsilon_schedule=tuple(d.get("epsilon_schedule", opts.epsilon_schedule)),
        )

    def to_dict(self) -> dict:
        return {
            "max_iter": self.max_iter,
            "tol": self.tol,
            "epsilon_schedule": list(self.epsilon_schedule),
        }


@dataclass
class EigenResult:
    lam: float
    u: ScalarField
    p: float
    iterations: int
    residual: float
    nodal_count: int

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "p": self.p,
            "iterations": self.iterations,
            "residual": self.residual,
            "nodal_count": self.nodal_count,
        }


@dataclass
class BipartitionResult:
    lambda2: float
    part1: np.ndarray
    part2: np.ndarray
    lambda1_part1: float
    lambda1_part2: float
    result1: EigenResult
    result2: EigenResult

    def signed_field(self, tri: Triangulation) -> ScalarField:
        """Positive first eigenfunction on part1 minus the one on part2."""
        arr = self.result1.u.as_grid_array() - self.result2.u.as_grid_array()
        return ScalarField.from_grid_array(tri, arr)


def rayleigh_quotient(u: ScalarField, norm: NormSpec, p: float) -> float:
    """energy_p(u, p, eps=0) / mass_p(u, p); 0-homogeneous in u."""
    m = mass_p(u, p)
    if m == 0.0:
        raise ValueError("rayleigh_quotient: zero field")
    return energy_p(u, norm, p, 0.0) / m


def nodal_domains(u: ScalarField, threshold: float = 1e-6) -> Tuple[int, np.ndarray]:
    """Count 4-connected components of {u > t} and {u < -t}, t relative to max|u|.

    Returns (count, labels) with positive-domain labels first, 0 elsewhere.
    """
    arr = u.as_grid_array()
    t = threshold * np.abs(arr).max(initial=0.0)
    labels = np.zeros(arr.shape, dtype=np.int32)
    pos, npos = ndimage.label(arr > t, structure=_FOUR)
    neg, nneg = ndimage.label(arr < -t, structure=_FOUR)
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


def _ray_trial(tri, norm, p, eps, w, gw):
    """Quotient of w / c, c the p-th root of w's lumped mass, from the gradient
    components gw = G w: one mass pass and the norm kernel, no sparse product.
    Returns (quotient, energy terms, G(w / c), c); the mass of w / c is 1.
    A zero or non-finite w raises ValueError."""
    c = _mass_root(tri, w, p)
    comps = np.asarray(gw) / c
    terms = energy_terms(comps, norm, eps)
    return energy_from_terms(tri, terms, p), terms, comps, c


def _tangent_gradient(tri, p, v, r, terms):
    """Gradient of the quotient at a unit-mass field, projected on the mass sphere's tangent."""
    gm = _mass_gradient_values(tri, v, p)
    g = gradient_from_terms(tri, terms, p)
    g -= r * gm
    g -= (float(g @ gm) / float(gm @ gm)) * gm
    return g


def _evaluate(tri, norm, p, eps, values):
    """values scaled to unit mass, its gradient components, quotient and projected gradient."""
    r, terms, gv, c = _ray_trial(tri, norm, p, eps, values, tri.gradient_components(values))
    v = values / c
    return v, gv, r, _tangent_gradient(tri, p, v, r, terms)


def _descent_stage(tri, norm, p, eps, values, tol, max_iter,
                   plateau=(_PLATEAU_WINDOW, _PLATEAU_RTOL)):
    """Non-monotone BB descent of the Rayleigh quotient at fixed (p, eps).

    The iterate is renormalized to mass_p = 1 after every step; the scaled
    residual is |grad R|_2 * |u|_2 / R.  The stop reason distinguishes a
    reached tolerance, a value plateau, the floating-point line-search floor
    (no descent representable), and the iteration cap: only the last one can
    signal genuine non-convergence.  A trial v - t g is evaluated along the
    ray: its gradient components are Gv - t Gg, from the accepted trial's
    components and one Gg per step, so a step makes one stacked sparse
    product forward and two back however many trials it takes.
    """
    v, gv, r, g = _evaluate(tri, norm, p, eps, values)
    g_dot = float(g @ g)
    v_norm = math.sqrt(v @ v)
    res = math.sqrt(g_dot) * v_norm / r
    t = v_norm / max(math.sqrt(g_dot), 1e-300)
    history = [r]
    win, rtol = plateau
    it = 0
    trials = 0
    reason = "tol" if res <= tol else "maxiter"
    while it < max_iter:
        if res <= tol:
            reason = "tol"
            break
        it += 1
        r_ref = max(history[-_NONMONOTONE_WINDOW:])
        accepted = False
        gg = tri.gradient_components(g)
        for _ in range(40):
            trials += 1
            w = v - t * g
            try:
                r_new, terms, comps, c = _ray_trial(tri, norm, p, eps, w, gv - t * gg)
            except ValueError:
                t *= 0.25
                continue
            if r_new <= r_ref - 1e-6 * t * g_dot:
                accepted = True
                break
            t *= 0.25
        if not accepted:
            reason = "floor"
            break
        trial = w / c
        g_new = _tangent_gradient(tri, p, trial, r_new, terms)
        s = trial - v
        y = g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            t = float(s @ s) / sy if it % 2 == 0 else sy / float(y @ y)
        else:
            t *= 2.0
        t = min(max(t, 1e-16), 1e12)
        v, gv, r, g = trial, comps, r_new, g_new
        g_dot = float(g @ g)
        history.append(r)
        if len(history) > win and history[-win - 1] - r <= rtol * r:
            reason = "plateau"
            break
        res = math.sqrt(g_dot) * math.sqrt(v @ v) / r
    res = math.sqrt(g_dot) * math.sqrt(v @ v) / r
    if res <= tol:
        reason = "tol"
    log.debug("descent stage p=%g eps=%g dofs=%d iterations=%d trials=%d stop=%s residual=%.3e",
              p, eps, tri.ndof, it, trials, reason, res)
    return v, r, it, res, reason


def _exponent_ladder(p: float) -> List[float]:
    if p == 2.0:
        return [2.0]
    if p < 2.0:
        return [2.0, p]
    ladder = []
    q = 2.0
    while q < p * 0.999:
        ladder.append(q)
        q *= 2.0
    ladder.append(p)
    return ladder


def _p2_stand_in(norm: NormSpec) -> NormSpec:
    # the linear oracle needs q = 2; l_q norms start from the Euclidean one
    return norm if norm.q == 2.0 else euclidean()


def solve_lambda1(
    grid: DomainGrid,
    norm: NormSpec,
    p: float,
    opts: SolverOptions = SolverOptions(),
    initial: Optional[ScalarField] = None,
    plateau: Tuple[int, float] = (_PLATEAU_WINDOW, _PLATEAU_RTOL),
) -> EigenResult:
    """Minimize the Rayleigh quotient; returns the nonnegative eigenfunction.

    Initialization is the p=2 linear eigenfunction; the target exponent is
    reached through the doubling ladder with the epsilon schedule applied at
    the final exponent, and the reported eigenvalue is the eps=0 quotient.
    """
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    tri = _triangulation(grid)
    total = 0
    res = np.inf
    reason = "tol"
    coarse_tol = max(opts.tol, 1e-6)
    if initial is not None:
        # caller supplied a field already shaped for this exponent: skip the
        # ladder and the smoothing stages, polish at eps = 0 directly
        v = initial.values.copy()
        schedule = (0.0,)
    else:
        v = _linear_p2(grid, _p2_stand_in(norm), 1).u.values
        for q in _exponent_ladder(p)[:-1]:
            v, _, it, _, _ = _descent_stage(tri, norm, q, 0.0, v, coarse_tol,
                                            min(2000, opts.max_iter), plateau)
            total += it
        schedule = opts.epsilon_schedule
    for eps in schedule:
        tol = opts.tol if eps == 0.0 else max(opts.tol, 1e-7)
        cap = opts.max_iter if eps == 0.0 else min(4000, opts.max_iter)
        v, _, it, res, reason = _descent_stage(tri, norm, p, eps, v, tol, cap, plateau)
        total += it
    # first eigenfunctions have constant sign: the nodewise absolute value
    # never increases the energy for these norms and pins the sign convention
    v, _, lam, g = _evaluate(tri, norm, p, 0.0, np.abs(v))
    u = ScalarField(tri, v)
    res = math.sqrt(g @ g) * math.sqrt(v @ v) / lam
    # at large p the scaled residual has a floating-point floor that grows
    # with the quotient's curvature; a stage that still had descent headroom
    # when the iteration cap hit is the genuine failure signal
    if reason == "maxiter" and res > FAIL_RESIDUAL:
        raise ConvergenceError(
            f"lambda_1 solve stalled: p={p}, dofs={tri.ndof}, "
            f"residual={res:.2e} after {total} iterations"
        )
    count, _ = nodal_domains(u)
    return EigenResult(lam=float(lam), u=u, p=p, iterations=total, residual=res, nodal_count=count)


class _LinearPairs:
    """The two lowest eigenpairs of a grid's p=2 operator from one eigsh call;
    the EigenResult of each k is built when first asked for, with a read-only
    field when the pairs are kept read-only by a grid context."""

    def __init__(self, tri: Triangulation, norm: NormSpec):
        self.tri = tri
        self.norm = norm
        self.K = (tri.area * (norm.w1 * (tri.GxT @ tri.Gx) + norm.w2 * (tri.GyT @ tri.Gy))).tocsc()
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
        count, _ = nodal_domains(u)
        if not self.vecs.flags.writeable:
            _read_only(v)
        self._results[k] = EigenResult(lam=lam, u=u, p=2.0, iterations=self.solves,
                                       residual=residual, nodal_count=count)
        return self._results[k]


def solve_linear_p2(grid: DomainGrid, norm: NormSpec, k: int) -> EigenResult:
    """k-th eigenpair (k = 1 or 2) of the 5-point operator for quadratic (q = 2) norms.

    Assembles the same quadratic form as energy_2 on the triangulation and
    takes the two lowest pairs from shift-invert Lanczos (ARPACK at sigma=0
    over one sparse LU factor, seeded start, so reruns are identical) or, on
    grids too small for ARPACK, from a dense solve.  The answer is the exact
    discrete minimizer the nonlinear solver targets.  Two pairs are computed
    even for k = 1: asked for one pair of a degenerate lambda_1 (two equal
    components), ARPACK stops near a 1e-9 residual.  Inside experiments.run()
    both pairs are kept for the rest of the run.  ``iterations`` counts the
    LU solves; ``residual`` is the relative residual of the returned pair.
    """
    if norm.q != 2.0:
        raise ValueError(f"the linear p=2 oracle needs a quadratic norm (q = 2), got q={norm.q!r}")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    tri = _triangulation(grid)
    if tri.ndof < k:
        raise ValueError(f"eigenpair k={k} needs at least k interior nodes, got ndof={tri.ndof}")
    pairs = _LinearPairs(tri, norm)
    ctx = _CONTEXT.get()
    if ctx is not None:
        _read_only(pairs.w, pairs.vecs, *_sparse_arrays(pairs.K))
        ctx.keep("p2_factorizations", (_grid_key(grid), norm), pairs)
    return pairs.result(k)


def _linear_p2(grid: DomainGrid, norm: NormSpec, k: int) -> EigenResult:
    """solve_linear_p2, or inside experiments.run() the pairs already computed for this grid."""
    ctx = _CONTEXT.get()
    pairs = None if ctx is None else ctx.lookup("p2_factorizations", (_grid_key(grid), norm))
    if pairs is None:
        return solve_linear_p2(grid, norm, k)
    return pairs.result(k)


def _part_opts(opts: SolverOptions) -> SolverOptions:
    # sub-solves feed max() comparisons at percent-level tolerances, so a
    # looser stationarity target buys a lot of time at large p
    return replace(opts, tol=max(opts.tol, 1e-5), max_iter=min(opts.max_iter, 8000))


class _PartSolver:
    """Caches lambda_1 sub-solves on part masks during a bipartition search."""

    def __init__(self, grid: DomainGrid, norm: NormSpec, p: float, opts: SolverOptions):
        self.grid = grid
        self.norm = norm
        self.p = p
        self.opts = _part_opts(opts)
        self.cache = {}

    def solve(self, mask: np.ndarray, warm: Optional[np.ndarray] = None) -> EigenResult:
        """warm is a full-frame value array used to seed the sub-solve."""
        key = mask.tobytes()
        if key not in self.cache:
            sub = self.grid.subgrid(mask)
            initial = None
            if warm is not None:
                vals = warm[sub.mask]
                if np.abs(vals).max(initial=0.0) > 0.0:
                    initial = ScalarField(_triangulation(sub), vals)
            # warm incremental re-solves start next to a minimizer, so a loose
            # plateau is safe there; initial candidate solves keep the tight
            # one (BB stall phases would otherwise truncate the big descent)
            plateau = (50, 1e-7) if initial is not None else (_PLATEAU_WINDOW, _PLATEAU_RTOL)
            self.cache[key] = solve_lambda1(
                sub, self.norm, self.p, self.opts, initial=initial, plateau=plateau)
        return self.cache[key]


def _greedy_refine(solver: _PartSolver, p1: np.ndarray, p2: np.ndarray):
    """Move interface layers onto the side with larger lambda_1 while max drops."""
    r1 = solver.solve(p1)
    r2 = solver.solve(p2)
    val = max(r1.lam, r2.lam)
    for _ in range(_MAX_SWEEPS):
        if r1.lam >= r2.lam:
            hi, lo, hi_is_first = p1, p2, True
        else:
            hi, lo, hi_is_first = p2, p1, False
        frontier = ndimage.binary_dilation(hi, structure=_FOUR) & solver.grid.mask & ~hi
        if not frontier.any():
            break
        new_hi = hi | frontier
        new_lo = lo & ~frontier
        if not new_lo.any():
            break
        cand1, cand2 = (new_hi, new_lo) if hi_is_first else (new_lo, new_hi)
        warm = r1.u.as_grid_array() + r2.u.as_grid_array()
        try:
            c1 = solver.solve(cand1, warm)
            c2 = solver.solve(cand2, warm)
        except ConvergenceError:
            break
        new_val = max(c1.lam, c2.lam)
        if new_val < val * (1.0 - 1e-10):
            p1, p2, r1, r2, val = cand1, cand2, c1, c2, new_val
        else:
            break
    return val, p1, p2, r1, r2


def _split_candidates(grid: DomainGrid, norm: NormSpec) -> List[Tuple[np.ndarray, np.ndarray]]:
    cands = []
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
            cands.append((pos, neg))
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
        side1 &= grid.mask
        if side1.any() and side2.any():
            cands.append((side1, side2))
    return cands


def _lambda2_connected(grid, norm, p, opts):
    """Best refined nodal or packing split of a connected grid, as
    (lambda2, part1, part2, result1, result2).

    Each candidate is max(lambda_1(A), lambda_1(B)) over node-disjoint parts.
    The parts still share the triangles between them, so this is not a
    certified upper bound of the discrete lambda_2: on the unit square
    (Euclidean, p=2) it lies below the 5-point lambda_2, 5.4% at h=1/16
    (see the FOUND line on `solve_lambda2` in CHANGES.md and the
    benchmark's kept failure `lambda2_square_p2`).
    """
    solver = _PartSolver(grid, norm, p, opts)
    best = None
    for p1, p2 in _split_candidates(grid, norm):
        try:
            cand = _greedy_refine(solver, p1, p2)
        except ConvergenceError as exc:
            log.warning("bipartition candidate dropped: %s: %s", type(exc).__name__, exc)
            continue
        if best is None or cand[0] < best[0]:
            best = cand
    if best is None:
        raise ConvergenceError("no admissible bipartition candidate was found")
    return best


def solve_lambda2(
    grid: DomainGrid,
    norm: NormSpec,
    p: float,
    opts: SolverOptions = SolverOptions(),
) -> BipartitionResult:
    """lambda_2 as the best max(lambda_1, lambda_1) over disjoint sub-domain pairs.

    Disconnected sets: component pairs, then second eigenvalues within any
    component whose lambda_1 could still beat the best pair.  Connected sets:
    nodal and packing splits refined by the greedy interface descent.  A
    candidate whose solve raises ConvergenceError is dropped with a warning.

    The result is not a certified upper bound of the discrete lambda_2:
    node-disjoint parts of a connected grid share triangles, and the value
    falls below the 5-point lambda_2 on the unit square (see
    `_lambda2_connected`).
    """
    if grid.interior_count < 2:
        raise ValueError("solve_lambda2 needs at least two interior nodes")
    comps = components(grid)
    if len(comps) == 1:
        best = _lambda2_connected(grid, norm, p, opts)
    else:
        popts = _part_opts(opts)
        firsts = [solve_lambda1(c, norm, p, popts) for c in comps]
        best = None
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                val = max(firsts[i].lam, firsts[j].lam)
                if best is None or val < best[0]:
                    best = (val, comps[i].mask, comps[j].mask, firsts[i], firsts[j])
        for i, comp in enumerate(comps):
            if firsts[i].lam < best[0] * (1.0 - 1e-12):
                sub = _lambda2_connected(comp, norm, p, opts)
                if sub[0] < best[0]:
                    best = sub
    val, m1, m2, r1, r2 = best
    return BipartitionResult(
        lambda2=val, part1=m1, part2=m2,
        lambda1_part1=r1.lam, lambda1_part2=r2.lam,
        result1=r1, result2=r2,
    )
