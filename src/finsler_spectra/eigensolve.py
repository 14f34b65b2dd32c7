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
quadratic norm families and all initial guesses.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla
from scipy import ndimage

from . import distance as _distance
from .fem import (ScalarField, Triangulation, energy_from_terms, energy_p, energy_terms,
                  gradient_from_terms, mass_gradient, mass_p, triangulate)
from .geometry import DomainGrid, components
from .norms import EUCLIDEAN, WEIGHTED_QUADRATIC, NormSpec, euclidean, polar_eval

log = logging.getLogger(__name__)

_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
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


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 20000
    tol: float = 1e-8
    epsilon_schedule: Tuple[float, ...] = (1e-2, 1e-4, 0.0)

    @staticmethod
    def from_dict(d: dict) -> "SolverOptions":
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


def _normalize(tri: Triangulation, values: np.ndarray, p: float) -> np.ndarray:
    # p-th root of the lumped mass in a form that cannot overflow for huge
    # line-search trials: mass^{1/p} = max|v| * (h^2 sum (|v|/max)^p)^{1/p}
    peak = np.abs(values).max(initial=0.0)
    if peak == 0.0 or not np.isfinite(peak):
        raise ValueError("cannot normalize a zero or non-finite field")
    root = peak * float(tri.h ** 2 * np.sum((np.abs(values) / peak) ** p)) ** (1.0 / p)
    if root == 0.0 or not np.isfinite(root):
        raise ValueError("cannot normalize a zero or non-finite field")
    return values / root


def _quotient(tri, norm, p, eps, values):
    """Rayleigh quotient, plus the energy terms and mass its gradient reuses."""
    u = ScalarField(tri, values)
    terms = energy_terms(u, norm, eps)
    m = mass_p(u, p)
    return energy_from_terms(tri, terms, p) / m, terms, m


def _quotient_grad(tri, norm, p, eps, values, evaluated=None):
    """Rayleigh quotient and its gradient projected on the mass sphere's tangent;
    ``evaluated`` (what _quotient returned at values) spares a second mesh pass."""
    u = ScalarField(tri, values)
    r, terms, m = evaluated if evaluated is not None else _quotient(tri, norm, p, eps, values)
    gm = mass_gradient(u, p).values
    g = (gradient_from_terms(tri, terms, p).values - r * gm) / m
    g -= (float(g @ gm) / float(gm @ gm)) * gm
    return r, g


def _descent_stage(tri, norm, p, eps, values, tol, max_iter,
                   plateau=(_PLATEAU_WINDOW, _PLATEAU_RTOL)):
    """Non-monotone BB descent of the Rayleigh quotient at fixed (p, eps).

    The iterate is renormalized to mass_p = 1 after every step; the scaled
    residual is |grad R|_2 * |u|_2 / R.  The stop reason distinguishes a
    reached tolerance, a value plateau, the floating-point line-search floor
    (no descent representable), and the iteration cap: only the last one can
    signal genuine non-convergence.
    """
    v = _normalize(tri, values, p)
    r, g = _quotient_grad(tri, norm, p, eps, v)
    res = np.linalg.norm(g) * np.linalg.norm(v) / r
    t = np.linalg.norm(v) / max(np.linalg.norm(g), 1e-300)
    history = [r]
    it = 0
    reason = "tol" if res <= tol else "maxiter"
    while it < max_iter:
        if res <= tol:
            reason = "tol"
            break
        it += 1
        r_ref = max(history[-_NONMONOTONE_WINDOW:])
        accepted = False
        g_dot = float(g @ g)
        for _ in range(40):
            trial = v - t * g
            try:
                trial = _normalize(tri, trial, p)
            except ValueError:
                t *= 0.25
                continue
            evaluated = _quotient(tri, norm, p, eps, trial)
            r_new = evaluated[0]
            if r_new <= r_ref - 1e-6 * t * g_dot:
                accepted = True
                break
            t *= 0.25
        if not accepted:
            reason = "floor"
            break
        r_new, g_new = _quotient_grad(tri, norm, p, eps, trial, evaluated)
        s = trial - v
        y = g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            t = float(s @ s) / sy if it % 2 == 0 else sy / float(y @ y)
        else:
            t *= 2.0
        t = float(np.clip(t, 1e-16, 1e12))
        v, r, g = trial, r_new, g_new
        history.append(r)
        win, rtol = plateau
        if len(history) > win and history[-win - 1] - r <= rtol * r:
            reason = "plateau"
            break
        res = np.linalg.norm(g) * np.linalg.norm(v) / r
    res = np.linalg.norm(g) * np.linalg.norm(v) / r
    if res <= tol:
        reason = "tol"
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


def _initial_guess(grid: DomainGrid, norm: NormSpec, opts: SolverOptions) -> ScalarField:
    if norm.family in (EUCLIDEAN, WEIGHTED_QUADRATIC):
        return solve_linear_p2(grid, norm, 1).u
    # no quadratic analogue for lq norms: use the Euclidean p=2 eigenfunction
    return solve_linear_p2(grid, euclidean(), 1).u


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
    tri = triangulate(grid)
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
        v = _initial_guess(grid, norm, opts).values
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
    v = _normalize(tri, np.abs(v), p)
    u = ScalarField(tri, v)
    lam, g = _quotient_grad(tri, norm, p, 0.0, v)
    res = float(np.linalg.norm(g) * np.linalg.norm(v) / lam)
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


def solve_linear_p2(grid: DomainGrid, norm: NormSpec, k: int) -> EigenResult:
    """k-th eigenpair (k = 1 or 2) of the 5-point operator for quadratic norms.

    Assembles the same quadratic form as energy_2 on the triangulation and
    takes the two lowest pairs from shift-invert Lanczos (ARPACK at sigma=0
    over one sparse LU factor, seeded start, so reruns are identical) or, on
    grids too small for ARPACK, from a dense solve.  The answer is the exact
    discrete minimizer the nonlinear solver targets.  Two pairs are computed
    even for k = 1: asked for one pair of a degenerate lambda_1 (two equal
    components), ARPACK stops near a 1e-9 residual.  ``iterations`` counts
    the LU solves; ``residual`` is the relative residual of the returned pair.
    """
    if norm.family not in (EUCLIDEAN, WEIGHTED_QUADRATIC):
        raise ValueError("the linear p=2 oracle needs a quadratic norm family")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    tri = triangulate(grid)
    if tri.ndof < k:
        raise ValueError(f"eigenpair k={k} needs at least k interior nodes, got ndof={tri.ndof}")
    a1 = norm.a1 if norm.family == WEIGHTED_QUADRATIC else 1.0
    a2 = norm.a2 if norm.family == WEIGHTED_QUADRATIC else 1.0
    K = (tri.area * (a1 * (tri.GxT @ tri.Gx) + a2 * (tri.GyT @ tri.Gy))).tocsc()
    m = tri.h ** 2  # lumped mass is m * identity
    solves = 0
    if tri.ndof > 2:
        lu = spla.splu(K)

        def inverse(x):
            nonlocal solves
            solves += 1
            return lu.solve(x)

        op = spla.LinearOperator(K.shape, matvec=inverse, dtype=float)
        v0 = np.random.default_rng(_SEED).standard_normal(tri.ndof)
        w, vecs = spla.eigsh(K, k=2, sigma=0.0, OPinv=op, v0=v0)
    else:
        # ARPACK needs more unknowns than requested pairs
        w, vecs = scipy.linalg.eigh(K.toarray())
    v = vecs[:, np.argsort(w)[k - 1]]
    if v.sum() < 0:
        v = -v
    v = _normalize(tri, v, 2.0)
    u = ScalarField(tri, v)
    lam = rayleigh_quotient(u, norm, 2.0)
    residual = float(np.linalg.norm(K @ v - lam * m * v) / (lam * m * np.linalg.norm(v)))
    if residual > 1e-9:
        raise ConvergenceError(f"linear p=2 oracle did not converge: k={k}, residual={residual:.2e}")
    count, _ = nodal_domains(u)
    return EigenResult(lam=lam, u=u, p=2.0, iterations=solves, residual=residual, nodal_count=count)


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
                    initial = ScalarField(triangulate(sub), vals)
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
    # nodal split of the p=2 second eigenfunction (Euclidean stand-in for lq)
    qnorm = norm if norm.family in (EUCLIDEAN, WEIGHTED_QUADRATIC) else euclidean()
    try:
        arr = solve_linear_p2(grid, qnorm, 2).u.as_grid_array()
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


def _lambda2_connected(grid, norm, p, opts) -> BipartitionResult:
    """Best refined nodal or packing split of a connected grid.

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
            val, q1, q2, r1, r2 = _greedy_refine(solver, p1, p2)
        except ConvergenceError as exc:
            log.warning("bipartition candidate dropped: %s: %s", type(exc).__name__, exc)
            continue
        if best is None or val < best[0]:
            best = (val, q1, q2, r1, r2)
    if best is None:
        raise ConvergenceError("no admissible bipartition candidate was found")
    val, q1, q2, r1, r2 = best
    return BipartitionResult(
        lambda2=val, part1=q1, part2=q2,
        lambda1_part1=r1.lam, lambda1_part2=r2.lam,
        result1=r1, result2=r2,
    )


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
        return _lambda2_connected(grid, norm, p, opts)

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
            if sub.lambda2 < best[0]:
                best = (sub.lambda2, sub.part1, sub.part2, sub.result1, sub.result2)
    val, m1, m2, r1, r2 = best
    return BipartitionResult(
        lambda2=val, part1=m1, part2=m2,
        lambda1_part1=r1.lam, lambda1_part2=r2.lam,
        result1=r1, result2=r2,
    )
