"""Anisotropic distance to the boundary, inradius, and two-shape packing.

The distance of an interior node x is min over boundary-ring nodes y of
F_polar(x - y).  The polar norm of every family is a Minkowski p-norm after
a coordinate scale (`norms.minkowski_frame`), so a `scipy.spatial.cKDTree`
over the scaled ring nodes finds each node's nearest ring node in
O(log N).  The tree's own arithmetic may differ from `eval_norm` in the
last bits, so it only selects candidates: every ring node within the tree
distance times (1 + _SLACK) is kept, and the reported value is the minimum
of `eval_norm` over them.  The true minimizer is always among them, so the
field is bit-identical to the all-pairs minimum.  The ridge spread of the
eikonal check selects its near-minimizers the same way.

`sup_rayleigh` maximizes a quotient over all node pairs by branch and bound:
a lower bound L comes from short pairs, the nodes are split into value
bands, and a pair (i, j) with j in a band of minimum value a can only beat
L if F_polar(x_i - x_j) < (v_i - a) / L.  Only the pairs inside those
radii are scored, with the all-pairs expression, so the maximum is exact.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .fem import ScalarField, triangle_gradients
from .geometry import DomainGrid
from .norms import NormSpec, eval_norm, eval_norm_sq, linear_bounds, minkowski_frame, polar

log = logging.getLogger(__name__)

_CHUNK = 2048           # rows per block of the pairwise polar diameter
_PAIRWISE_DIRECT = 600  # below this many points skip the hull
# relative widening of tree radii, far above the rounding gap between the
# tree's distances and eval_norm, so no exact candidate is lost
_SLACK = 1e-9
_BANDS = 24             # value-quantile bands of the sup-Rayleigh bound


@dataclass(frozen=True)
class DistanceField:
    """Per-node boundary distance in the polar norm, with its maximum."""

    grid: DomainGrid
    d: np.ndarray             # (nx, ny), 0 outside the mask
    rho_f: float
    argmax_node: Tuple[int, int]

    def interior_values(self) -> np.ndarray:
        return self.d[self.grid.mask]

    def as_field(self, tri) -> ScalarField:
        return ScalarField.from_grid_array(tri, self.d)


@dataclass(frozen=True)
class PackingResult:
    """Largest r such that two disjoint polar balls of radius r fit inside."""

    rho2: float
    centers: Tuple[Tuple[int, int], Tuple[int, int]]
    norm: NormSpec


def _ball_pairs(tree: cKDTree, pts: np.ndarray, radius, p: float):
    """(row, col) index arrays of the tree points within radius of each query point."""
    lists = tree.query_ball_point(pts, radius, p=p, return_sorted=False)
    rows = np.repeat(np.arange(len(lists)), [len(ls) for ls in lists])
    cols = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=len(rows))
    return rows, cols


def distance_transform(grid: DomainGrid, norm: NormSpec) -> DistanceField:
    """d(x) = min over boundary nodes y of F_polar(x - y), for interior x."""
    if grid.interior_count == 0:
        raise ValueError("distance_transform: empty grid")
    pol = polar(norm)
    scale, p = minkowski_frame(pol)
    bpts = grid.node_points(grid.boundary_node_indices())
    inodes = np.argwhere(grid.mask)
    ipts = grid.node_points(inodes)
    tree = cKDTree(bpts * scale)
    d_kd, _ = tree.query(ipts * scale, k=1, p=p)
    rows, cols = _ball_pairs(tree, ipts * scale, d_kd * (1.0 + _SLACK), p)
    d = np.full(len(ipts), np.inf)
    np.minimum.at(d, rows, eval_norm(pol, ipts[rows] - bpts[cols]))
    log.debug("distance_transform: nodes=%d ring=%d pairs=%d", len(ipts), len(bpts), len(rows))
    out = np.zeros((grid.nx, grid.ny))
    out[grid.mask] = d
    k = int(np.argmax(d))
    return DistanceField(grid, out, float(d[k]), (int(inodes[k, 0]), int(inodes[k, 1])))


def inradius(field: DistanceField) -> Tuple[float, Tuple[int, int]]:
    """Maximum of the distance field and its argmax node.

    For a disconnected set this is the largest of the component inradii,
    because the maximum runs over all interior nodes at once.
    """
    return field.rho_f, field.argmax_node


def _pairwise_polar_max(pol: NormSpec, pts: np.ndarray):
    best = -1.0
    pair = (0, 0)
    chunk = max(1, min(_CHUNK, 4_000_000 // max(len(pts), 1)))
    for lo in range(0, len(pts), chunk):
        hi = min(lo + chunk, len(pts))
        diff = pts[lo:hi, None, :] - pts[None, :, :]
        vals = eval_norm(pol, diff)
        k = int(np.argmax(vals))
        i, j = divmod(k, vals.shape[1])
        if vals[i, j] > best:
            best = float(vals[i, j])
            pair = (lo + i, j)
    return best, pair


def _polar_diameter(pol: NormSpec, pts: np.ndarray):
    """Max of F_polar(x - y) over point pairs; exact via the convex hull.

    F_polar(x - y) is jointly convex, so the maximum over the set is attained
    at extreme points; small or degenerate sets fall back to direct pairs.
    """
    if len(pts) <= _PAIRWISE_DIRECT:
        return _pairwise_polar_max(pol, pts)
    try:
        hull = ConvexHull(pts)
        verts = hull.vertices
    except QhullError:
        best, (i, j) = _pairwise_polar_max(pol, pts)
        return best, (i, j)
    sub = pts[verts]
    best, (i, j) = _pairwise_polar_max(pol, sub)
    return best, (int(verts[i]), int(verts[j]))


def two_wulff_radius(field: DistanceField, norm: NormSpec) -> PackingResult:
    """max over node pairs of min(d(x1), d(x2), F_polar(x1 - x2) / 2).

    Feasibility of a radius r means the super-level set {d >= r} contains a
    pair at polar distance >= 2r; that is monotone in r, so a binary search
    over the distinct node distances is exact at grid resolution.
    """
    grid = field.grid
    if grid.interior_count < 2:
        raise ValueError("two_wulff_radius: need at least two interior nodes")
    pol = polar(norm)
    inodes = np.argwhere(grid.mask)
    ipts = grid.node_points(inodes)
    dvals = field.d[grid.mask]
    levels = np.unique(dvals)

    def half_diam(r):
        sel = dvals >= r
        if sel.sum() < 2:
            return -np.inf, None
        diam, (i, j) = _polar_diameter(pol, ipts[sel])
        idx = np.flatnonzero(sel)
        return 0.5 * diam, (idx[i], idx[j])

    lo, hi = 0, len(levels) - 1
    g0, pair0 = half_diam(levels[0])
    if g0 < levels[0]:
        # even the full node set cannot separate two balls of the smallest level
        r_best, pair_best = g0, pair0
    else:
        while lo < hi:  # invariant: levels[lo] feasible, search the last feasible
            mid = (lo + hi + 1) // 2
            g, _ = half_diam(levels[mid])
            if g >= levels[mid]:
                lo = mid
            else:
                hi = mid - 1
        g, pair = half_diam(levels[lo])
        r_best, pair_best = min(levels[lo], g), pair
        if lo + 1 < len(levels):
            g2, pair2 = half_diam(levels[lo + 1])
            val2 = min(levels[lo + 1], g2)
            if val2 > r_best:
                r_best, pair_best = val2, pair2
    i, j = pair_best
    c1 = (int(inodes[i, 0]), int(inodes[i, 1]))
    c2 = (int(inodes[j, 0]), int(inodes[j, 1]))
    return PackingResult(rho2=float(r_best), centers=(c1, c2), norm=norm)


def sup_rayleigh(field: ScalarField, norm: NormSpec) -> float:
    """Discrete sup-norm Rayleigh quotient: Lip_polar(phi) / max|phi|.

    The numerator is the polar-norm Lipschitz constant over all node pairs
    (boundary-ring nodes carry the value 0), the discrete dual form of
    the essential sup of F(grad phi).  The per-triangle gradient would
    overshoot by up to sqrt(2) on apex cells of ridge-shaped fields like the
    distance function, destroying the inradius identity; the pairwise form
    keeps it exact: applied to the distance field it returns 1/max(d).

    The maximum runs by branch and bound (module docstring): only pairs that
    can beat the best quotient found so far are scored.
    """
    peak = np.abs(field.values).max(initial=0.0)
    if peak == 0.0:
        raise ValueError("sup_rayleigh: zero field")
    grid = field.tri.grid
    pol = polar(norm)
    scale, p = minkowski_frame(pol)
    ipts = grid.node_points(np.argwhere(grid.mask))
    bpts = grid.node_points(grid.boundary_node_indices())
    pts = np.concatenate([ipts, bpts])
    vals = np.concatenate([field.values, np.zeros(len(bpts))])
    spts = pts * scale

    def ratio_sq(i, j):
        dist_sq = eval_norm_sq(pol, pts[i] - pts[j])
        dval = vals[i] - vals[j]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dist_sq > 0.0, dval * dval / dist_sq, 0.0)
        return float(ratio.max(initial=0.0))

    # seed: pairs within three cells, and the peak node against its nearest
    # ring node, which keeps the bound positive for any nonzero field
    near = cKDTree(spts).query_pairs(3.0 * grid.h * linear_bounds(pol)[1], p=p,
                                     output_type="ndarray")
    top = int(np.argmax(np.abs(vals)))
    ring = len(ipts) + int(np.argmin(eval_norm(pol, bpts - pts[top])))
    lip_sq = max(ratio_sq(near[:, 0], near[:, 1]), ratio_sq(top, ring))
    examined = len(near) + 1
    # a pair (i, j) with v_j >= a beats the bound L only if F_polar(x_i - x_j) < (v_i - a) / L
    for band in np.array_split(np.argsort(vals), min(_BANDS, len(vals))):
        low = vals[band[0]]
        src = np.flatnonzero(vals > low)
        radius = (vals[src] - low) / np.sqrt(lip_sq) * (1.0 + _SLACK)
        rows, cols = _ball_pairs(cKDTree(spts[band]), spts[src], radius, p)
        lip_sq = max(lip_sq, ratio_sq(src[rows], band[cols]))
        examined += len(rows)
    log.debug("sup_rayleigh: nodes=%d ring=%d pairs=%d all_pairs=%d",
              len(pts), len(bpts), examined, len(pts) ** 2)
    return float(np.sqrt(lip_sq)) / peak


def eikonal_bulk_fraction(
    field: DistanceField,
    norm: NormSpec,
    tri,
    grad_tol: float = 0.1,
    ridge_spread: float = 3.0,
) -> float:
    """Fraction of off-ridge interior triangles with |F(grad d) - 1| <= grad_tol.

    A node is ridge-flagged when the near-minimizing boundary nodes (within
    one cell of optimal) spread over more than ridge_spread cells: there the
    gradient of the distance is genuinely discontinuous.  Triangles touching
    the boundary ring or a ridge node are excluded from the count.
    """
    grid = field.grid
    h = grid.h
    pol = polar(norm)
    scale, p = minkowski_frame(pol)
    bpts = grid.node_points(grid.boundary_node_indices())
    inodes = np.argwhere(grid.mask)
    ipts = grid.node_points(inodes)
    dvals = field.d[grid.mask]

    rows, cols = _ball_pairs(cKDTree(bpts * scale), ipts * scale, (dvals + h) * (1.0 + _SLACK), p)
    near = eval_norm(pol, ipts[rows] - bpts[cols]) <= dvals[rows] + h
    rows, cols = rows[near], cols[near]
    lo = np.full((len(ipts), 2), np.inf)
    hi = np.full((len(ipts), 2), -np.inf)
    np.minimum.at(lo, rows, bpts[cols])
    np.maximum.at(hi, rows, bpts[cols])
    counts = np.bincount(rows, minlength=len(ipts))
    spread = np.where(counts > 1, np.hypot(hi[:, 0] - lo[:, 0], hi[:, 1] - lo[:, 1]), 0.0)
    log.debug("eikonal_bulk_fraction: nodes=%d ring=%d pairs=%d", len(ipts), len(bpts), len(near))
    ridge = np.zeros(grid.mask.shape, dtype=bool)
    ridge[grid.mask] = spread > ridge_spread * h
    bad_node = ridge | grid.boundary_adjacent() | ~grid.mask

    # a triangle is excluded when any corner of its cell is a flagged node
    ci, cj = tri.cell_ij[:, 0], tri.cell_ij[:, 1]
    cell_bad = (bad_node[ci, cj] | bad_node[ci + 1, cj]
                | bad_node[ci + 1, cj + 1] | bad_node[ci, cj + 1])
    good_tri = np.concatenate([~cell_bad, ~cell_bad])  # lower block then upper block
    if not good_tri.any():
        return 1.0
    grads = triangle_gradients(field.as_field(tri))
    f = eval_norm(norm, grads)
    return float(np.mean(np.abs(f[good_tri] - 1.0) <= grad_tol))
