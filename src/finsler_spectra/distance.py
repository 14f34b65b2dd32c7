"""Anisotropic distance to the boundary, inradius, and two-shape packing.

The distance of an interior node x is min over boundary-ring nodes y of
F_polar(x - y).  Every polar norm is an l_q' norm after a coordinate scale,
F_polar(x) = ||x / sqrt(w)||_q' with q' = q/(q-1) (`norms.minkowski_frame`),
and ||z||_q' >= a|z| with a = min(1, 2^(1/q' - 1/2)).  So Euclidean
`scipy.spatial.cKDTree` passes over the scaled nodes, far cheaper than the
metric p = q', select the ring nodes within (1 + _SLACK)(r + h)/a as
candidates, r the polar distance to the Euclidean-nearest ring node: one
dual-tree pass per block of _BLOCK nodes in order of r, at the block's
largest radius, cut to each node's own.  A node meets all its candidates in
its own block, so there its minimum of `eval_norm` is final, bit-identical to
the all-pairs minimum as the true minimizer is among them, and the same
candidates give the spread of its near-minimizers (within h of it) that the
eikonal check reads.

`sup_rayleigh` maximizes a quotient over all node pairs by branch and bound:
a lower bound L comes from short pairs, the nodes are split into value
bands, and each value-ordered block of nodes meets each band in one pass at
the largest radius (v_i - m) / L, m the band's least value.  A pair (i, j)
can only beat L if F_polar(x_i - x_j) < (v_i - v_j) / L, so only the pairs
inside that radius (times 1/a in the tree) are scored, with the all-pairs
expression, and the maximum is exact.
"""
from __future__ import annotations

import bisect
import functools
import logging
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .fem import ScalarField, triangle_gradients
from .geometry import DomainGrid
from .norms import NormSpec, eval_norm, eval_norm_sq, linear_bounds, minkowski_frame, polar

log = logging.getLogger(__name__)

_BLOCK = 512            # nodes per dual-tree pass; bounds the candidate pairs held at once
# relative widening of tree radii, far above the rounding gap between the
# tree's distances and eval_norm, so no exact candidate is lost
_SLACK = 1e-9
_BANDS = 24             # value-quantile bands of the sup-Rayleigh bound
_RIDGE_SPREAD = 3.0     # cells of near-minimizer spread that flag a ridge node in the eikonal check


@dataclass(frozen=True)
class DistanceField:
    """Per-node boundary distance in the polar norm, with its maximum, and per interior
    node the bounding-box diagonal of the ring nodes within h of its distance."""

    grid: DomainGrid
    d: np.ndarray             # (nx, ny), 0 outside the mask
    rho_f: float
    argmax_node: Tuple[int, int]
    spread: np.ndarray        # (interior_count,), in the order of grid.mask's nodes

    def as_field(self, tri) -> ScalarField:
        return ScalarField.from_grid_array(tri, self.d)


@dataclass(frozen=True)
class PackingResult:
    """Largest r such that two disjoint polar balls of radius r fit inside."""

    rho2: float
    centers: Tuple[Tuple[int, int], Tuple[int, int]]


def _euclidean_frame(pol: NormSpec):
    """(scale, 1/a) of the module docstring: a polar radius r needs the tree radius r/a."""
    return minkowski_frame(pol), 1.0 / linear_bounds(NormSpec(q=pol.q))[0]


def _within(source: cKDTree, target: cKDTree, reach: np.ndarray, rows: np.ndarray):
    """(rows[i], j) index arrays of the source and target points within Euclidean
    distance reach[i]: one dual-tree pass at max(reach), then cut per row."""
    near = source.sparse_distance_matrix(target, reach.max(), output_type="ndarray")
    keep = near["v"] <= reach[near["i"]]
    return rows[near["i"][keep]], near["j"][keep]


def _ball_pairs(tree: cKDTree, pts: np.ndarray, radius: np.ndarray):
    """Per block of _BLOCK query points in order of radius, the (row, col) index
    arrays of the tree points within Euclidean distance radius[row] of pts[row]."""
    order = np.argsort(radius)
    for lo in range(0, len(pts), _BLOCK):
        rows = order[lo:lo + _BLOCK]
        yield _within(cKDTree(pts[rows]), tree, radius[rows], rows)  # no pair array kept between blocks


def distance_transform(grid: DomainGrid, norm: NormSpec) -> DistanceField:
    """d(x) = min over boundary nodes y of F_polar(x - y), for interior x, and
    the spread of the y with F_polar(x - y) <= d(x) + h."""
    if grid.interior_count == 0:
        raise ValueError("distance_transform: empty grid")
    pol = polar(norm)
    scale, widen = _euclidean_frame(pol)
    bpts = grid.node_points(grid.boundary_node_indices())
    inodes = np.argwhere(grid.mask)
    ipts = grid.node_points(inodes)
    tree = cKDTree(bpts * scale)
    d = eval_norm(pol, ipts - bpts[tree.query(ipts * scale, k=1)[1]])  # an upper bound of the minimum
    lo = np.full((2, len(ipts)), np.inf)   # per coordinate: 1-D ufunc.at is far cheaper than 2-D
    hi = np.full((2, len(ipts)), -np.inf)
    scored = minimizers = 0
    for rows, cols in _ball_pairs(tree, ipts * scale, (d + grid.h) * (1.0 + _SLACK) * widen):
        dist = eval_norm(pol, ipts[rows] - bpts[cols])
        np.minimum.at(d, rows, dist)  # final for these rows: each meets all its candidates here
        scored += len(rows)
        near = dist <= d[rows] + grid.h
        rows, cols = rows[near], cols[near]
        minimizers += len(rows)
        for k in range(2):
            np.minimum.at(lo[k], rows, bpts[cols, k])
            np.maximum.at(hi[k], rows, bpts[cols, k])
        del rows, cols, dist, near  # freed before the next pass allocates its pairs, which sets the peak memory
    log.debug("distance_transform: nodes=%d ring=%d pairs=%d near=%d", len(ipts), len(bpts), scored, minimizers)
    out = np.zeros((grid.nx, grid.ny))
    out[grid.mask] = d
    k = int(np.argmax(d))  # every node has a near-minimizer, its own minimizer, so lo and hi are finite
    return DistanceField(grid, out, float(d[k]), (int(inodes[k, 0]), int(inodes[k, 1])), np.hypot(*(hi - lo)))


def inradius(field: DistanceField) -> Tuple[float, Tuple[int, int]]:
    """Maximum of the distance field and its argmax node.

    For a disconnected set this is the largest of the component inradii,
    because the maximum runs over all interior nodes at once.
    """
    return field.rho_f, field.argmax_node


def _polar_diameter(pol: NormSpec, pts: np.ndarray):
    """Max of F_polar(x - y) over point pairs, and the first maximal pair in node order.

    F_polar(x - y) is jointly convex, so the maximum is attained at extreme
    points: the convex hull's vertices, or the lexicographically first and
    last point where Qhull finds no hull (fewer than three points, or all on
    one line).
    """
    try:
        ext = np.sort(ConvexHull(pts).vertices)
    except QhullError:
        ext = np.sort(np.lexsort(pts.T[::-1])[[0, -1]])
    vals = eval_norm(pol, pts[ext, None, :] - pts[None, ext, :])
    i, j = divmod(int(np.argmax(vals)), len(ext))
    return float(vals[i, j]), (int(ext[i]), int(ext[j]))


def two_wulff_radius(field: DistanceField, norm: NormSpec) -> PackingResult:
    """max over node pairs of min(d(x1), d(x2), F_polar(x1 - x2) / 2).

    A radius r is feasible when the super-level set {d >= r} contains a pair
    at polar distance >= 2r; that is monotone in r, so one bisection over the
    distinct node distances finds the first infeasible level k, and the
    maximum is at level k - 1 or k (ties to k - 1), exact at grid resolution.
    """
    grid = field.grid
    if grid.interior_count < 2:
        raise ValueError("two_wulff_radius: need at least two interior nodes")
    pol = polar(norm)
    inodes = np.argwhere(grid.mask)
    ipts = grid.node_points(inodes)
    dvals = field.d[grid.mask]
    levels = np.unique(dvals)

    @functools.cache  # the bisection and the final pass share levels k - 1 and k
    def half_diam(i):
        sel = dvals >= levels[i]
        if sel.sum() < 2:
            return -np.inf, None
        diam, (a, b) = _polar_diameter(pol, ipts[sel])
        idx = np.flatnonzero(sel)
        return 0.5 * diam, (idx[a], idx[b])

    k = bisect.bisect_left(range(len(levels)), True, key=lambda i: half_diam(i)[0] < levels[i])
    cands = []
    for i in range(max(k - 1, 0), min(k + 1, len(levels))):
        g, pair = half_diam(i)
        cands.append((min(levels[i], g), pair))
    r_best, (i, j) = max(cands, key=lambda c: c[0])  # the first maximum: ties go to k - 1
    c1 = (int(inodes[i, 0]), int(inodes[i, 1]))
    c2 = (int(inodes[j, 0]), int(inodes[j, 1]))
    return PackingResult(rho2=float(r_best), centers=(c1, c2))


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
    scale, widen = _euclidean_frame(pol)
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

    # seed: pairs within three cells, scored in chunks of 64 blocks to bound the
    # memory held at once, and the peak node against its nearest ring node,
    # which keeps the bound positive for any nonzero field
    near = cKDTree(spts).query_pairs(3.0 * grid.h * linear_bounds(pol)[1] * widen, output_type="ndarray")
    top = int(np.argmax(np.abs(vals)))
    ring = len(ipts) + int(np.argmin(eval_norm(pol, bpts - pts[top])))
    chunks = (near[k:k + 64 * _BLOCK] for k in range(0, len(near), 64 * _BLOCK))
    lip_sq = max(ratio_sq(top, ring), *(ratio_sq(c[:, 0], c[:, 1]) for c in chunks))
    examined = len(near) + 1
    # a pair (i, j) beats the bound L only if F_polar(x_i - x_j) < (v_i - v_j) / L
    order = np.argsort(vals)
    blocks = [(rows, cKDTree(spts[rows])) for rows in np.split(order, range(_BLOCK, len(order), _BLOCK))]
    for band in np.array_split(order, min(_BANDS, len(vals))):
        low = vals[band[0]]
        target = cKDTree(spts[band])
        for rows, source in blocks:
            if vals[rows[-1]] > low:
                per_gap = (1.0 + _SLACK) * widen / np.sqrt(lip_sq)
                near = source.sparse_distance_matrix(target, (vals[rows[-1]] - low) * per_gap, output_type="ndarray")
                i, j = rows[near["i"]], band[near["j"]]
                keep = near["v"] < (vals[i] - vals[j]) * per_gap
                lip_sq = max(lip_sq, ratio_sq(i[keep], j[keep]))
                examined += int(keep.sum())
    log.debug("sup_rayleigh: nodes=%d ring=%d pairs=%d all_pairs=%d", len(pts), len(bpts), examined, len(pts) ** 2)
    return float(np.sqrt(lip_sq)) / peak


def eikonal_bulk_fraction(field: DistanceField, norm: NormSpec, tri) -> float:
    """Fraction of off-ridge interior triangles with |F(grad d) - 1| <= 0.1.

    A node is ridge-flagged when its near-minimizing boundary nodes (within
    one cell of optimal, `DistanceField.spread`) spread over more than
    _RIDGE_SPREAD cells: there the gradient of the distance is genuinely
    discontinuous.  Triangles touching the boundary ring or a ridge node are
    excluded from the count.
    """
    grid = field.grid
    ridge = field.spread > _RIDGE_SPREAD * grid.h
    log.debug("eikonal_bulk_fraction: nodes=%d ridge=%d", len(ridge), ridge.sum())
    bad_node = grid.boundary_adjacent() | ~grid.mask
    bad_node[grid.mask] |= ridge

    # a triangle is excluded when any corner of its cell is a flagged node
    ci, cj = tri.cell_ij[:, 0], tri.cell_ij[:, 1]
    cell_bad = (bad_node[ci, cj] | bad_node[ci + 1, cj]
                | bad_node[ci + 1, cj + 1] | bad_node[ci, cj + 1])
    good_tri = np.concatenate([~cell_bad, ~cell_bad])  # lower block then upper block
    if not good_tri.any():
        return 1.0
    grads = triangle_gradients(field.as_field(tri))
    f = eval_norm(norm, grads)
    return float(np.mean(np.abs(f[good_tri] - 1.0) <= 0.1))
