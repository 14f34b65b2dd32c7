"""Reference values computed apart from the program under test.

Inputs are a rasterized mask (node (i, j) sits at origin + h * (i, j)) and
norms in their JSON form.  Nothing here calls a finsler_spectra solver: the
5-point matrix, the polar distance, the packing radius and the P1 Rayleigh
quotient are written from the closed-form norms.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# pairwise blocks hold about this many entries, so references stay small
# next to the program's own peak memory
_BLOCK = 1 << 20


def norm_value(norm: dict, x, y):
    """F(x, y) for a norm in JSON form."""
    family = norm["family"]
    if family == "euclidean":
        return np.hypot(x, y)
    if family == "weighted_quadratic":
        return np.sqrt(norm["a1"] * x * x + norm["a2"] * y * y)
    q = norm["q"]
    return (np.abs(x) ** q + np.abs(y) ** q) ** (1.0 / q)


def polar_of(norm: dict) -> dict:
    """Closed-form dual norm."""
    family = norm["family"]
    if family == "euclidean":
        return norm
    if family == "weighted_quadratic":
        return {"family": family, "a1": 1.0 / norm["a1"], "a2": 1.0 / norm["a2"]}
    return {"family": family, "q": norm["q"] / (norm["q"] - 1.0)}


def quadratic_weights(norm: dict):
    """(a1, a2) with F^2 = a1 x^2 + a2 y^2, or None for the l_q family."""
    if norm["family"] == "euclidean":
        return 1.0, 1.0
    if norm["family"] == "weighted_quadratic":
        return norm["a1"], norm["a2"]
    return None


def wulff_area(norm: dict) -> float:
    """Area of the Wulff shape {F_polar < 1} in closed form."""
    family = norm["family"]
    if family == "euclidean":
        return math.pi
    if family == "weighted_quadratic":
        # F_polar^2 = x^2/a1 + y^2/a2: an ellipse with semi-axes sqrt(a1), sqrt(a2)
        return math.pi * math.sqrt(norm["a1"] * norm["a2"])
    # the unit ball of the l_r norm, r = q/(q-1), has area 4 G(1+1/r)^2 / G(1+2/r)
    r = norm["q"] / (norm["q"] - 1.0)
    return 4.0 * math.gamma(1.0 + 1.0 / r) ** 2 / math.gamma(1.0 + 2.0 / r)


def five_point_eigenvalues(mask: np.ndarray, h: float, a1: float, a2: float, k: int = 2) -> np.ndarray:
    """Lowest k eigenvalues of -(a1 d_xx + a2 d_yy), 5-point stencil, zero off the mask."""
    index = -np.ones(mask.shape, dtype=np.int64)
    n = int(mask.sum())
    index[mask] = np.arange(n)
    rows, cols, vals = [np.arange(n)], [np.arange(n)], [np.full(n, 2.0 * (a1 + a2))]
    for di, dj, a in ((1, 0, a1), (0, 1, a2)):
        src = index[: mask.shape[0] - di, : mask.shape[1] - dj]
        dst = index[di:, dj:]
        both = (src >= 0) & (dst >= 0)
        for r, c in ((src[both], dst[both]), (dst[both], src[both])):
            rows.append(r)
            cols.append(c)
            vals.append(np.full(r.size, -a))
    lap = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n)) / (h * h)
    if n <= k + 1:
        return scipy.linalg.eigh(lap.toarray(), eigvals_only=True)[:k]
    w = spla.eigsh(lap, k=k, sigma=0.0, which="LM", v0=np.ones(n), return_eigenvectors=False)
    return np.sort(w)


def rectangle_lattice_eigenvalue(lengths, h: float, a1: float, a2: float) -> float:
    """Exact lowest 5-point eigenvalue on an L1 x L2 rectangle whose sides are node lines."""
    l1, l2 = lengths
    return 4.0 / h ** 2 * (a1 * math.sin(math.pi * h / (2 * l1)) ** 2
                           + a2 * math.sin(math.pi * h / (2 * l2)) ** 2)


def rectangle_eigenvalue(lengths, a1: float, a2: float) -> float:
    """Continuum lambda_1 = pi^2 (a1/L1^2 + a2/L2^2)."""
    l1, l2 = lengths
    return math.pi ** 2 * (a1 / l1 ** 2 + a2 / l2 ** 2)


def rectangle_discretization_bound(lengths, h: float) -> float:
    """The 5-point lambda_1 lies below the continuum one by at most pi^2 h^2 / (12 L_min^2)."""
    return math.pi ** 2 * h ** 2 / (12.0 * min(lengths) ** 2)


def ring_nodes(mask: np.ndarray) -> np.ndarray:
    """Off-mask nodes 4-adjacent to the mask: where the Dirichlet value 0 sits."""
    grown = mask.copy()
    grown[1:] |= mask[:-1]
    grown[:-1] |= mask[1:]
    grown[:, 1:] |= mask[:, :-1]
    grown[:, :-1] |= mask[:, 1:]
    return grown & ~mask


def node_xy(origin, h: float, ij: np.ndarray):
    return origin[0] + h * ij[:, 0], origin[1] + h * ij[:, 1]


def polar_distance(mask: np.ndarray, origin, h: float, norm: dict, nodes=None) -> np.ndarray:
    """min over ring nodes y of F_polar(x - y), for the given (i, j) nodes (default: all of the mask)."""
    pol = polar_of(norm)
    bx, by = node_xy(origin, h, np.argwhere(ring_nodes(mask)))
    nodes = np.argwhere(mask) if nodes is None else np.asarray(nodes)
    px, py = node_xy(origin, h, nodes)
    out = np.empty(len(nodes))
    step = max(1, _BLOCK // max(len(bx), 1))
    for lo in range(0, len(nodes), step):
        sl = slice(lo, lo + step)
        out[sl] = norm_value(pol, px[sl, None] - bx[None, :], py[sl, None] - by[None, :]).min(axis=1)
    return out


def packing_radius(px: np.ndarray, py: np.ndarray, d: np.ndarray, norm: dict, floor: float = -np.inf) -> float:
    """max over node pairs of min(d_i, d_j, F_polar(x_i - x_j) / 2), by brute force.

    Only nodes with d >= floor take part.  A pair with a node below the floor
    scores below it, so the result is exact whenever it is at least the floor.
    """
    keep = d >= floor
    px, py, d = px[keep], py[keep], d[keep]
    n = len(d)
    if n < 2:
        return -np.inf
    pol = polar_of(norm)
    best = -np.inf
    step = max(1, _BLOCK // n)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        gap = 0.5 * norm_value(pol, px[lo:hi, None] - px[None, :], py[lo:hi, None] - py[None, :])
        val = np.minimum(np.minimum(d[lo:hi, None], d[None, :]), gap)
        val[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
        best = max(best, float(val.max()))
    return best


def p1_quotient(values: np.ndarray, h: float, norm: dict, p: float) -> float:
    """Rayleigh quotient of the criss-cross P1 field with these node values (0 off the mask).

    Energy: (h^2 / 2) * sum of F(grad)^p over the two triangles of every cell;
    mass: the lumped h^2 * sum |u|^p.  Written from the closed-form norm, in
    scaled form so large p does not overflow.
    """
    u = values
    a, b, c, d = u[:-1, :-1], u[1:, :-1], u[1:, 1:], u[:-1, 1:]
    gx = np.concatenate([(b - a).ravel(), (c - d).ravel()]) / h
    gy = np.concatenate([(c - b).ravel(), (d - a).ravel()]) / h
    f = norm_value(norm, gx, gy)
    absu = np.abs(u)
    fmax, umax = float(f.max()), float(absu.max())
    energy = 0.5 * np.sum((f / fmax) ** p)
    mass = np.sum((absu / umax) ** p)
    return float((fmax / umax) ** p * energy / mass)
