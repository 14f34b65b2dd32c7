"""P1 discretization of the anisotropic Rayleigh functional on grid domains.

Every grid cell touching at least one interior node is split into two right
triangles along the same diagonal.  With values extended by zero outside the
mask, the resulting piecewise-linear energy at p = 2 (Euclidean norm) is
exactly the masked 5-point graph Laplacian form, which is what lets the
nonlinear solver and the linear p=2 oracle agree to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import DomainGrid
from .norms import NormSpec, squared_with_halfgrad

# corners A, B, C, D of cell (i, j), as (di, dj) from node (i, j)
CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
# h times the P1 hat gradient at each corner of a cell's lower (A, B, C) and upper (A, D, C) triangle
HATS = ({0: (-1, 0), 1: (1, -1), 2: (0, 1)}, {0: (0, -1), 3: (-1, 1), 2: (1, 0)})
# the corner a node is of its four cells, in the order of their cell indices
CELL_ORDER = (2, 1, 3, 0)
# (di, dj) of a node's mesh neighbours, itself included, in the order of their dof indices
STENCIL = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class Triangulation:
    """Criss-cross P1 mesh over the interior nodes of a DomainGrid.

    G stacks the x and y gradient operators: its first ntri rows map node
    values (Dirichlet-extended by zero) to the constant x-derivative per
    triangle, its last ntri rows to the y-derivative.  Each triangle has
    area h^2 / 2.
    """

    grid: DomainGrid
    dof_nodes: np.ndarray    # (ndof, 2) grid indices of the dofs
    cell_ij: np.ndarray      # (ncell, 2) lower-left corner of each kept cell
    G: sp.csr_matrix         # (2 ntri, ndof) = [Gx; Gy]; triangles are [lower cells; upper cells]
    GxT: sp.csr_matrix       # (ndof, ntri)
    GyT: sp.csr_matrix
    cell_nodes: np.ndarray   # (ncell, 4) dofs at the corners A, B, C, D = (i, j), (i+1, j), (i+1, j+1),
                             # (i, j+1) of each kept cell; -1 off the mask
    node_cells: np.ndarray   # (ndof, 4) the cell of which each dof is corner A, B, C and D

    @property
    def ndof(self) -> int:
        return self.dof_nodes.shape[0]

    @property
    def ntri(self) -> int:
        return self.G.shape[0] // 2

    @property
    def Gx(self) -> sp.csr_matrix:
        return self.G[:self.ntri]

    @property
    def Gy(self) -> sp.csr_matrix:
        return self.G[self.ntri:]

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def area(self) -> float:
        return 0.5 * self.grid.h ** 2

    def stencil(self) -> np.ndarray:
        """(ndof, 7) dofs of each node's neighbours at the offsets STENCIL, -1 off the mask."""
        A, B, C, D = self.cell_nodes.T
        a, c = self.node_cells[:, 0], self.node_cells[:, 2]
        return np.stack([A[c], D[c], B[c], np.arange(self.ndof, dtype=A.dtype), D[a], B[a], C[a]], axis=1)

    def gradient_components(self, values: np.ndarray) -> np.ndarray:
        """(2, ntri) array whose rows are Gx @ values and Gy @ values.

        One product with the stacked G; each row is computed as on its own.
        """
        return (self.G @ values).reshape(2, -1)


def triangulate(grid: DomainGrid) -> Triangulation:
    """The criss-cross mesh of grid's interior nodes, its operators written straight from the cell corners.

    Indices are int32, which scipy also picks for every grid below MAX_GRID_NODES."""
    mask = grid.mask
    dof_nodes = np.argwhere(mask)
    ndof = dof_nodes.shape[0]
    node_index = np.full(mask.shape, -1, dtype=np.int32)
    node_index[mask] = np.arange(ndof)
    # cells with at least one interior corner carry energy; their corners A, B, C, D
    keep = mask[:-1, :-1] | mask[1:, :-1] | mask[1:, 1:] | mask[:-1, 1:]
    cell_ij = np.argwhere(keep)
    cell_nodes = np.stack([node_index[:-1, :-1][keep], node_index[1:, :-1][keep],
                           node_index[1:, 1:][keep], node_index[:-1, 1:][keep]], axis=1)
    ncell = cell_nodes.shape[0]
    cell_index = np.full(mask.shape, -1, dtype=np.int32)  # of cell (i, j) at node (i, j)
    cell_index[:-1, :-1][keep] = np.arange(ncell)
    # node (i, j) is corner A of cell (i, j), B of (i-1, j), C of (i-1, j-1) and D of (i, j-1): all four
    # are kept and inside the frame, whose outer rows and columns hold no interior node (DomainGrid)
    ny = mask.shape[1]
    node_cells = cell_index.ravel()[np.flatnonzero(mask)[:, None] - (0, ny, ny + 1, 1)]
    inv_h = 1.0 / grid.h
    # a row of G holds -1/h at its lower node and 1/h at its higher one (HATS), either of them possibly
    # off the mask: x rows of the lower (A, B, C) and upper (A, D, C) triangles, then their y rows
    A, B, C, D = cell_nodes.T
    cols = np.stack([np.concatenate([A, D, B, A]), np.concatenate([B, C, C, D])], axis=1).ravel()
    on = cols >= 0
    at = np.flatnonzero(on)
    indptr = np.zeros(4 * ncell + 1, dtype=np.int32)
    np.cumsum(on[0::2].view(np.int8) + on[1::2].view(np.int8), out=indptr[1:])
    G = sp.csr_matrix((np.take([-inv_h, inv_h], at & 1), np.take(cols, at), indptr), shape=(4 * ncell, ndof))
    # the transposes: a node's four triangles in each of Gx and Gy, lower then upper, each in CELL_ORDER
    shift = np.array([0, 0, ncell, ncell], dtype=np.int32)
    GxT, GyT = (sp.csr_matrix((np.tile([inv_h, -inv_h], 2 * ndof), (node_cells[:, order] + shift).ravel(),
                               np.arange(0, 4 * ndof + 1, 4, dtype=np.int32)), shape=(ndof, 2 * ncell))
                for order in ([1, 0, 2, 3], [2, 1, 3, 0]))
    return Triangulation(grid, dof_nodes, cell_ij, G, GxT, GyT, cell_nodes, node_cells)


@dataclass
class ScalarField:
    """Node values on the interior dofs; zero outside the mask by convention."""

    tri: Triangulation
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.tri.ndof,):
            raise ValueError("field values must match the dof count")

    def as_grid_array(self) -> np.ndarray:
        out = np.zeros((self.tri.grid.nx, self.tri.grid.ny))
        out[self.tri.grid.mask] = self.values
        return out

    @staticmethod
    def from_grid_array(tri: Triangulation, arr: np.ndarray) -> "ScalarField":
        return ScalarField(tri, np.asarray(arr, dtype=float)[tri.grid.mask])

    @staticmethod
    def from_function(tri: Triangulation, fn) -> "ScalarField":
        pts = tri.grid.node_points(tri.dof_nodes)
        return ScalarField(tri, fn(pts[:, 0], pts[:, 1]))


def triangle_gradients(u: ScalarField) -> np.ndarray:
    """Constant P1 gradient per triangle, shape (ntri, 2); exact and linear in u."""
    gx, gy = u.tri.gradient_components(u.values)
    return np.stack([gx, gy], axis=-1)


def energy_terms(comps: np.ndarray, norm: NormSpec):
    """Per-triangle (F^2, F dF) of gradient components (gx, gy); energy and gradient share it."""
    return squared_with_halfgrad(norm, *comps)


def energy_from_terms(tri: Triangulation, terms, p: float) -> float:
    f2 = terms[0]
    s = np.sqrt(f2.max(initial=0.0))  # a numpy scalar: s ** p overflows to inf, not an error
    if s == 0.0:
        return 0.0
    # scaled form keeps F^p finite for large p
    x = f2 / (s * s)
    x **= 0.5 * p
    return float(tri.area * s ** p * x.sum())


def gradient_from_terms(tri: Triangulation, terms, p: float) -> np.ndarray:
    """Node values of the energy gradient, from the terms of energy_terms."""
    f2, hx, hy = terms
    s2 = f2.max(initial=0.0)
    if s2 == 0.0:
        return np.zeros(tri.ndof)
    # w = p F^{p-2} scaled by s2 against overflow; 0 where F = 0
    w = f2 / s2
    if p > 2.0:
        w **= 0.5 * p - 1.0  # 0 stays 0 for a positive exponent: the mask below is moot
    else:
        np.power(w, 0.5 * p - 1.0, out=w, where=f2 > 0.0)
    w *= p * s2 ** (0.5 * p - 1.0)
    g = tri.GxT @ (w * hx) + tri.GyT @ (w * hy)
    g *= tri.area
    return g


def energy_p(u: ScalarField, norm: NormSpec, p: float) -> float:
    """sum_T area * F(grad u)^p; convex and p-homogeneous in u."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    return energy_from_terms(u.tri, energy_terms(u.tri.gradient_components(u.values), norm), p)


def energy_gradient(u: ScalarField, norm: NormSpec, p: float) -> ScalarField:
    """Exact gradient of energy_p with respect to the node values."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    terms = energy_terms(u.tri.gradient_components(u.values), norm)
    return ScalarField(u.tri, gradient_from_terms(u.tri, terms, p))


def mass_p(u: ScalarField, p: float) -> float:
    """Lumped nodal quadrature of the p-th power: h^2 * sum |u_i|^p."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    v = np.abs(u.values)
    m = v.max(initial=0.0)
    if m == 0.0:
        return 0.0
    return float(u.tri.h ** 2 * m ** p * np.sum((v / m) ** p))


def mass_gradient(u: ScalarField, p: float) -> ScalarField:
    """Exact gradient of mass_p: p h^2 |u_i|^{p-2} u_i per node."""
    if p <= 1.0:
        raise ValueError("p must exceed 1")
    return ScalarField(u.tri, _mass_gradient_values(u.tri, u.values, p))


def _mass_gradient_values(tri: Triangulation, values: np.ndarray, p: float) -> np.ndarray:
    v = np.abs(values)
    m = v.max(initial=0.0)
    if m == 0.0:
        return np.zeros(tri.ndof)
    # p h^2 m^{p-1} sign(u) (|u|/m)^{p-1}, scaled in place
    v /= m
    v **= p - 1.0
    g = np.sign(values)
    g *= p * tri.h ** 2 * m ** (p - 1.0)
    g *= v
    return g
