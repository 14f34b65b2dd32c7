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


def _gradient_matrix(rows, plus, minus, h, ntri, ndof):
    mp = plus >= 0
    mm = minus >= 0
    data = np.concatenate([np.full(mp.sum(), 1.0 / h), np.full(mm.sum(), -1.0 / h)])
    ij = (np.concatenate([rows[mp], rows[mm]]), np.concatenate([plus[mp], minus[mm]]))
    return sp.csr_matrix((data, ij), shape=(ntri, ndof))


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

    def gradient_components(self, values: np.ndarray) -> np.ndarray:
        """(2, ntri) array whose rows are Gx @ values and Gy @ values.

        One product with the stacked G; each row is computed as on its own.
        """
        return (self.G @ values).reshape(2, -1)


def triangulate(grid: DomainGrid) -> Triangulation:
    mask = grid.mask
    node_index = -np.ones(mask.shape, dtype=np.int64)
    dof_nodes = np.argwhere(mask)
    node_index[mask] = np.arange(dof_nodes.shape[0])

    # cells with at least one interior corner carry energy
    a = node_index[:-1, :-1]
    b = node_index[1:, :-1]
    c = node_index[1:, 1:]
    d = node_index[:-1, 1:]
    keep = (a >= 0) | (b >= 0) | (c >= 0) | (d >= 0)
    A, B, C, D = a[keep], b[keep], c[keep], d[keep]
    cell_ij = np.argwhere(keep)
    ncell = A.size
    rows = np.arange(ncell)
    h = grid.h
    ndof = dof_nodes.shape[0]
    # lower triangle (A, B, C): gx = (B - A)/h, gy = (C - B)/h
    # upper triangle (A, D, C): gx = (C - D)/h, gy = (D - A)/h
    G = sp.vstack([
        _gradient_matrix(rows, B, A, h, ncell, ndof),
        _gradient_matrix(rows, C, D, h, ncell, ndof),
        _gradient_matrix(rows, C, B, h, ncell, ndof),
        _gradient_matrix(rows, D, A, h, ncell, ndof),
    ]).tocsr()
    ntri = 2 * ncell
    return Triangulation(grid, dof_nodes, cell_ij, G,
                         G[:ntri].T.tocsr(), G[ntri:].T.tocsr())


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
