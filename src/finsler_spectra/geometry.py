"""Rasterized bounded open sets built from signed shape primitives.

A domain is described by a left-to-right list of add/subtract primitives
(rectangles, Euclidean disks, Wulff shapes) and rasterized onto a uniform
grid whose nodes sit on integer multiples of the cell size h.  A node is
interior when it lies inside the composed set with a half-cell safety
margin, so disjoint shapes at distance >= h stay decoupled and axis-aligned
rectangles rasterize onto the exact Dirichlet lattice.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np
from scipy import ndimage

from .norms import NormSpec, linear_bounds, norm_from_dict, polar, polar_eval

RECTANGLE = "rectangle"
WULFF = "wulff"
EUCLIDEAN_DISK = "euclidean_disk"

# 4-connectivity structuring element for component labelling
_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class ShapePrimitive:
    kind: str
    mode: str = "add"
    # rectangle corners
    x0: float = 0.0
    y0: float = 0.0
    x1: float = 0.0
    y1: float = 0.0
    # disk / wulff
    center: Tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    norm: Optional[NormSpec] = None

    def __post_init__(self):
        if self.kind not in (RECTANGLE, WULFF, EUCLIDEAN_DISK):
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        if self.mode not in ("add", "subtract"):
            raise ValueError(f"unknown primitive mode {self.mode!r}")
        if self.kind == WULFF and self.norm is None:
            raise ValueError("wulff primitive needs a norm")
        if self.kind == RECTANGLE:
            if not self.x1 > self.x0:
                raise ValueError(f"rectangle needs x1 > x0, got x0={self.x0}, x1={self.x1}")
            if not self.y1 > self.y0:
                raise ValueError(f"rectangle needs y1 > y0, got y0={self.y0}, y1={self.y1}")
        elif not 0.0 <= self.radius < np.inf:
            raise ValueError(f"{self.kind} radius must be finite and >= 0, got {self.radius}")

    def scaled(self, t: float) -> "ShapePrimitive":
        return replace(
            self,
            x0=self.x0 * t, y0=self.y0 * t, x1=self.x1 * t, y1=self.y1 * t,
            center=(self.center[0] * t, self.center[1] * t),
            radius=self.radius * t,
        )

    def to_dict(self) -> dict:
        d = {"type": self.kind, "mode": self.mode}
        if self.kind == RECTANGLE:
            d.update(x0=self.x0, y0=self.y0, x1=self.x1, y1=self.y1)
        else:
            d.update(center=list(self.center), radius=self.radius)
            if self.kind == WULFF:
                d["norm"] = self.norm.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "ShapePrimitive":
        kind = d["type"]
        mode = d.get("mode", "add")
        if kind == RECTANGLE:
            return ShapePrimitive(kind, mode, x0=d["x0"], y0=d["y0"], x1=d["x1"], y1=d["y1"])
        center = tuple(float(c) for c in d["center"])
        norm = norm_from_dict(d["norm"]) if kind == WULFF else None
        return ShapePrimitive(kind, mode, center=center, radius=float(d["radius"]), norm=norm)

    def _margin_inside(self, px: np.ndarray, py: np.ndarray, m: float) -> np.ndarray:
        """Inside test shrunk (m > 0) or inflated (m < 0) by a Euclidean margin."""
        if self.kind == RECTANGLE:
            return ((px >= self.x0 + m) & (px <= self.x1 - m)
                    & (py >= self.y0 + m) & (py <= self.y1 - m))
        dx = px - self.center[0]
        dy = py - self.center[1]
        if self.kind == EUCLIDEAN_DISK:
            return np.hypot(dx, dy) <= self.radius - m
        # Euclidean margin m maps to a polar-norm margin m * max(F_polar on S^1)
        b_polar = linear_bounds(polar(self.norm))[1]
        return polar_eval(self.norm, np.stack([dx, dy], axis=-1)) <= self.radius - m * b_polar

    def bbox(self) -> Tuple[float, float, float, float]:
        if self.kind == RECTANGLE:
            return self.x0, self.y0, self.x1, self.y1
        if self.kind == EUCLIDEAN_DISK:
            r = self.radius
        else:
            # {F_polar < r} is contained in the Euclidean ball of radius r*b_F
            r = self.radius * linear_bounds(self.norm)[1]
        cx, cy = self.center
        return cx - r, cy - r, cx + r, cy + r


@dataclass(frozen=True)
class ShapeSpec:
    """Signed composition of primitives, evaluated left to right."""

    primitives: Tuple[ShapePrimitive, ...]

    def __post_init__(self):
        if not any(p.mode == "add" for p in self.primitives):
            raise ValueError("shape spec needs at least one add primitive")

    def to_dict(self) -> list:
        return [p.to_dict() for p in self.primitives]

    @staticmethod
    def from_dict(items: list) -> "ShapeSpec":
        return ShapeSpec(tuple(ShapePrimitive.from_dict(d) for d in items))

    def bbox(self) -> Tuple[float, float, float, float]:
        boxes = [p.bbox() for p in self.primitives if p.mode == "add"]
        xs0, ys0, xs1, ys1 = zip(*boxes)
        return min(xs0), min(ys0), max(xs1), max(ys1)


def rectangle(x0: float, y0: float, x1: float, y1: float, mode: str = "add") -> ShapePrimitive:
    return ShapePrimitive(RECTANGLE, mode, x0=x0, y0=y0, x1=x1, y1=y1)


def euclidean_disk(center, radius: float, mode: str = "add") -> ShapePrimitive:
    return ShapePrimitive(EUCLIDEAN_DISK, mode, center=tuple(center), radius=radius)


def wulff(center, radius: float, norm: NormSpec, mode: str = "add") -> ShapePrimitive:
    return ShapePrimitive(WULFF, mode, center=tuple(center), radius=radius, norm=norm)


def shape(*primitives: ShapePrimitive) -> ShapeSpec:
    return ShapeSpec(tuple(primitives))


@dataclass(frozen=True)
class DomainGrid:
    """Uniform-grid rasterization; node (i, j) sits at origin + (i*h, j*h)."""

    origin: Tuple[float, float]
    h: float
    nx: int
    ny: int
    mask: np.ndarray          # bool (nx, ny), True on interior nodes
    component_id: np.ndarray  # int (nx, ny), -1 off the mask, else 0..k-1

    @property
    def interior_count(self) -> int:
        return int(self.mask.sum())

    @property
    def num_components(self) -> int:
        return int(self.component_id.max()) + 1 if self.mask.any() else 0

    def node_xs(self) -> np.ndarray:
        return self.origin[0] + self.h * np.arange(self.nx)

    def node_ys(self) -> np.ndarray:
        return self.origin[1] + self.h * np.arange(self.ny)

    def node_points(self, ij: np.ndarray) -> np.ndarray:
        """Coordinates of nodes given as an (n, 2) array of (i, j) indices."""
        ij = np.asarray(ij)
        return np.stack(
            [self.origin[0] + self.h * ij[..., 0], self.origin[1] + self.h * ij[..., 1]],
            axis=-1,
        )

    def boundary_node_indices(self) -> np.ndarray:
        """Non-mask nodes 4-adjacent to the mask (the discrete Dirichlet ring)."""
        grown = ndimage.binary_dilation(self.mask, structure=_FOUR)
        ring = grown & ~self.mask
        return np.argwhere(ring)

    def boundary_adjacent(self) -> np.ndarray:
        """Interior nodes with a 4-neighbor outside the mask."""
        eroded = ndimage.binary_erosion(self.mask, structure=_FOUR, border_value=0)
        return self.mask & ~eroded

    def subgrid(self, mask: np.ndarray) -> "DomainGrid":
        """Same frame, mask restricted; component ids recomputed."""
        sub = mask & self.mask
        if not sub.any():
            raise ValueError("empty sub-domain")
        return DomainGrid(self.origin, self.h, self.nx, self.ny, sub, _label(sub))


def _label(mask: np.ndarray) -> np.ndarray:
    lab, _ = ndimage.label(mask, structure=_FOUR)
    return lab.astype(np.int32) - 1


def rasterize(spec: ShapeSpec, h: float, pad: int = 2) -> DomainGrid:
    """Rasterize a shape spec onto the h-lattice.

    Deterministic for fixed (spec, h): the grid frame is snapped to integer
    multiples of h, and a node is interior iff it lies in the composed set
    with a half-cell margin (add primitives shrunk, subtracted ones grown).
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"cell size h must be finite and positive, got {h}")
    x0, y0, x1, y1 = spec.bbox()
    i0 = int(np.floor(x0 / h)) - pad
    j0 = int(np.floor(y0 / h)) - pad
    i1 = int(np.ceil(x1 / h)) + pad
    j1 = int(np.ceil(y1 / h)) + pad
    nx, ny = i1 - i0 + 1, j1 - j0 + 1
    origin = (i0 * h, j0 * h)

    px = origin[0] + h * np.arange(nx)[:, None] + np.zeros((1, ny))
    py = origin[1] + h * np.arange(ny)[None, :] + np.zeros((nx, 1))
    m = 0.5 * h
    inside = np.zeros((nx, ny), dtype=bool)
    for prim in spec.primitives:
        hit = prim._margin_inside(px, py, m if prim.mode == "add" else -m)
        if prim.mode == "add":
            inside |= hit
        else:
            inside &= ~hit
    if not inside.any():
        raise ValueError("rasterize: no interior node (empty domain at this resolution)")
    return DomainGrid(origin, h, nx, ny, inside, _label(inside))


def measure(grid: DomainGrid) -> float:
    """Interior node count times h^2; additive over components."""
    return grid.interior_count * grid.h ** 2


def components(grid: DomainGrid) -> List[DomainGrid]:
    """One same-frame sub-grid per 4-connected component (a mask partition)."""
    out = []
    for c in range(grid.num_components):
        sub = grid.component_id == c
        out.append(DomainGrid(grid.origin, grid.h, grid.nx, grid.ny, sub, _label(sub)))
    return out


def scale_domain(spec: ShapeSpec, t: float) -> ShapeSpec:
    """Homothety: every coordinate and radius multiplied by t > 0."""
    if t <= 0:
        raise ValueError("scale factor must be positive")
    return ShapeSpec(tuple(p.scaled(t) for p in spec.primitives))
