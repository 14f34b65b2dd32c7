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

from .norms import NormSpec, _number, euclidean, linear_bounds, norm_from_dict, polar, polar_eval

RECTANGLE = "rectangle"
WULFF = "wulff"
EUCLIDEAN_DISK = "euclidean_disk"

# largest grid frame rasterize builds; a smaller h is rejected before any allocation
MAX_GRID_NODES = 2 ** 22

# 4-connectivity structuring element (boundary ring, interface frontier)
_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
# the mesh's edges, indexed [1 + di, 1 + dj]: 4-neighbours and the (i, j)-(i+1, j+1) cell diagonal
_MESH = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)

# JSON keys of each primitive type besides "type" and the optional "mode"
_PRIMITIVE_KEYS = {
    RECTANGLE: ("x0", "y0", "x1", "y1"),
    EUCLIDEAN_DISK: ("center", "radius"),
    WULFF: ("center", "radius", "norm"),
}


def _check_keys(where: str, d, required: tuple, optional: tuple = ()) -> None:
    """Reject a JSON object with a missing or unknown key, naming the key(s)."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(d).__name__}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"{where}: missing key(s) {missing}")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {unknown}")


def _numbers(where: str, x, count: Optional[int] = None) -> Tuple[float, ...]:
    """A JSON list of finite numbers (of count entries, if given) as floats; anything
    else raises a ValueError that names where."""
    if isinstance(x, list) and count in (None, len(x)):
        return tuple(_number(where, v) for v in x)
    want = "a JSON list of finite numbers" if count is None else f"{count} finite numbers"
    raise ValueError(f"{where} must be {want}, got {x!r}")


@dataclass(frozen=True)
class ShapePrimitive:
    kind: str
    mode: str = "add"
    # rectangle corners
    x0: float = 0.0
    y0: float = 0.0
    x1: float = 0.0
    y1: float = 0.0
    # disk / wulff; a Euclidean disk is the Wulff shape of the Euclidean norm
    center: Tuple[float, float] = (0.0, 0.0)
    radius: float = 0.0
    norm: Optional[NormSpec] = None

    def __post_init__(self):
        if self.kind not in (RECTANGLE, WULFF, EUCLIDEAN_DISK):
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        if self.mode not in ("add", "subtract"):
            raise ValueError(f"unknown primitive mode {self.mode!r}")
        if self.kind != RECTANGLE and self.norm is None:
            raise ValueError(f"{self.kind} primitive needs a norm")
        for k in ("x0", "y0", "x1", "y1") if self.kind == RECTANGLE else ("center",):
            if not np.isfinite(getattr(self, k)).all():
                raise ValueError(f"{self.kind} primitive: {k} must be finite, got {getattr(self, k)!r}")
        if self.kind == RECTANGLE:
            if not self.x1 > self.x0:
                raise ValueError(f"rectangle needs x1 > x0, got x0={self.x0}, x1={self.x1}")
            if not self.y1 > self.y0:
                raise ValueError(f"rectangle needs y1 > y0, got y0={self.y0}, y1={self.y1}")
        elif not 0.0 < self.radius < np.inf:
            raise ValueError(f"{self.kind} radius must be finite and positive, got {self.radius}")

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
        kind = d.get("type") if isinstance(d, dict) else None
        if not isinstance(kind, str) or kind not in _PRIMITIVE_KEYS:
            raise ValueError(f"primitive type must be one of {list(_PRIMITIVE_KEYS)}, got {kind!r}")
        _check_keys(f"{kind} primitive", d, ("type",) + _PRIMITIVE_KEYS[kind], ("mode",))
        mode = d.get("mode", "add")
        if kind == RECTANGLE:
            x0, y0, x1, y1 = (_number(f"{kind} primitive: {k}", d[k]) for k in _PRIMITIVE_KEYS[kind])
            return ShapePrimitive(kind, mode, x0=x0, y0=y0, x1=x1, y1=y1)
        center = _numbers(f"{kind} primitive: center", d["center"], 2)
        norm = norm_from_dict(d["norm"]) if kind == WULFF else euclidean()
        radius = _number(f"{kind} primitive: radius", d["radius"])
        return ShapePrimitive(kind, mode, center=center, radius=radius, norm=norm)

    def _margin_inside(self, px: np.ndarray, py: np.ndarray, m: float) -> np.ndarray:
        """Inside test shrunk (m > 0) or inflated (m < 0) by a Euclidean margin."""
        if self.kind == RECTANGLE:
            return ((px >= self.x0 + m) & (px <= self.x1 - m)
                    & (py >= self.y0 + m) & (py <= self.y1 - m))
        dx = px - self.center[0]
        dy = py - self.center[1]
        # Euclidean margin m maps to a polar-norm margin m * max(F_polar on S^1)
        b_polar = linear_bounds(polar(self.norm))[1]
        return polar_eval(self.norm, np.stack([dx, dy], axis=-1)) <= self.radius - m * b_polar

    def bbox(self) -> Tuple[float, float, float, float]:
        if self.kind == RECTANGLE:
            return self.x0, self.y0, self.x1, self.y1
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
        if not isinstance(items, list):
            raise ValueError(f"domain must be a JSON list of primitives, got {items!r}")
        return ShapeSpec(tuple(ShapePrimitive.from_dict(d) for d in items))

    def bbox(self) -> Tuple[float, float, float, float]:
        boxes = [p.bbox() for p in self.primitives if p.mode == "add"]
        xs0, ys0, xs1, ys1 = zip(*boxes)
        return min(xs0), min(ys0), max(xs1), max(ys1)


def rectangle(x0: float, y0: float, x1: float, y1: float, mode: str = "add") -> ShapePrimitive:
    return ShapePrimitive(RECTANGLE, mode, x0=x0, y0=y0, x1=x1, y1=y1)


def euclidean_disk(center, radius: float, mode: str = "add") -> ShapePrimitive:
    return ShapePrimitive(EUCLIDEAN_DISK, mode, center=tuple(center), radius=radius, norm=euclidean())


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
    mask: np.ndarray  # bool (nx, ny), True on interior nodes

    def __post_init__(self):
        m = self.mask
        if m.shape != (self.nx, self.ny):
            raise ValueError(f"DomainGrid: mask shape {m.shape} is not (nx, ny) = ({self.nx}, {self.ny})")
        # the mesh's cells around an interior node must lie in the frame; four edge counts are
        # cheap enough for the components and part masks that a lambda_2 search builds
        for edge, nodes in (("i = 0", m[0]), ("i = nx - 1", m[-1]),
                            ("j = 0", m[:, 0]), ("j = ny - 1", m[:, -1])):
            if np.count_nonzero(nodes):
                raise ValueError(f"DomainGrid: the mask reaches the frame's edge {edge}; interior "
                                 "nodes need an empty node row and column on every side")

    @property
    def interior_count(self) -> int:
        return int(self.mask.sum())

    @property
    def num_components(self) -> int:
        return len(components(self))

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
        """Same frame, mask restricted."""
        sub = mask & self.mask
        if not sub.any():
            raise ValueError("empty sub-domain")
        return replace(self, mask=sub)


def _grid_frame(spec: ShapeSpec, h: float) -> Tuple[Tuple[float, float], int, int]:
    """(origin, nx, ny) of the h-lattice frame around spec's bounding box with two
    empty node rows on each side, checked against MAX_GRID_NODES before anything
    is allocated."""
    if not 0.0 < h < np.inf:
        raise ValueError(f"cell size h must be finite and positive, got {h}")
    x0, y0, x1, y1 = spec.bbox()
    lo = np.floor(np.divide((x0, y0), h)) - 2
    hi = np.ceil(np.divide((x1, y1), h)) + 2
    nx, ny = hi - lo + 1
    if not nx * ny <= MAX_GRID_NODES:
        raise ValueError(f"h={h} gives a {nx:.0f} x {ny:.0f} node grid, "
                         f"above the limit of {MAX_GRID_NODES} nodes")
    return (int(lo[0]) * h, int(lo[1]) * h), int(nx), int(ny)


def rasterize(spec: ShapeSpec, h: float) -> DomainGrid:
    """Rasterize a shape spec onto the h-lattice.

    Deterministic for fixed (spec, h): the grid frame is snapped to integer
    multiples of h, and a node is interior iff it lies in the composed set
    with a half-cell margin (add primitives shrunk, subtracted ones grown).
    """
    origin, nx, ny = _grid_frame(spec, h)
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
    return DomainGrid(origin, h, nx, ny, inside)


def measure(grid: DomainGrid) -> float:
    """Interior node count times h^2; additive over components."""
    return grid.interior_count * grid.h ** 2


def components(grid: DomainGrid) -> List[DomainGrid]:
    """One same-frame sub-grid per component of the mesh (see _MESH; a mask partition), in label order."""
    labels, count = ndimage.label(grid.mask, structure=_MESH)
    return [replace(grid, mask=labels == c) for c in range(1, count + 1)]


def scale_domain(spec: ShapeSpec, t: float) -> ShapeSpec:
    """Homothety: every coordinate and radius multiplied by t > 0."""
    if t <= 0:
        raise ValueError("scale factor must be positive")
    return ShapeSpec(tuple(p.scaled(t) for p in spec.primitives))
