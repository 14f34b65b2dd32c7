"""Smooth Finsler norms on R^2, their gradients, polar duals and Wulff shapes.

Three families are supported, all even, convex and 1-homogeneous with
closed-form polars:

* ``euclidean``            F(x) = |x|                       (self-dual)
* ``weighted_quadratic``   F(x) = sqrt(a1*x1^2 + a2*x2^2)   (dual weights 1/a1, 1/a2)
* ``lq``                   F(x) = (|x1|^q + |x2|^q)^(1/q)   (dual exponent q/(q-1))
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

EUCLIDEAN = "euclidean"
WEIGHTED_QUADRATIC = "weighted_quadratic"
LQ = "lq"

# inputs with |xi| below this are rejected by grad_norm
DEGENERATE_NORM = 1e-14

# angular midpoint nodes used by wulff_measure
KAPPA_ANGLE_NODES = 65536


@dataclass(frozen=True)
class NormSpec:
    """Immutable description of a norm; use the module constructors."""

    family: str
    a1: float = 1.0
    a2: float = 1.0
    q: float = 2.0

    def __post_init__(self):
        if self.family not in (EUCLIDEAN, WEIGHTED_QUADRATIC, LQ):
            raise ValueError(f"unknown norm family {self.family!r}")
        if self.family == WEIGHTED_QUADRATIC and (self.a1 <= 0 or self.a2 <= 0):
            raise ValueError("weighted_quadratic needs positive weights")
        if self.family == LQ and not 1.0 < self.q < np.inf:
            raise ValueError("lq exponent must lie in (1, inf)")

    def to_dict(self) -> dict:
        if self.family == WEIGHTED_QUADRATIC:
            return {"family": self.family, "a1": self.a1, "a2": self.a2}
        if self.family == LQ:
            return {"family": self.family, "q": self.q}
        return {"family": self.family}


def euclidean() -> NormSpec:
    return NormSpec(EUCLIDEAN)


def weighted_quadratic(a1: float, a2: float) -> NormSpec:
    """F(x) = sqrt(a1*x1^2 + a2*x2^2); a1, a2 multiply the squared components."""
    return NormSpec(WEIGHTED_QUADRATIC, a1=float(a1), a2=float(a2))


def lq_norm(q: float) -> NormSpec:
    return NormSpec(LQ, q=float(q))


def norm_from_dict(d: dict) -> NormSpec:
    family = d.get("family")
    if family == EUCLIDEAN:
        return euclidean()
    if family == WEIGHTED_QUADRATIC:
        return weighted_quadratic(d["a1"], d["a2"])
    if family == LQ:
        return lq_norm(d["q"])
    raise ValueError(f"unknown norm family {family!r}")


def _split(xi) -> Tuple[np.ndarray, np.ndarray, bool]:
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    return xi[..., 0], xi[..., 1], scalar


def eval_norm(norm: NormSpec, xi) -> np.ndarray:
    """F(xi) for xi with shape (..., 2); returns shape (...)."""
    x, y, scalar = _split(xi)
    if norm.family == EUCLIDEAN:
        out = np.hypot(x, y)
    elif norm.family == WEIGHTED_QUADRATIC:
        out = np.sqrt(norm.a1 * x * x + norm.a2 * y * y)
    else:
        out = (np.abs(x) ** norm.q + np.abs(y) ** norm.q) ** (1.0 / norm.q)
    return float(out) if scalar else out


def grad_norm(norm: NormSpec, xi) -> np.ndarray:
    """Gradient of F at xi != 0, shape (..., 2).

    Satisfies <grad F, xi> = F(xi) and F_polar(grad F(xi)) = 1.
    """
    x, y, scalar = _split(xi)
    r = np.hypot(x, y)
    if np.any(r < DEGENERATE_NORM):
        raise ValueError("grad_norm: input vector too close to the origin")
    if norm.family == EUCLIDEAN:
        g = np.stack([x / r, y / r], axis=-1)
    elif norm.family == WEIGHTED_QUADRATIC:
        f = np.sqrt(norm.a1 * x * x + norm.a2 * y * y)
        g = np.stack([norm.a1 * x / f, norm.a2 * y / f], axis=-1)
    else:
        q = norm.q
        f = (np.abs(x) ** q + np.abs(y) ** q) ** (1.0 / q)
        g = np.stack(
            [np.sign(x) * (np.abs(x) / f) ** (q - 1.0),
             np.sign(y) * (np.abs(y) / f) ** (q - 1.0)],
            axis=-1,
        )
    return g


def polar(norm: NormSpec) -> NormSpec:
    """Closed-form dual norm; polar(polar(F)) == F."""
    if norm.family == EUCLIDEAN:
        return norm
    if norm.family == WEIGHTED_QUADRATIC:
        return weighted_quadratic(1.0 / norm.a1, 1.0 / norm.a2)
    return lq_norm(norm.q / (norm.q - 1.0))


def minkowski_frame(norm: NormSpec) -> Tuple[np.ndarray, float]:
    """(scale, p) with F(x) = ||scale * x||_p, the frame of a Minkowski-metric KD-tree."""
    if norm.family == EUCLIDEAN:
        return np.ones(2), 2.0
    if norm.family == WEIGHTED_QUADRATIC:
        return np.sqrt([norm.a1, norm.a2]), 2.0
    return np.ones(2), norm.q


def polar_eval(norm: NormSpec, x) -> np.ndarray:
    """F_polar(x) = sup_{xi != 0} <xi, x> / F(xi), via the closed-form dual."""
    return eval_norm(polar(norm), x)


def eval_norm_sq(norm: NormSpec, xi) -> np.ndarray:
    """F(xi)^2 without the square root for the quadratic families."""
    x, y, scalar = _split(xi)
    if norm.family == EUCLIDEAN:
        out = x * x + y * y
    elif norm.family == WEIGHTED_QUADRATIC:
        out = norm.a1 * x * x + norm.a2 * y * y
    else:
        out = (np.abs(x) ** norm.q + np.abs(y) ** norm.q) ** (2.0 / norm.q)
    return float(out) if scalar else out


def linear_bounds(norm: NormSpec) -> Tuple[float, float]:
    """Constants 0 < a <= b with a|x| <= F(x) <= b|x|."""
    if norm.family == EUCLIDEAN:
        return 1.0, 1.0
    if norm.family == WEIGHTED_QUADRATIC:
        return np.sqrt(min(norm.a1, norm.a2)), np.sqrt(max(norm.a1, norm.a2))
    diag = 2.0 ** (1.0 / norm.q - 0.5)  # value of F on the unit diagonal direction
    return min(1.0, diag), max(1.0, diag)


def squared_with_halfgrad(norm: NormSpec, gx: np.ndarray, gy: np.ndarray):
    """Return (F^2, F*dF/dx, F*dF/dy) elementwise; the products extend by 0 at 0.

    F*grad(F) = grad(F^2)/2 stays bounded at the origin even where grad(F)
    itself is undefined, which is what the p-energy chain rule needs.
    """
    if norm.family == EUCLIDEAN:
        f2 = gx * gx + gy * gy
        return f2, gx, gy
    if norm.family == WEIGHTED_QUADRATIC:
        f2 = norm.a1 * gx * gx + norm.a2 * gy * gy
        return f2, norm.a1 * gx, norm.a2 * gy
    q = norm.q
    ax, ay = np.abs(gx), np.abs(gy)
    m = np.maximum(ax, ay)
    safe = np.where(m > 0.0, m, 1.0)
    rx, ry = ax / safe, ay / safe
    fq = rx ** q + ry ** q  # F^q / m^q, in [1, 2] off the origin
    fq_safe = np.where(m > 0.0, fq, 1.0)
    f2 = (m * fq_safe ** (1.0 / q)) ** 2
    # F * dF/dx_i = sign(x_i) |x_i|^{q-1} F^{2-q}
    scale = m * fq_safe ** ((2.0 - q) / q)
    hx = np.sign(gx) * rx ** (q - 1.0) * scale
    hy = np.sign(gy) * ry ** (q - 1.0) * scale
    return f2, hx, hy


def wulff_measure(norm: NormSpec, n_angles: int = KAPPA_ANGLE_NODES) -> float:
    """Area of the Wulff shape {F_polar < 1}.

    Deterministic midpoint quadrature of the polar-coordinate area formula
    area = 1/2 * integral of r(theta)^2 with r(theta) = 1/F_polar(u(theta));
    the periodic midpoint rule converges superalgebraically for these norms.
    """
    theta = (np.arange(n_angles) + 0.5) * (2.0 * np.pi / n_angles)
    u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    r = 1.0 / polar_eval(norm, u)
    return float(0.5 * np.sum(r * r) * (2.0 * np.pi / n_angles))


@dataclass(frozen=True)
class WulffShape:
    """Ball of the polar norm: {x : F_polar(x - center) < radius}."""

    center: Tuple[float, float]
    radius: float
    norm: NormSpec

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("Wulff shape needs a positive radius")

    def contains(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return polar_eval(self.norm, pts - np.asarray(self.center)) < self.radius

    def measure(self) -> float:
        return wulff_measure(self.norm) * self.radius ** 2


@dataclass(frozen=True)
class DualityReport:
    """Max relative residuals of the duality identities on random samples."""

    euler_primal: float
    euler_polar: float
    unit_grad_primal: float  # F_polar(grad F) = 1
    unit_grad_polar: float   # F(grad F_polar) = 1
    polar_inverse: float     # F_polar(x) grad F(grad F_polar(x)) = x, and swapped
    max_residual: float


def check_duality(norm: NormSpec, sample_count: int, seed: int = 0) -> DualityReport:
    """Evaluate the duality identities on deterministic nonzero samples."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(sample_count, 2))
    radii = 10.0 ** rng.uniform(-2.0, 2.0, size=sample_count)
    xi *= (radii / np.maximum(np.hypot(xi[:, 0], xi[:, 1]), 1e-12))[:, None]

    pol = polar(norm)
    f = eval_norm(norm, xi)
    fo = eval_norm(pol, xi)
    gf = grad_norm(norm, xi)
    gfo = grad_norm(pol, xi)

    e1 = np.max(np.abs(np.sum(gf * xi, axis=-1) - f) / f)
    e2 = np.max(np.abs(np.sum(gfo * xi, axis=-1) - fo) / fo)
    e3 = np.max(np.abs(eval_norm(pol, gf) - 1.0))
    e4 = np.max(np.abs(eval_norm(norm, gfo) - 1.0))
    r5 = fo[:, None] * grad_norm(norm, gfo) - xi
    r6 = f[:, None] * grad_norm(pol, gf) - xi
    scale = np.hypot(xi[:, 0], xi[:, 1])
    e5 = max(
        np.max(np.hypot(r5[:, 0], r5[:, 1]) / scale),
        np.max(np.hypot(r6[:, 0], r6[:, 1]) / scale),
    )
    return DualityReport(
        euler_primal=float(e1),
        euler_polar=float(e2),
        unit_grad_primal=float(e3),
        unit_grad_polar=float(e4),
        polar_inverse=float(e5),
        max_residual=float(max(e1, e2, e3, e4, e5)),
    )
