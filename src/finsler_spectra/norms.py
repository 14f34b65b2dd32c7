"""Smooth Finsler norms on R^2, their gradients, polar duals and Wulff shapes.

Every norm is F(xi)^q = w1 |xi1|^q + w2 |xi2|^q with q in (1, inf) and
weights other than 1 only at q = 2: even, convex, 1-homogeneous, with a
closed-form polar of the same form.  The JSON spelling ``euclidean`` is
w = (1, 1), q = 2; ``weighted_quadratic(a1, a2)`` is w = (a1, a2), q = 2;
``lq(q)`` is w = (1, 1).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Tuple

import numpy as np

# inputs with |xi| below this are rejected by grad_norm
DEGENERATE_NORM = 1e-14
# most duality samples: check_duality holds about 190 bytes a sample, 0.2 GB at the limit
MAX_SAMPLES = 10 ** 6


@dataclass(frozen=True)
class NormSpec:
    """Immutable (w1, w2, q) of F(xi)^q = w1|xi1|^q + w2|xi2|^q; use the module constructors."""

    w1: float = 1.0
    w2: float = 1.0
    q: float = 2.0

    def __post_init__(self):
        # float() also turns a non-number, such as NormSpec("bogus"), into a ValueError
        for name, w in (("w1 (a1 in JSON)", self.w1), ("w2 (a2 in JSON)", self.w2)):
            if not 0.0 < float(w) < math.inf:
                raise ValueError(f"norm weight {name} must be finite and positive, got {w!r}")
        if not 1.0 < float(self.q) < math.inf:
            raise ValueError(f"norm exponent q must lie in (1, inf), got {self.q!r}")
        if self.q != 2.0 and not self.unit_weights:
            raise ValueError(f"norm weights other than 1 need q = 2, got q={self.q!r}")

    @property
    def unit_weights(self) -> bool:
        return self.w1 == 1.0 and self.w2 == 1.0

    def to_dict(self) -> dict:
        if self.q != 2.0:
            return {"family": "lq", "q": self.q}
        if self.unit_weights:
            return {"family": "euclidean"}
        return {"family": "weighted_quadratic", "a1": self.w1, "a2": self.w2}


def euclidean() -> NormSpec:
    return NormSpec()


def weighted_quadratic(a1: float, a2: float) -> NormSpec:
    """F(x) = sqrt(a1*x1^2 + a2*x2^2); a1, a2 multiply the squared components."""
    return NormSpec(float(a1), float(a2))


def lq_norm(q: float) -> NormSpec:
    return NormSpec(q=float(q))


# JSON family -> (constructor, its keys besides "family")
_SPELLINGS = {
    "euclidean": (euclidean, ()),
    "weighted_quadratic": (weighted_quadratic, ("a1", "a2")),
    "lq": (lq_norm, ("q",)),
}


# here rather than beside geometry._numbers, since geometry imports this module
def _number(where: str, x, integer: bool = False):
    """A JSON number as a float (an int if integer); anything else, a bool, a string,
    NaN, an infinity or an int beyond float range included, raises a ValueError naming where."""
    if isinstance(x, int if integer else (int, float)) and not isinstance(x, bool):
        if integer or abs(x) <= sys.float_info.max:  # False for NaN; exact for any int
            return int(x) if integer else float(x)
        raise ValueError(f"{where} must be finite as a float, got {x!r}")
    raise ValueError(f"{where} must be {'an integer' if integer else 'a number'}, got {x!r}")


def norm_from_dict(d: dict) -> NormSpec:
    if not isinstance(d, dict):
        raise ValueError(f"norm must be a JSON object, got {d!r}")
    family = d.get("family")
    if not isinstance(family, str) or family not in _SPELLINGS:
        raise ValueError(f"unknown norm family {family!r}")
    make, keys = _SPELLINGS[family]
    if set(d) != {"family", *keys}:
        raise ValueError(f"norm family {family!r} takes the key(s) {list(keys)}, "
                         f"got {sorted(set(d) - {'family'})}")
    return make(*(_number(f"norm {k}", d[k]) for k in keys))


def _split(xi) -> Tuple[np.ndarray, np.ndarray, bool]:
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 1
    return xi[..., 0], xi[..., 1], scalar


def eval_norm(norm: NormSpec, xi) -> np.ndarray:
    """F(xi) for xi with shape (..., 2); returns shape (...)."""
    x, y, scalar = _split(xi)
    q = norm.q
    if q != 2.0:
        out = (np.abs(x) ** q + np.abs(y) ** q) ** (1.0 / q)
    elif norm.unit_weights:
        out = np.hypot(x, y)
    else:
        out = np.sqrt(norm.w1 * x * x + norm.w2 * y * y)
    return float(out) if scalar else out


def grad_norm(norm: NormSpec, xi) -> np.ndarray:
    """Gradient of F at xi != 0, shape (..., 2): the kernel's F dF over F.

    Satisfies <grad F, xi> = F(xi) and F_polar(grad F(xi)) = 1.
    """
    x, y, _ = _split(xi)
    if np.any(np.hypot(x, y) < DEGENERATE_NORM):
        raise ValueError("grad_norm: input vector too close to the origin")
    _, hx, hy = squared_with_halfgrad(norm, x, y)
    f = eval_norm(norm, xi)
    return np.stack([hx / f, hy / f], axis=-1)


def polar(norm: NormSpec) -> NormSpec:
    """Closed-form dual norm; polar(polar(F)) == F up to rounding of 1/w and q'."""
    if norm.q == 2.0:
        return NormSpec(1.0 / norm.w1, 1.0 / norm.w2)
    return NormSpec(q=norm.q / (norm.q - 1.0))


def minkowski_frame(norm: NormSpec) -> np.ndarray:
    """The scale with F(x) = ||scale * x||_q, the coordinate frame of a KD-tree over F."""
    return np.sqrt([norm.w1, norm.w2])


def polar_eval(norm: NormSpec, x) -> np.ndarray:
    """F_polar(x) = sup_{xi != 0} <xi, x> / F(xi), via the closed-form dual."""
    return eval_norm(polar(norm), x)


def eval_norm_sq(norm: NormSpec, xi) -> np.ndarray:
    """F(xi)^2, without a square root at q = 2."""
    x, y, scalar = _split(xi)
    q = norm.q
    if q != 2.0:
        out = (np.abs(x) ** q + np.abs(y) ** q) ** (2.0 / q)
    elif norm.unit_weights:
        # sup_rayleigh scores millions of pairs here; unit weights save two products each
        out = x * x + y * y
    else:
        out = norm.w1 * x * x + norm.w2 * y * y
    return float(out) if scalar else out


def linear_bounds(norm: NormSpec) -> Tuple[float, float]:
    """Constants 0 < a <= b with a|x| <= F(x) <= b|x|."""
    diag = 2.0 ** (1.0 / norm.q - 0.5)  # value of the unit-weight F on the unit diagonal direction
    w_lo, w_hi = sorted((norm.w1, norm.w2))
    return math.sqrt(w_lo) * min(1.0, diag), math.sqrt(w_hi) * max(1.0, diag)


def squared_with_halfgrad(norm: NormSpec, gx: np.ndarray, gy: np.ndarray):
    """Return (F^2, F*dF/dx, F*dF/dy) elementwise; the products extend by 0 at 0.

    F*grad(F) = grad(F^2)/2 stays bounded at the origin even where grad(F)
    itself is undefined, which is what the p-energy chain rule needs.
    """
    if norm.q == 2.0:
        if norm.unit_weights:
            # the weighted form below costs about 3x as much per call
            return gx * gx + gy * gy, gx, gy
        return norm.w1 * gx * gx + norm.w2 * gy * gy, norm.w1 * gx, norm.w2 * gy
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


def power_hessian(norm: NormSpec, p: float, gx: np.ndarray, gy: np.ndarray):
    """Elementwise 2x2 Hessian (xx, xy, yy) of F^p, with F^2 floored at 1e-10 of its maximum.

    It is p F^(p-4) ((p-2) h h^T + F^2 Dh) with h = F dF, and for the whole family
    F^2 Dh = (q-1) F^2 diag(w_i (|x_i|/F)^(q-2)) + (2-q) h h^T; at q < 2 the ratio
    |x_i|/F is floored too.  The floors keep the weights finite where F or a
    component vanishes.
    """
    return power_hessian_from_terms(norm, p, gx, gy, squared_with_halfgrad(norm, gx, gy))


def power_hessian_from_terms(norm: NormSpec, p: float, gx: np.ndarray, gy: np.ndarray, terms):
    """power_hessian from the terms (F^2, F dF) that squared_with_halfgrad(norm, gx, gy) returns."""
    f2, hx, hy = terms
    s2 = f2.max(initial=0.0)
    if s2 == 0.0:
        return f2, f2, f2
    f2 = np.maximum(f2, 1e-10 * s2)
    q = norm.q
    dx, dy = ((q - 1.0) * w * f2 * np.maximum(c * c / f2, 1e-10 if q < 2.0 else 0.0) ** (0.5 * q - 1.0)
              for w, c in ((norm.w1, gx), (norm.w2, gy)))
    # p F^(p-4), scaled by s2 against overflow as in fem.gradient_from_terms
    scale = p * (f2 / s2) ** (0.5 * p - 2.0) * s2 ** (0.5 * p - 2.0)
    return (scale * ((p - q) * hx * hx + dx), scale * ((p - q) * hx * hy),
            scale * ((p - q) * hy * hy + dy))


def wulff_measure(norm: NormSpec) -> float:
    """Area of the Wulff shape {F_polar < 1}.

    F_polar(x) = ||diag(w)^(-1/2) x||_q' with q' the polar exponent, so the
    shape is diag(sqrt w) times the unit l_q' ball, of area
    4 Gamma(1 + 1/q')^2 / Gamma(1 + 2/q').
    """
    r = polar(norm).q
    # at q' = 2 the Gamma form is 1 ulp above pi
    ball = math.pi if r == 2.0 else 4.0 * math.gamma(1.0 + 1.0 / r) ** 2 / math.gamma(1.0 + 2.0 / r)
    return math.sqrt(norm.w1 * norm.w2) * ball


@dataclass(frozen=True)
class DualityReport:
    """Max relative residuals of the duality identities on random samples."""

    euler_primal: float
    euler_polar: float
    unit_grad_primal: float  # F_polar(grad F) = 1
    unit_grad_polar: float   # F(grad F_polar) = 1
    polar_inverse: float     # F_polar(x) grad F(grad F_polar(x)) = x, and swapped
    max_residual: float


def check_duality(norm: NormSpec, sample_count: int) -> DualityReport:
    """Evaluate the duality identities on deterministic nonzero samples."""
    if not 1 <= sample_count <= MAX_SAMPLES:
        raise ValueError(f"sample_count must be in [1, MAX_SAMPLES = {MAX_SAMPLES}], got {sample_count!r}")
    rng = np.random.default_rng(0)
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
