import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsler_spectra as fs
from finsler_spectra.norms import (eval_norm_sq, linear_bounds, norm_from_dict, power_hessian,
                                  squared_with_halfgrad)

from conftest import ALL_NORMS


def test_eval_examples():
    assert fs.eval_norm(fs.euclidean(), (3.0, 4.0)) == pytest.approx(5.0, abs=1e-14)
    assert fs.eval_norm(fs.weighted_quadratic(4, 1), (1.0, 0.0)) == pytest.approx(2.0, abs=1e-14)
    assert fs.eval_norm(fs.lq_norm(4.0), (1.0, 1.0)) == pytest.approx(2.0 ** 0.25, abs=1e-14)
    assert fs.eval_norm(fs.euclidean(), (0.0, 0.0)) == 0.0


def test_grad_examples():
    g = fs.grad_norm(fs.euclidean(), (0.0, 2.0))
    assert np.allclose(g, [0.0, 1.0])
    g = fs.grad_norm(fs.weighted_quadratic(4, 1), (1.0, 0.0))
    assert np.allclose(g, [2.0, 0.0])
    g = fs.grad_norm(fs.lq_norm(2.0), (3.0, 4.0))
    assert np.allclose(g, [0.6, 0.8])


def test_grad_degenerate_input():
    with pytest.raises(ValueError):
        fs.grad_norm(fs.euclidean(), (0.0, 1e-15))


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(40, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.3]
    step = 1e-6
    for norm in ALL_NORMS.values():
        g = fs.grad_norm(norm, pts)
        for k, e in enumerate(np.eye(2)):
            fd = (fs.eval_norm(norm, pts + step * e) - fs.eval_norm(norm, pts - step * e)) / (2 * step)
            assert np.allclose(g[:, k], fd, rtol=1e-5, atol=1e-7)


def test_polar_examples():
    assert fs.polar_eval(fs.lq_norm(4.0), (1.0, 1.0)) == pytest.approx(2.0 ** 0.75, abs=1e-14)
    assert fs.polar_eval(fs.weighted_quadratic(4, 1), (2.0, 0.0)) == pytest.approx(1.0, abs=1e-14)
    assert fs.polar_eval(fs.euclidean(), (3.0, 4.0)) == pytest.approx(5.0, abs=1e-14)


def test_polar_matches_numeric_sup():
    theta = (np.arange(20000) + 0.5) * (2 * np.pi / 20000)
    xi = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    rng = np.random.default_rng(5)
    for norm in ALL_NORMS.values():
        f = fs.eval_norm(norm, xi)
        for x in np.vstack([[2.0, 0.0], rng.normal(size=(5, 2))]):
            sup = np.max(xi @ x / f)
            assert fs.polar_eval(norm, x) == pytest.approx(sup, rel=1e-5)


def test_homogeneity_exact():
    rng = np.random.default_rng(7)
    xi = rng.normal(size=(30, 2))
    for norm in ALL_NORMS.values():
        base = fs.eval_norm(norm, xi)
        for t in (-2.0, -1.0, 0.5, 3.0):
            assert np.allclose(fs.eval_norm(norm, t * xi), abs(t) * base, rtol=1e-13)


def test_grad_zero_homogeneous():
    rng = np.random.default_rng(8)
    xi = rng.normal(size=(20, 2)) + np.array([0.5, 0.5])
    for norm in ALL_NORMS.values():
        g = fs.grad_norm(norm, xi)
        for t in (0.5, 3.0):
            assert np.allclose(fs.grad_norm(norm, t * xi), g, rtol=1e-12)


def test_convexity_midpoint():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(60, 2))
    b = rng.normal(size=(60, 2))
    for norm in ALL_NORMS.values():
        lhs = fs.eval_norm(norm, 0.5 * (a + b))
        rhs = 0.5 * (fs.eval_norm(norm, a) + fs.eval_norm(norm, b))
        assert np.all(lhs <= rhs + 1e-12)


def test_cauchy_schwarz_bound():
    rng = np.random.default_rng(10)
    xi = rng.normal(size=(80, 2))
    eta = rng.normal(size=(80, 2))
    for norm in ALL_NORMS.values():
        lhs = np.abs(np.sum(xi * eta, axis=-1))
        rhs = fs.eval_norm(norm, xi) * fs.polar_eval(norm, eta)
        assert np.all(lhs <= rhs * (1 + 1e-12))


def test_bidual_identity():
    rng = np.random.default_rng(12)
    xi = rng.normal(size=(50, 2))
    for norm in ALL_NORMS.values():
        double = fs.polar(fs.polar(norm))
        assert np.allclose(fs.eval_norm(double, xi), fs.eval_norm(norm, xi), rtol=1e-10)


def test_linear_bounds_hold():
    rng = np.random.default_rng(13)
    xi = rng.normal(size=(200, 2))
    r = np.hypot(xi[:, 0], xi[:, 1])
    for norm in ALL_NORMS.values():
        a, b = linear_bounds(norm)
        f = fs.eval_norm(norm, xi)
        assert np.all(f >= a * r - 1e-12)
        assert np.all(f <= b * r + 1e-12)


def test_wulff_measure_values():
    assert fs.wulff_measure(fs.euclidean()) == pytest.approx(np.pi, abs=1e-6)
    assert fs.wulff_measure(fs.weighted_quadratic(4, 1)) == pytest.approx(2 * np.pi, abs=1e-5)
    assert fs.wulff_measure(fs.lq_norm(2.0)) == pytest.approx(np.pi, abs=1e-6)


def test_wulff_measure_against_grid_count():
    # independent oracle: indicator count on a centered grid, refined once
    for norm in ALL_NORMS.values():
        pol = fs.polar(norm)
        half = linear_bounds(norm)[1]
        ref = fs.wulff_measure(norm)
        for n in (256, 512):
            t = (np.arange(n) + 0.5) / n * 2 * half - half
            X, Y = np.meshgrid(t, t, indexing="ij")
            count = np.count_nonzero(fs.eval_norm(pol, np.stack([X, Y], axis=-1)) < 1.0)
            err = abs(count * (2 * half / n) ** 2 - ref)
            # counting error stays within a boundary-layer's worth of cells
            assert err < 20.0 * half ** 2 / n


def test_check_duality_thresholds():
    assert fs.check_duality(fs.euclidean(), 100).max_residual <= 1e-10
    assert fs.check_duality(fs.weighted_quadratic(4, 1), 100).max_residual <= 1e-8
    assert fs.check_duality(fs.lq_norm(3.0), 100).max_residual <= 1e-8


def test_check_duality_validates_count():
    with pytest.raises(ValueError):
        fs.check_duality(fs.euclidean(), 0)


def test_norm_spec_validation_and_serialization():
    from finsler_spectra.norms import norm_from_dict

    with pytest.raises(ValueError):
        fs.weighted_quadratic(-1.0, 1.0)
    with pytest.raises(ValueError):
        fs.lq_norm(1.0)
    with pytest.raises(ValueError):
        fs.NormSpec("bogus")
    for norm in ALL_NORMS.values():
        assert norm_from_dict(norm.to_dict()) == norm


def test_squared_with_halfgrad_consistency():
    rng = np.random.default_rng(14)
    g = rng.normal(size=(50, 2))
    g[0] = 0.0  # origin must give zeros, not nan
    for norm in ALL_NORMS.values():
        f2, hx, hy = squared_with_halfgrad(norm, g[:, 0], g[:, 1])
        assert np.allclose(f2, fs.eval_norm(norm, g) ** 2, rtol=1e-12)
        assert np.allclose(f2, eval_norm_sq(norm, g), rtol=1e-12)
        nz = f2 > 0
        grad = fs.grad_norm(norm, g[nz])
        f = np.sqrt(f2[nz])
        assert np.allclose(hx[nz], f * grad[:, 0], rtol=1e-10)
        assert np.allclose(hy[nz], f * grad[:, 1], rtol=1e-10)
        assert hx[0] == 0.0 and hy[0] == 0.0


@pytest.mark.parametrize("norm, ball_q, stretch", [
    (fs.lq_norm(1.5), 3.0, 1.0), (fs.lq_norm(3.0), 1.5, 1.0), (fs.lq_norm(5.5), 5.5 / 4.5, 1.0),
    (fs.weighted_quadratic(0.3, 2.5), 2.0, np.sqrt(0.3 * 2.5)),
])
def test_wulff_measure_closed_form(norm, ball_q, stretch):
    # the unit l_r ball has area (2/r) B(1/r, 1/r); the Wulff shape is that
    # ball of the polar exponent, stretched by sqrt(w1 w2)
    from scipy.special import beta

    ball = (2.0 / ball_q) * beta(1.0 / ball_q, 1.0 / ball_q)
    assert fs.wulff_measure(norm) == pytest.approx(stretch * ball, rel=1e-14)


_NORMS = st.one_of(
    st.builds(fs.weighted_quadratic, st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
    st.builds(fs.lq_norm, st.floats(1.2, 8.0)),
)
# components are 0 or at least 1e-2 in size: central differences of l_q
# norms with q < 2 lose accuracy within a few steps of an axis
_SIZES = st.one_of(st.just(0.0), st.floats(1e-2, 10.0), st.floats(-10.0, -1e-2))
_VECS = st.tuples(_SIZES, _SIZES).filter(lambda v: v != (0.0, 0.0))


@given(norm=_NORMS, a=_VECS, b=_VECS, t=_SIZES)
@settings(max_examples=80, deadline=None)
def test_norm_properties(norm, a, b, t):
    a, b = np.array(a), np.array(b)
    fa = fs.eval_norm(norm, a)
    assert fs.check_duality(norm, 20).max_residual <= 1e-12
    assert fs.eval_norm(norm, t * a) == pytest.approx(abs(t) * fa, rel=1e-13, abs=1e-300)
    assert fs.eval_norm(norm, 0.5 * (a + b)) <= 0.5 * (fa + fs.eval_norm(norm, b)) * (1 + 1e-12)
    step = 1e-6 * np.hypot(*a)
    fd = [(fs.eval_norm(norm, a + step * e) - fs.eval_norm(norm, a - step * e)) / (2 * step)
          for e in np.eye(2)]
    assert np.allclose(fs.grad_norm(norm, a), fd, rtol=1e-5, atol=1e-7 * fa / np.hypot(*a))
    assert fs.eval_norm(fs.polar(fs.polar(norm)), a) == pytest.approx(fa, rel=1e-12)
    f2, hx, hy = squared_with_halfgrad(norm, a[:1], a[1:])
    assert f2[0] == pytest.approx(fa ** 2, rel=1e-12)
    assert [hx[0], hy[0]] == pytest.approx(fa * fs.grad_norm(norm, a), rel=1e-12, abs=1e-14 * fa)


@pytest.mark.parametrize("d", [
    {"family": "euclidean"},
    {"family": "weighted_quadratic", "a1": 4.0, "a2": 1.0},
    {"family": "lq", "q": 3.0},
    {"family": "lq", "q": 4.0},
])
def test_norm_spellings_round_trip(d):
    assert norm_from_dict(d).to_dict() == d


@pytest.mark.parametrize("make, field", [
    (lambda: fs.weighted_quadratic(float("nan"), 1.0), "a1"),
    (lambda: fs.weighted_quadratic(1.0, float("inf")), "a2"),
    (lambda: fs.NormSpec(2.0, 1.0, 3.0), "weights"),
    (lambda: norm_from_dict({"family": "lq"}), "'q'"),
    (lambda: norm_from_dict({"family": "weighted_quadratic", "a1": 4.0}), "'a2'"),
    (lambda: norm_from_dict({"family": "euclidean", "q": 3}), "'q'"),
    (lambda: norm_from_dict({"family": "lq", "q": 3.0, "a1": 2.0}), "'a1'"),
    (lambda: norm_from_dict({"family": "lq", "q": float("nan")}), "q"),
    (lambda: norm_from_dict({"family": "taxicab"}), "unknown norm family 'taxicab'"),
])
def test_bad_norm_input_is_rejected(make, field):
    with pytest.raises(ValueError, match=field):
        make()


@pytest.mark.parametrize("p", [1.5, 3.0, 32.0])
@pytest.mark.parametrize("family", sorted(ALL_NORMS))
def test_power_hessian_matches_finite_differences(family, p):
    # central differences of grad F^p = p F^(p-2) (F dF), one component at a time,
    # on gradients with exactly zero components
    norm = ALL_NORMS[family]
    rng = np.random.default_rng(int(p * 10))
    x, y = rng.standard_normal(60), rng.standard_normal(60)
    x[:10] = 0.0
    y[10:20] = 0.0

    def grad(gx, gy):
        f2, hx, hy = squared_with_halfgrad(norm, gx, gy)
        w = p * f2 ** (0.5 * p - 1.0)
        return np.stack([w * hx, w * hy])

    kxx, kxy, kyy = power_hessian(norm, p, x, y)
    step = 1e-6 * np.hypot(x, y)
    dx = (grad(x + step, y) - grad(x - step, y)) / (2.0 * step)
    dy = (grad(x, y + step) - grad(x, y - step)) / (2.0 * step)
    scale = np.abs(kxx) + np.abs(kyy)
    for got, want in ((kxx, dx[0]), (kxy, dx[1]), (kxy, dy[0]), (kyy, dy[1])):
        assert np.max(np.abs(got - want) / scale) <= 1e-5
