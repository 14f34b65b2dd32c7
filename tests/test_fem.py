import numpy as np
import pytest

import finsler_spectra as fs
from finsler_spectra.fem import (ScalarField, energy_from_terms, energy_terms, gradient_from_terms,
                                 mass_gradient, mass_p)

from conftest import ALL_NORMS, same_bits, unit_square_spec


@pytest.fixture(scope="module")
def tri16():
    return fs.triangulate(fs.rasterize(unit_square_spec(), 1.0 / 16))


def interior_triangle_mask(tri):
    """Triangles whose cell has all four corners inside the mask."""
    mask = tri.grid.mask
    ci, cj = tri.cell_ij[:, 0], tri.cell_ij[:, 1]
    full = mask[ci, cj] & mask[ci + 1, cj] & mask[ci + 1, cj + 1] & mask[ci, cj + 1]
    return np.concatenate([full, full])


def test_linear_field_has_unit_gradient(tri16):
    u = ScalarField.from_function(tri16, lambda x, y: x)
    g = fs.triangle_gradients(u)
    inner = interior_triangle_mask(tri16)
    assert np.allclose(g[inner, 0], 1.0, atol=1e-12)
    assert np.allclose(g[inner, 1], 0.0, atol=1e-12)


def test_constant_field_gradient_vanishes_inside(tri16):
    u = ScalarField(tri16, np.full(tri16.ndof, 3.7))
    g = fs.triangle_gradients(u)
    inner = interior_triangle_mask(tri16)
    assert np.allclose(g[inner], 0.0, atol=1e-12)
    # boundary cells see the drop to zero
    assert np.abs(g[~inner]).max() > 1.0


def test_triangle_gradients_match_manual_differences(tri16):
    rng = np.random.default_rng(0)
    u = ScalarField(tri16, rng.normal(size=tri16.ndof))
    g = fs.triangle_gradients(u)
    h = tri16.h
    arr = u.as_grid_array()
    # manual recomputation for the first lower/upper triangle pair
    ncell = tri16.cell_ij.shape[0]
    for cell in (0, ncell // 2, ncell - 1):
        i, j = tri16.cell_ij[cell]
        a, b = arr[i, j], arr[i + 1, j]
        c, d = arr[i + 1, j + 1], arr[i, j + 1]
        assert g[cell, 0] == pytest.approx((b - a) / h, rel=1e-12, abs=1e-12)
        assert g[cell, 1] == pytest.approx((c - b) / h, rel=1e-12, abs=1e-12)
        assert g[ncell + cell, 0] == pytest.approx((c - d) / h, rel=1e-12, abs=1e-12)
        assert g[ncell + cell, 1] == pytest.approx((d - a) / h, rel=1e-12, abs=1e-12)


def test_energy_zero_field(tri16):
    u = ScalarField(tri16, np.zeros(tri16.ndof))
    assert fs.energy_p(u, fs.euclidean(), 2.0) == 0.0


def test_energy_of_linear_field_is_domain_area(tri16):
    u = ScalarField.from_function(tri16, lambda x, y: x)
    g = fs.triangle_gradients(u)
    inner = interior_triangle_mask(tri16)
    e_inner = tri16.area * np.sum(fs.eval_norm(fs.euclidean(), g[inner]) ** 2)
    assert e_inner == pytest.approx(fs.measure(tri16.grid), rel=0.15)


def test_energy_homogeneity(tri16):
    rng = np.random.default_rng(1)
    u = ScalarField(tri16, rng.normal(size=tri16.ndof))
    for norm in ALL_NORMS.values():
        for p in (1.5, 2.0, 3.0):
            e = fs.energy_p(u, norm, p)
            u2 = ScalarField(tri16, 2.5 * u.values)
            assert fs.energy_p(u2, norm, p) == pytest.approx(2.5 ** p * e, rel=1e-11)


def test_energy_convex_midpoint(tri16):
    rng = np.random.default_rng(2)
    for norm in ALL_NORMS.values():
        for p in (1.5, 3.0):
            for _ in range(5):
                a = ScalarField(tri16, rng.normal(size=tri16.ndof))
                b = ScalarField(tri16, rng.normal(size=tri16.ndof))
                mid = ScalarField(tri16, 0.5 * (a.values + b.values))
                lhs = fs.energy_p(mid, norm, p)
                rhs = 0.5 * (fs.energy_p(a, norm, p) + fs.energy_p(b, norm, p))
                assert lhs <= rhs + 1e-10 * max(1.0, rhs)


@pytest.mark.parametrize("family", sorted(ALL_NORMS))
@pytest.mark.parametrize("p,eps", [(3.0, 0.0), (1.5, 1e-2), (2.5, 1e-4)])
def test_energy_gradient_matches_finite_differences(family, p, eps):
    """gradient_from_terms is the derivative of energy_from_terms, here of
    sum (F^2 + eps^2)^(p/2) over the triangles; eps = 0 is energy_p itself."""
    norm = ALL_NORMS[family]
    tri = fs.triangulate(fs.rasterize(unit_square_spec(), 1.0 / 8))
    rng = np.random.default_rng(3)
    u = ScalarField(tri, rng.normal(size=tri.ndof))

    def terms(values):
        f2, hx, hy = energy_terms(tri.gradient_components(values), norm)
        return f2 + eps * eps, hx, hy

    g = gradient_from_terms(tri, terms(u.values), p)
    if eps == 0.0:   # the public energy_gradient and energy_p are these kernels
        assert same_bits(g, fs.energy_gradient(u, norm, p).values)
        assert energy_from_terms(tri, terms(u.values), p) == fs.energy_p(u, norm, p)
    step = 1e-6
    for k in range(0, tri.ndof, 7):
        vp = u.values.copy(); vp[k] += step
        vm = u.values.copy(); vm[k] -= step
        fd = (energy_from_terms(tri, terms(vp), p) - energy_from_terms(tri, terms(vm), p)) / (2 * step)
        assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_energy_gradient_zero_at_zero(tri16):
    u = ScalarField(tri16, np.zeros(tri16.ndof))
    g = fs.energy_gradient(u, fs.lq_norm(3.0), 2.5).values
    assert np.allclose(g, 0.0)


def test_directional_derivative_equals_weak_form(tri16):
    # independent assembly of the weak form through grad_norm
    rng = np.random.default_rng(4)
    u = ScalarField(tri16, rng.normal(size=tri16.ndof) + 2.0)
    for family, norm in sorted(ALL_NORMS.items()):
        p = 3.0
        gu = fs.triangle_gradients(u)
        nz = fs.eval_norm(norm, gu) > 1e-12
        phi = ScalarField(tri16, rng.normal(size=tri16.ndof))
        gphi = fs.triangle_gradients(phi)
        f = fs.eval_norm(norm, gu[nz])
        df = fs.grad_norm(norm, gu[nz])
        weak = tri16.area * np.sum(f ** (p - 1) * np.sum(df * gphi[nz], axis=-1))
        pairing = float(fs.energy_gradient(u, norm, p).values @ phi.values)
        # energy_p carries no 1/p factor, so its derivative is p times the weak form
        assert pairing == pytest.approx(p * weak, rel=1e-10)


def test_mass_examples(tri16):
    u = ScalarField(tri16, np.ones(tri16.ndof))
    assert mass_p(u, 2.0) == pytest.approx(tri16.ndof * tri16.h ** 2, rel=1e-12)
    rng = np.random.default_rng(5)
    v = ScalarField(tri16, rng.normal(size=tri16.ndof))
    for p in (1.5, 2.5):
        assert mass_p(ScalarField(tri16, 3 * v.values), p) == pytest.approx(
            3 ** p * mass_p(v, p), rel=1e-11)


def test_mass_gradient_matches_finite_differences():
    tri = fs.triangulate(fs.rasterize(unit_square_spec(), 1.0 / 8))
    rng = np.random.default_rng(6)
    u = ScalarField(tri, rng.normal(size=tri.ndof))
    g = mass_gradient(u, 2.5).values
    step = 1e-6
    for k in range(0, tri.ndof, 5):
        vp = u.values.copy(); vp[k] += step
        vm = u.values.copy(); vm[k] -= step
        fd = (mass_p(ScalarField(tri, vp), 2.5) - mass_p(ScalarField(tri, vm), 2.5)) / (2 * step)
        assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_rayleigh_zero_homogeneous(tri16):
    rng = np.random.default_rng(7)
    u = ScalarField(tri16, rng.normal(size=tri16.ndof))
    r = fs.rayleigh_quotient(u, fs.lq_norm(3.0), 2.5)
    u2 = ScalarField(tri16, -4.0 * u.values)
    assert fs.rayleigh_quotient(u2, fs.lq_norm(3.0), 2.5) == pytest.approx(r, rel=1e-11)


def test_mesh_consistency_rate():
    errs = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        g = fs.rasterize(unit_square_spec(), h)
        r = fs.solve_linear_p2(g, fs.euclidean(), 1)
        errs.append(abs(r.lam - 2 * np.pi ** 2))
    # O(h^2): each refinement should cut the error by roughly 4
    assert errs[1] < errs[0] / 2.5
    assert errs[2] < errs[1] / 2.5


def test_anisotropy_consistency(tri16):
    rng = np.random.default_rng(8)
    u = ScalarField(tri16, rng.normal(size=tri16.ndof))
    a1, a2 = 4.0, 1.0
    g = fs.triangle_gradients(u)
    quad = tri16.area * np.sum(a1 * g[:, 0] ** 2 + a2 * g[:, 1] ** 2)
    assert fs.energy_p(u, fs.weighted_quadratic(a1, a2), 2.0) == pytest.approx(quad, rel=1e-12)


def test_field_shape_validation(tri16):
    with pytest.raises(ValueError):
        ScalarField(tri16, np.zeros(tri16.ndof + 1))
    with pytest.raises(ValueError):
        fs.energy_p(ScalarField(tri16, np.zeros(tri16.ndof)), fs.euclidean(), 1.0)
