import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finsler_spectra as fs
from finsler_spectra.distance import (
    distance_transform,
    eikonal_bulk_fraction,
    inradius,
    sup_rayleigh,
    two_wulff_radius,
)
from finsler_spectra.fem import ScalarField

from conftest import (
    ALL_NORMS,
    brute_force_distance,
    brute_force_eikonal_fraction,
    brute_force_sup_rayleigh,
    brute_force_two_wulff,
    offset_lshape_spec,
    rect21_spec,
    two_disk_spec,
    unit_square_spec,
)


@pytest.fixture(scope="module")
def square_field_64():
    grid = fs.rasterize(unit_square_spec(), 1.0 / 64)
    return distance_transform(grid, fs.euclidean())


def test_square_distance_values(square_field_64):
    df = square_field_64
    grid = df.grid
    h = grid.h
    rho, argmax = inradius(df)
    assert rho == pytest.approx(0.5, abs=h)
    center = grid.node_points(np.asarray(argmax))
    assert np.allclose(center, [0.5, 0.5], atol=2 * h)
    # a node next to a corner sits one cell from the ring
    xs = grid.node_xs()
    i = int(np.argmin(np.abs(xs - h)))
    j = int(np.argmin(np.abs(grid.node_ys() - h)))
    assert grid.mask[i, j]
    assert df.d[i, j] == pytest.approx(h, abs=1e-12)


def test_anisotropic_distance_against_refined_grid():
    norm = fs.weighted_quadratic(4, 1)
    vals = {}
    for h in (1 / 32, 1 / 64):
        grid = fs.rasterize(unit_square_spec(), h)
        df = distance_transform(grid, norm)
        xs, ys = grid.node_xs(), grid.node_ys()
        i = int(np.argmin(np.abs(xs - 0.5)))
        j = int(np.argmin(np.abs(ys - 0.5)))
        vals[h] = df.d[i, j]
    # F_polar = sqrt(x^2/4 + y^2): vertical walls are polar-closer (0.25)
    assert vals[1 / 64] == pytest.approx(0.25, abs=2 / 64)
    assert abs(vals[1 / 32] - vals[1 / 64]) <= 2 / 32


def test_wulff_shape_inradius_is_its_radius():
    norm = fs.weighted_quadratic(4, 1)
    r = 0.8
    grid = fs.rasterize(fs.shape(fs.wulff((0.0, 0.0), r, norm)), 1.0 / 48)
    df = distance_transform(grid, norm)
    rho, argmax = inradius(df)
    assert rho == pytest.approx(r, abs=2 / 48)
    assert np.allclose(grid.node_points(np.asarray(argmax)), [0.0, 0.0], atol=3 / 48)


def test_inradius_trivia():
    h = 1.0 / 64
    rho_rect, _ = inradius(distance_transform(fs.rasterize(rect21_spec(), h), fs.euclidean()))
    assert rho_rect == pytest.approx(0.5, abs=h)
    g2 = fs.rasterize(two_disk_spec(1.0, 0.5, 3.0), 1.0 / 32)
    rho2c, _ = inradius(distance_transform(g2, fs.euclidean()))
    assert rho2c == pytest.approx(1.0, abs=1 / 32)


def test_distance_dominated_by_boundary_distance(square_field_64):
    df = square_field_64
    grid = df.grid
    bpts = grid.node_points(grid.boundary_node_indices())
    nodes = np.argwhere(grid.mask)[:: 97]
    pts = grid.node_points(nodes)
    d = df.d[nodes[:, 0], nodes[:, 1]]
    for k in range(len(pts)):
        dist = fs.eval_norm(fs.euclidean(), bpts - pts[k])
        assert np.all(d[k] <= dist + 1e-12)


def test_distance_is_polar_lipschitz(square_field_64):
    df = square_field_64
    grid = df.grid
    nodes = np.argwhere(grid.mask)[:: 53]
    pts = grid.node_points(nodes)
    d = df.d[nodes[:, 0], nodes[:, 1]]
    for k in range(len(pts)):
        dist = fs.eval_norm(fs.euclidean(), pts - pts[k])
        assert np.all(np.abs(d - d[k]) <= dist + 1e-12)


def test_two_wulff_radius_far_disks():
    grid = fs.rasterize(two_disk_spec(1.0, 1.0, 5.0), 1.0 / 32)
    df = distance_transform(grid, fs.euclidean())
    pack = two_wulff_radius(df, fs.euclidean())
    assert pack.rho2 == pytest.approx(1.0, abs=2 / 32)
    c1 = grid.node_points(np.asarray(pack.centers[0]))
    c2 = grid.node_points(np.asarray(pack.centers[1]))
    assert abs(c1[0] - c2[0]) > 3.0


def test_two_wulff_radius_square_against_brute_force():
    h = 1.0 / 16
    grid = fs.rasterize(unit_square_spec(), h)
    df = distance_transform(grid, fs.euclidean())
    pack = two_wulff_radius(df, fs.euclidean())
    oracle = brute_force_two_wulff(grid, fs.euclidean(), df.d)
    assert pack.rho2 == pytest.approx(oracle, abs=1e-12)
    assert pack.rho2 == pytest.approx(1.0 / (2.0 + np.sqrt(2.0)), abs=2 * h)


def test_two_wulff_radius_rect_against_brute_force():
    h = 1.0 / 16
    grid = fs.rasterize(rect21_spec(), h)
    df = distance_transform(grid, fs.euclidean())
    pack = two_wulff_radius(df, fs.euclidean())
    oracle = brute_force_two_wulff(grid, fs.euclidean(), df.d)
    assert pack.rho2 == pytest.approx(oracle, abs=1e-12)
    assert pack.rho2 == pytest.approx(0.5, abs=2 * h)


def test_two_wulff_anisotropic_against_brute_force():
    h = 1.0 / 16
    norm = fs.lq_norm(3.0)
    grid = fs.rasterize(unit_square_spec(), h)
    df = distance_transform(grid, norm)
    pack = two_wulff_radius(df, norm)
    oracle = brute_force_two_wulff(grid, norm, df.d)
    assert pack.rho2 == pytest.approx(oracle, abs=1e-12)


def test_packing_invariants(square_field_64):
    df = square_field_64
    norm = fs.euclidean()
    pack = two_wulff_radius(df, norm)
    rho, _ = inradius(df)
    assert pack.rho2 <= rho + 1e-12
    d1 = df.d[pack.centers[0]]
    d2 = df.d[pack.centers[1]]
    c1 = df.grid.node_points(np.asarray(pack.centers[0]))
    c2 = df.grid.node_points(np.asarray(pack.centers[1]))
    sep = fs.polar_eval(norm, c1 - c2)
    assert d1 >= pack.rho2 - 1e-12
    assert d2 >= pack.rho2 - 1e-12
    assert sep >= 2 * pack.rho2 - 1e-12


def test_sup_rayleigh_identity_and_scale(square_field_64):
    df = square_field_64
    tri = fs.triangulate(df.grid)
    phi = df.as_field(tri)
    rho, _ = inradius(df)
    val = sup_rayleigh(phi, fs.euclidean())
    assert val * rho == pytest.approx(1.0, abs=0.05)
    double = ScalarField(tri, 2.0 * phi.values)
    assert sup_rayleigh(double, fs.euclidean()) == pytest.approx(val, rel=1e-12)


def test_sup_rayleigh_minimality(square_field_64):
    df = square_field_64
    tri = fs.triangulate(df.grid)
    rho, _ = inradius(df)
    rng = np.random.default_rng(21)
    for _ in range(4):
        u = ScalarField(tri, rng.normal(size=tri.ndof))
        assert sup_rayleigh(u, fs.euclidean()) >= 1.0 / rho - 0.05


def test_sup_rayleigh_zero_field(square_field_64):
    tri = fs.triangulate(square_field_64.grid)
    with pytest.raises(ValueError):
        sup_rayleigh(ScalarField(tri, np.zeros(tri.ndof)), fs.euclidean())


def test_eikonal_bulk(square_field_64):
    tri = fs.triangulate(square_field_64.grid)
    frac = eikonal_bulk_fraction(square_field_64, fs.euclidean(), tri)
    assert frac >= 0.95
    norm = fs.weighted_quadratic(4, 1)
    dfa = distance_transform(square_field_64.grid, norm)
    assert eikonal_bulk_fraction(dfa, norm, tri) >= 0.95


def test_distance_scaling_matched_grids():
    spec = fs.shape(fs.euclidean_disk((0.25, 0.0), 0.8))
    norm = fs.lq_norm(3.0)
    g1 = fs.rasterize(spec, 1.0 / 32)
    g2 = fs.rasterize(fs.scale_domain(spec, 2.0), 2.0 / 32)
    d1 = distance_transform(g1, norm)
    d2 = distance_transform(g2, norm)
    assert np.allclose(d2.d[g2.mask], 2.0 * d1.d[g1.mask], rtol=1e-9)
    assert d2.rho_f == pytest.approx(2.0 * d1.rho_f, rel=1e-9)
    assert two_wulff_radius(d2, norm).rho2 == pytest.approx(
        2.0 * two_wulff_radius(d1, norm).rho2, rel=1e-9)


def test_distance_monotone_under_inclusion():
    h = 1.0 / 32
    small = fs.rasterize(fs.shape(fs.rectangle(0.25, 0.25, 0.75, 0.75)), h)
    big = fs.rasterize(unit_square_spec(), h)
    ds = distance_transform(small, fs.euclidean())
    db = distance_transform(big, fs.euclidean())
    assert ds.rho_f <= db.rho_f + 1e-12
    assert two_wulff_radius(ds, fs.euclidean()).rho2 <= \
        two_wulff_radius(db, fs.euclidean()).rho2 + 1e-12


def test_hks_at_infinity():
    # rho2 of any set is at most rho2 of two equal-measure Wulff shapes
    from finsler_spectra.experiments import two_wulff_union_spec
    h = 1.0 / 32
    norm = fs.euclidean()
    grid = fs.rasterize(unit_square_spec(), h)
    df = distance_transform(grid, norm)
    rho2 = two_wulff_radius(df, norm).rho2
    radius = float(np.sqrt(0.5 * fs.measure(grid) / fs.wulff_measure(norm)))
    ref = fs.rasterize(two_wulff_union_spec(norm, radius), h)
    ref_rho2 = two_wulff_radius(distance_transform(ref, norm), norm).rho2
    assert rho2 <= ref_rho2 + 2 * h


def test_two_wulff_needs_two_nodes():
    grid = fs.rasterize(fs.shape(fs.euclidean_disk((0, 0), 0.6)), 0.5)
    assert grid.interior_count == 1
    df = distance_transform(grid, fs.euclidean())
    with pytest.raises(ValueError):
        two_wulff_radius(df, fs.euclidean())


EXACT_DOMAINS = {
    "offset_lshape": (offset_lshape_spec, 1.0 / 32),
    "two_disks": (two_disk_spec, 1.0 / 16),
}


@pytest.fixture(scope="module", params=sorted(EXACT_DOMAINS))
def exact_grid(request):
    spec_fn, h = EXACT_DOMAINS[request.param]
    grid = fs.rasterize(spec_fn(), h)
    return grid, fs.triangulate(grid)


def assert_exact(grid, tri, norm):
    df = distance_transform(grid, norm)
    ref = brute_force_distance(grid, norm)
    assert np.array_equal(df.d, ref)
    k = int(np.argmax(ref[grid.mask]))
    assert df.rho_f == ref[grid.mask][k]
    assert df.argmax_node == tuple(int(c) for c in np.argwhere(grid.mask)[k])
    for spread in (1.0, 2.0, 3.0):
        assert (eikonal_bulk_fraction(df, norm, tri, ridge_spread=spread)
                == brute_force_eikonal_fraction(df, norm, tri, ridge_spread=spread))
    phi = df.as_field(tri)
    assert sup_rayleigh(phi, norm) == brute_force_sup_rayleigh(phi, norm)
    # an off-lattice cone: its steepest quotients sit on long chords along
    # its rays, beyond the short seed pairs
    apex = grid.node_points(np.asarray(df.argmax_node)) + np.array([0.31, 0.17]) * grid.h
    r = np.hypot(*(grid.node_points(np.argwhere(grid.mask)) - apex).T)
    cone = ScalarField(tri, np.maximum(0.8 * df.rho_f - r, 0.0))
    assert sup_rayleigh(cone, norm) == brute_force_sup_rayleigh(cone, norm)
    return df


@pytest.mark.parametrize("nname", sorted(ALL_NORMS))
def test_kd_tree_kernels_equal_all_pairs(exact_grid, nname):
    grid, tri = exact_grid
    norm = ALL_NORMS[nname]
    df = assert_exact(grid, tri, norm)
    rng = np.random.default_rng(7)
    for _ in range(2):
        u = ScalarField(tri, rng.normal(size=tri.ndof))
        assert sup_rayleigh(u, norm) == brute_force_sup_rayleigh(u, norm)
    # fields that vanish on a band along the boundary: no seed pair that
    # touches the ring carries a nonzero quotient
    d = df.interior_values()
    for vals in (np.maximum(d - 0.4 * df.rho_f, 0.0) * rng.uniform(0.5, 1.5, tri.ndof),
                 -(d > 0.6 * df.rho_f).astype(float)):
        u = ScalarField(tri, vals)
        assert sup_rayleigh(u, norm) == brute_force_sup_rayleigh(u, norm)


@settings(max_examples=12, deadline=None)
@given(q=st.floats(1.2, 6.0), dx=st.floats(0.0, 1.0), dy=st.floats(0.0, 1.0))
def test_kd_tree_kernels_equal_all_pairs_random_lq(q, dx, dy):
    h = 1.0 / 16
    grid = fs.rasterize(offset_lshape_spec(dx * h, dy * h), h)
    assert_exact(grid, fs.triangulate(grid), fs.lq_norm(q))


def test_distance_kernels_log_pairs_examined(caplog):
    grid = fs.rasterize(offset_lshape_spec(), 1.0 / 16)
    tri = fs.triangulate(grid)
    with caplog.at_level(logging.DEBUG, logger="finsler_spectra.distance"):
        df = distance_transform(grid, fs.euclidean())
        eikonal_bulk_fraction(df, fs.euclidean(), tri)
        sup_rayleigh(df.as_field(tri), fs.euclidean())
    lines = [r.getMessage() for r in caplog.records]
    assert [m.split(":")[0] for m in lines] == [
        "distance_transform", "eikonal_bulk_fraction", "sup_rayleigh"]
    n = grid.interior_count + len(grid.boundary_node_indices())
    assert all("pairs=" in m for m in lines)
    assert f"all_pairs={n * n}" in lines[2]
