import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import finsler_spectra as fs
from finsler_spectra import distance
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


@pytest.mark.parametrize("spec", [unit_square_spec, rect21_spec, offset_lshape_spec],
                         ids=["square", "rect21", "offset_lshape"])
@pytest.mark.parametrize("norm", [fs.euclidean(), fs.lq_norm(3.0)], ids=["euclidean", "lq3"])
def test_two_wulff_takes_each_level_diameter_once(spec, norm, monkeypatch):
    grid = fs.rasterize(spec(), 1.0 / 16)
    df = distance_transform(grid, norm)
    sizes = []
    polar_diameter = distance._polar_diameter

    def counted_polar_diameter(pol, pts):
        sizes.append(len(pts))
        return polar_diameter(pol, pts)

    monkeypatch.setattr(distance, "_polar_diameter", counted_polar_diameter)
    pack = two_wulff_radius(df, norm)
    # distinct levels give nested super-level sets of distinct sizes
    assert sizes and len(sizes) == len(set(sizes))
    assert pack.rho2 == brute_force_two_wulff(grid, norm, df.d)


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
    h = 1.0 / 32
    norm = fs.euclidean()
    grid = fs.rasterize(unit_square_spec(), h)
    df = distance_transform(grid, norm)
    rho2 = two_wulff_radius(df, norm).rho2
    radius = float(np.sqrt(0.5 * fs.measure(grid) / fs.wulff_measure(norm)))
    # two disjoint Wulff shapes on the x-axis, centers three radii apart
    ref = fs.rasterize(fs.shape(fs.wulff((0.0, 0.0), radius, norm),
                                fs.wulff((3.0 * radius, 0.0), radius, norm)), h)
    ref_rho2 = two_wulff_radius(distance_transform(ref, norm), norm).rho2
    assert rho2 <= ref_rho2 + 2 * h


def collinear_strip():
    """A one-row strip of 639 nodes, all on one line."""
    h = 1.0 / 64
    return fs.rasterize(fs.shape(fs.rectangle(0.0, -h, 10.0, h)), h)


@pytest.mark.parametrize("norm", [fs.euclidean(), fs.lq_norm(3.0)], ids=["euclidean", "lq3"])
def test_packing_on_collinear_nodes_takes_all_pairs(norm):
    from scipy.spatial import ConvexHull, QhullError

    grid = collinear_strip()
    h = grid.h
    pts = grid.node_points(np.argwhere(grid.mask))
    assert len(pts) == 639
    with pytest.raises(QhullError):
        ConvexHull(pts)
    diam, (i, j) = distance._polar_diameter(fs.polar(norm), pts)
    assert diam == pytest.approx(638 * h, rel=1e-12) and {i, j} == {0, 638}
    df = distance_transform(grid, norm)
    assert two_wulff_radius(df, norm).rho2 == brute_force_two_wulff(grid, norm, df.d)


def test_collinear_diameter_scores_only_the_two_end_nodes(monkeypatch):
    grid = collinear_strip()
    pts = grid.node_points(np.argwhere(grid.mask))
    scored = []

    def counting_eval_norm(spec, x):
        scored.append(np.asarray(x).size // 2)
        return fs.eval_norm(spec, x)

    monkeypatch.setattr(distance, "eval_norm", counting_eval_norm)
    diam, (i, j) = distance._polar_diameter(fs.polar(fs.euclidean()), pts)
    assert (i, j) == (0, 638) and diam == pytest.approx(638 * grid.h, rel=1e-12)
    assert sum(scored) <= 4


def test_two_wulff_tie_between_the_last_two_levels_goes_to_the_lower():
    # three strip nodes one unit apart with d = 0.5, 1, 1 and 0.25 elsewhere:
    # {d >= 0.5} gives min(0.5, 2 / 2), the infeasible {d >= 1} gives min(1, 1 / 2)
    grid = collinear_strip()
    nodes = np.argwhere(grid.mask)
    d = np.where(grid.mask, 0.25, 0.0)
    for k, val in ((0, 0.5), (64, 1.0), (128, 1.0)):
        d[tuple(nodes[k])] = val
    pack = two_wulff_radius(distance.DistanceField(grid, d, 1.0, tuple(nodes[64])), fs.euclidean())
    assert pack.rho2 == 0.5
    assert pack.centers == (tuple(nodes[0]), tuple(nodes[128]))


@pytest.fixture(scope="module")
def disk_field_32():
    grid = fs.rasterize(fs.shape(fs.euclidean_disk((0.0, 0.0), 1.0)), 1.0 / 32)
    return distance_transform(grid, fs.euclidean())


def test_polar_diameter_takes_the_first_maximal_pair_in_node_order(disk_field_32):
    # the disk's diameter is attained by several node pairs: the first in
    # row-major order of the all-pairs matrix wins, whatever Qhull's vertex order
    grid = disk_field_32.grid
    pol = fs.polar(fs.euclidean())
    pts = grid.node_points(np.argwhere(grid.mask))
    assert len(pts) == 3125
    row_max = np.array([fs.eval_norm(pol, x - pts).max() for x in pts])
    i = int(np.argmax(row_max))
    j = int(np.argmax(fs.eval_norm(pol, pts[i] - pts)))
    assert distance._polar_diameter(pol, pts) == (row_max[i], (i, j)) == (row_max[i], (0, 3124))


def test_two_wulff_centers_break_ties_by_node_order(disk_field_32):
    grid = disk_field_32.grid
    pack = two_wulff_radius(disk_field_32, fs.euclidean())
    assert pack.centers == ((18, 34), (50, 34))
    assert pack.rho2 == brute_force_two_wulff(grid, fs.euclidean(), disk_field_32.d)


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
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distance, "_RIDGE_SPREAD", spread)
            assert (eikonal_bulk_fraction(df, norm, tri)
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
    d = df.d[grid.mask]
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


# lq(1.5) has q' = 3 > 2, where the Euclidean tree radius widens by 1/a > 1
BLOCK_NORMS = dict(ALL_NORMS, lq_polar_3=fs.lq_norm(1.5))


@pytest.mark.parametrize("nname", sorted(BLOCK_NORMS))
def test_kd_tree_kernels_equal_all_pairs_in_blocks(exact_grid, nname, monkeypatch):
    # 7 divides neither interior node count, so the transform's queries end on a partial block
    monkeypatch.setattr(distance, "_BLOCK", 7)
    grid, tri = exact_grid
    assert_exact(grid, tri, BLOCK_NORMS[nname])


def test_ball_pairs_equal_brute_force_in_blocks(monkeypatch):
    # lattice points, so many pairs lie exactly at their row's radius (3-4-5 among
    # them), and radius 0 keeps only a coincident tree point
    monkeypatch.setattr(distance, "_BLOCK", 7)
    rng = np.random.default_rng(3)
    tree_pts = rng.integers(0, 9, size=(60, 2)).astype(float)
    pts = np.concatenate([rng.integers(0, 9, size=(40, 2)), tree_pts[:5]]).astype(float)
    radius = rng.choice([0.0, 1.0, 2.0, 2.5, 5.0], size=len(pts))
    radius[-5:] = 0.0
    dist = np.sqrt(((pts[:, None, :] - tree_pts[None, :, :]) ** 2).sum(axis=-1))
    assert (dist == radius[:, None]).sum() > len(pts)
    want = set(zip(*np.nonzero(dist <= radius[:, None])))
    got = []
    for rows, cols in distance._ball_pairs(cKDTree(tree_pts), pts, radius):
        assert len(np.unique(rows)) <= 7
        got += zip(rows, cols)
    assert len(got) == len(set(got))
    assert set(got) == want


@pytest.mark.parametrize("norm", [fs.euclidean(), fs.lq_norm(1.5)], ids=["euclidean", "lq_1.5"])
def test_sup_rayleigh_equals_all_pairs_with_blocks_across_band_edges(norm, monkeypatch):
    # 5-node source blocks do not line up with the edges of the value bands
    monkeypatch.setattr(distance, "_BLOCK", 5)
    grid = fs.rasterize(offset_lshape_spec(), 1.0 / 32)
    tri = fs.triangulate(grid)
    df = distance_transform(grid, norm)
    pts = grid.node_points(np.argwhere(grid.mask))

    def cone(apex, radius):
        return np.maximum(radius - fs.polar_eval(norm, pts - apex), 0.0)
    # two off-lattice polar cones of opposite sign in different arms: the
    # steepest quotients sit on long chords along the positive one's rays, so
    # the short seed pairs miss them and the band passes must find them
    apex = grid.node_points(np.asarray(df.argmax_node)) + np.array([0.31, 0.17]) * grid.h
    signed = cone(apex, 0.8 * df.rho_f) - 0.5 * cone(np.array([0.7617, 0.2383]), 0.18)
    for vals in (df.d[grid.mask], signed):
        u = ScalarField(tri, vals)
        assert sup_rayleigh(u, norm) == brute_force_sup_rayleigh(u, norm)


class _MetricSpy:
    """A cKDTree that records the Minkowski p of every query made on it; the
    other tree of a dual-tree query is passed through unwrapped."""

    P_POSITION = {"query": 3, "query_pairs": 1, "sparse_distance_matrix": 2}
    seen = []

    def __init__(self, data):
        self._tree = cKDTree(data)

    def __getattr__(self, name):
        method = getattr(self._tree, name)

        def call(*args, **kwargs):
            at = self.P_POSITION[name]
            self.seen.append((name, kwargs.get("p", args[at] if len(args) > at else 2.0)))
            args = [a._tree if isinstance(a, _MetricSpy) else a for a in args]
            return method(*args, **kwargs)
        return call


def test_kd_tree_queries_use_the_euclidean_metric(monkeypatch):
    # the fractional metric p = q' costs several times the Euclidean one per node visited
    monkeypatch.setattr(distance, "cKDTree", _MetricSpy)
    monkeypatch.setattr(_MetricSpy, "seen", [])
    grid = fs.rasterize(offset_lshape_spec(), 1.0 / 16)
    tri = fs.triangulate(grid)
    for norm in (fs.lq_norm(3.0), fs.lq_norm(1.5), fs.weighted_quadratic(4.0, 1.0)):
        df = distance_transform(grid, norm)
        eikonal_bulk_fraction(df, norm, tri)
        sup_rayleigh(df.as_field(tri), norm)
    assert {name for name, _ in _MetricSpy.seen} == set(_MetricSpy.P_POSITION)
    assert {p for _, p in _MetricSpy.seen} == {2.0}


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
