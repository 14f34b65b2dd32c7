import numpy as np
import pytest

import finsler_spectra as fs
from finsler_spectra.geometry import ShapeSpec

from conftest import lshape_spec, two_disk_spec, unit_square_spec


def test_unit_square_counts():
    g = fs.rasterize(unit_square_spec(), 1.0 / 64)
    assert g.interior_count == 63 * 63
    assert g.num_components == 1


def test_two_disjoint_disks_components():
    g = fs.rasterize(two_disk_spec(1.0, 1.0, 4.0), 1.0 / 32)
    assert g.num_components == 2
    parts = fs.components(g)
    assert len(parts) == 2
    assert not (parts[0].mask & parts[1].mask).any()
    assert ((parts[0].mask | parts[1].mask) == g.mask).all()


def test_frame_domain_measure():
    spec = fs.shape(
        fs.rectangle(0, 0, 1, 1),
        fs.rectangle(0.25, 0.25, 0.75, 0.75, mode="subtract"),
    )
    g = fs.rasterize(spec, 1.0 / 64)
    assert g.num_components == 1
    assert fs.measure(g) == pytest.approx(1.0 - 0.25, abs=0.05)


def test_measure_examples():
    g = fs.rasterize(unit_square_spec(), 1.0 / 128)
    assert fs.measure(g) == pytest.approx(1.0, abs=0.02)
    gd = fs.rasterize(fs.shape(fs.euclidean_disk((0, 0), 1.0)), 1.0 / 128)
    assert fs.measure(gd) == pytest.approx(np.pi, abs=0.05)
    g2 = fs.rasterize(two_disk_spec(0.7, 0.7, 3.0), 1.0 / 64)
    # the half-cell margin trims about perimeter * h / 2 from each disk
    assert fs.measure(g2) == pytest.approx(2 * np.pi * 0.49, abs=0.1)


def test_component_partition_is_exact():
    spec = fs.shape(
        fs.rectangle(0, 0, 1, 0.5),
        fs.rectangle(2, 0, 2.5, 2),
        fs.rectangle(4, 1, 5, 1.25),
    )
    g = fs.rasterize(spec, 1.0 / 32)
    parts = fs.components(g)
    assert len(parts) == 3
    assert sum(p.interior_count for p in parts) == g.interior_count
    areas = sorted(fs.measure(p) for p in parts)
    assert areas == pytest.approx(sorted([0.5, 1.0, 0.25]), abs=0.1)


def test_scale_domain():
    spec = unit_square_spec()
    s2 = fs.scale_domain(spec, 2.0)
    prim = s2.primitives[0]
    assert (prim.x0, prim.y0, prim.x1, prim.y1) == (0.0, 0.0, 2.0, 2.0)
    w = fs.scale_domain(fs.shape(fs.wulff((1.0, 2.0), 0.5, fs.euclidean())), 3.0)
    assert w.primitives[0].center == (3.0, 6.0)
    assert w.primitives[0].radius == 1.5

    a = fs.measure(fs.rasterize(spec, 1.0 / 48))
    b = fs.measure(fs.rasterize(s2, 1.0 / 48))
    assert b == pytest.approx(4 * a, rel=0.05)


def test_scaled_grid_mask_matches_at_matched_resolution():
    spec = fs.shape(fs.euclidean_disk((0.25, 0.0), 0.8))
    g1 = fs.rasterize(spec, 1.0 / 32)
    g2 = fs.rasterize(fs.scale_domain(spec, 2.0), 2.0 / 32)
    assert g1.mask.shape == g2.mask.shape
    assert (g1.mask == g2.mask).all()


def test_rasterization_monotone_for_nested_shapes():
    inner = fs.shape(fs.rectangle(0.2, 0.3, 0.7, 0.8))
    outer = unit_square_spec()
    h = 1.0 / 32
    gi = fs.rasterize(inner, h)
    go = fs.rasterize(outer, h)
    # same lattice alignment: compare through node coordinates
    xi = {(round(x / h), round(y / h)) for x, y in gi.node_points(np.argwhere(gi.mask))}
    xo = {(round(x / h), round(y / h)) for x, y in go.node_points(np.argwhere(go.mask))}
    assert xi <= xo


def test_refinement_converges_to_analytic_measure():
    spec = fs.shape(fs.euclidean_disk((0, 0), 1.0))
    errs = [abs(fs.measure(fs.rasterize(spec, h)) - np.pi) for h in (1 / 16, 1 / 32, 1 / 64)]
    assert errs[2] < errs[1] < errs[0]


def test_boundary_ring_properties():
    g = fs.rasterize(unit_square_spec(), 1.0 / 32)
    ring = g.boundary_node_indices()
    assert len(ring) > 0
    assert not g.mask[ring[:, 0], ring[:, 1]].any()
    # every ring node touches the mask through a 4-neighbor
    for i, j in ring[:: max(1, len(ring) // 50)]:
        neigh = [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
        assert any(g.mask[a, b] for a, b in neigh)


def test_empty_domain_raises():
    with pytest.raises(ValueError):
        fs.rasterize(fs.shape(fs.euclidean_disk((0, 0), 0.01)), 1.0 / 4)


def test_spec_needs_an_add_primitive():
    with pytest.raises(ValueError):
        fs.shape(fs.rectangle(0, 0, 1, 1, mode="subtract"))


def test_shape_spec_json_round_trip():
    spec = fs.shape(
        fs.rectangle(0, 0, 1, 1),
        fs.wulff((0.5, 0.5), 0.2, fs.lq_norm(3.0), mode="subtract"),
        fs.euclidean_disk((2, 0), 0.4),
    )
    again = ShapeSpec.from_dict(spec.to_dict())
    assert again == spec


def test_wulff_raster_matches_shape_membership():
    norm = fs.weighted_quadratic(4, 1)
    g = fs.rasterize(fs.shape(fs.wulff((0.0, 0.0), 1.0, norm)), 1.0 / 32)
    pts = g.node_points(np.argwhere(g.mask))
    assert np.all(fs.polar_eval(norm, pts) < 1.0)
    assert fs.measure(g) == pytest.approx(2 * np.pi, abs=0.25)


@pytest.mark.parametrize("radius", [-0.5, float("nan")])
def test_disk_and_wulff_reject_bad_radius(radius):
    with pytest.raises(ValueError, match="radius"):
        fs.euclidean_disk((0.0, 0.0), radius)
    with pytest.raises(ValueError, match="radius"):
        fs.wulff((0.0, 0.0), radius, fs.euclidean())


def test_rectangle_rejects_inverted_corners():
    with pytest.raises(ValueError, match="x1 > x0"):
        fs.rectangle(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="y1 > y0"):
        fs.rectangle(0.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("h", [float("nan"), float("inf")])
def test_rasterize_rejects_non_finite_h(h):
    with pytest.raises(ValueError, match="cell size h"):
        fs.rasterize(unit_square_spec(), h)
