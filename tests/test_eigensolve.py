import numpy as np
import pytest

import finsler_spectra as fs
from finsler_spectra.eigensolve import SolverOptions
from finsler_spectra.fem import ScalarField

from conftest import rect21_spec, two_disk_spec, unit_square_spec


@pytest.fixture(scope="module")
def square_grid():
    return fs.rasterize(unit_square_spec(), 1.0 / 64)


def test_linear_oracle_square_eigenvalues(square_grid):
    r1 = fs.solve_linear_p2(square_grid, fs.euclidean(), 1)
    r2 = fs.solve_linear_p2(square_grid, fs.euclidean(), 2)
    assert r1.lam == pytest.approx(2 * np.pi ** 2, rel=2e-3)
    assert r2.lam == pytest.approx(5 * np.pi ** 2, rel=3e-3)
    assert r1.nodal_count == 1
    assert r2.nodal_count == 2


def test_linear_oracle_anisotropic_rectangle():
    grid = fs.rasterize(fs.shape(fs.rectangle(0, 0, 1, 2)), 1.0 / 64)
    r = fs.solve_linear_p2(grid, fs.weighted_quadratic(4, 1), 1)
    # separation of variables for 4 d_xx + 1 d_yy on (0,1) x (0,2)
    target = 4 * np.pi ** 2 / 1.0 + 1 * np.pi ** 2 / 4.0
    assert r.lam == pytest.approx(target, rel=1.5e-2)


def test_linear_oracle_rejects_lq_and_bad_k(square_grid):
    with pytest.raises(ValueError):
        fs.solve_linear_p2(square_grid, fs.lq_norm(3.0), 1)
    with pytest.raises(ValueError):
        fs.solve_linear_p2(square_grid, fs.euclidean(), 3)


@pytest.mark.parametrize("nodes, expected", [
    (1, (64.0,)),
    (2, (48.0, 80.0)),
    (3, (16 * (4 - np.sqrt(2)), 64.0)),
])
def test_linear_oracle_tiny_grids(nodes, expected):
    # a row of interior nodes at h = 1/4: the 5-point eigenvalues are
    # (4 - 2 cos(j pi / (n + 1))) / h^2 in closed form
    h = 0.25
    grid = fs.rasterize(fs.shape(fs.rectangle(0, 0, (nodes + 1) * h, 2 * h)), h)
    assert grid.interior_count == nodes
    for k, lam in enumerate(expected, start=1):
        r = fs.solve_linear_p2(grid, fs.euclidean(), k)
        assert r.lam == pytest.approx(lam, rel=1e-12)
        assert r.residual <= 1e-9
    if nodes == 1:
        with pytest.raises(ValueError, match="k=2.*ndof=1"):
            fs.solve_linear_p2(grid, fs.euclidean(), 2)
    else:
        # one-node parts reach the oracle through the lambda_1 initial guess
        assert fs.solve_lambda2(grid, fs.euclidean(), 2.0).lambda2 == pytest.approx(64.0, rel=1e-9)


def test_linear_oracle_near_degenerate_pair():
    # 4 d_xx + d_yy on (0,2) x (0,1): lambda_2 = lambda_3 = 5 pi^2 in the
    # continuum, and the discrete pair differs by under 0.1 percent
    grid = fs.rasterize(rect21_spec(), 1.0 / 48)
    r = fs.solve_linear_p2(grid, fs.weighted_quadratic(4, 1), 2)
    assert r.lam == pytest.approx(5 * np.pi ** 2, rel=3e-3)
    assert r.nodal_count == 2
    assert r.residual <= 1e-9
    assert r.iterations > 0
    again = fs.solve_linear_p2(grid, fs.weighted_quadratic(4, 1), 2)
    assert again.to_dict() == r.to_dict()
    assert np.array_equal(again.u.values, r.u.values)


def test_equal_disks_first_eigenvalue_not_simple():
    grid = fs.rasterize(two_disk_spec(1.0, 1.0, 3.0), 1.0 / 32)
    r1 = fs.solve_linear_p2(grid, fs.euclidean(), 1)
    r2 = fs.solve_linear_p2(grid, fs.euclidean(), 2)
    assert r2.lam == pytest.approx(r1.lam, rel=1e-8)
    # j_{0,1}^2 for the unit disk, up to rasterization error
    assert r1.lam == pytest.approx(5.7832, rel=0.05)


@pytest.mark.parametrize("family", ["euclidean", "weighted_quadratic"])
@pytest.mark.parametrize("spec_fn", [unit_square_spec, rect21_spec,
                                     lambda: fs.shape(fs.euclidean_disk((0, 0), 1.0)),
                                     lambda: two_disk_spec(1.0, 0.75, 3.0)])
def test_solver_agrees_with_oracle_at_p2(family, spec_fn):
    norm = fs.euclidean() if family == "euclidean" else fs.weighted_quadratic(4, 1)
    grid = fs.rasterize(spec_fn(), 1.0 / 48)
    lin = fs.solve_linear_p2(grid, norm, 1)
    non = fs.solve_lambda1(grid, norm, 2.0)
    assert non.lam == pytest.approx(lin.lam, rel=1e-6)


def test_lambda1_result_contract(square_grid):
    r = fs.solve_lambda1(square_grid, fs.lq_norm(3.0), 2.5)
    assert r.lam == pytest.approx(fs.rayleigh_quotient(r.u, fs.lq_norm(3.0), 2.5), rel=1e-12)
    assert r.u.values.min() >= 0.0
    assert fs.mass_p(r.u, 2.5) == pytest.approx(1.0, rel=1e-9)
    assert r.nodal_count == 1
    assert r.p == 2.5


def test_lambda1_rejects_bad_p(square_grid):
    with pytest.raises(ValueError):
        fs.solve_lambda1(square_grid, fs.euclidean(), 1.0)


def test_rayleigh_quotient_contract(square_grid):
    tri = fs.triangulate(square_grid)
    with pytest.raises(ValueError):
        fs.rayleigh_quotient(ScalarField(tri, np.zeros(tri.ndof)), fs.euclidean(), 2.0)
    r = fs.solve_lambda1(square_grid, fs.euclidean(), 2.0)
    rng = np.random.default_rng(2)
    for _ in range(3):
        u = ScalarField(tri, rng.normal(size=tri.ndof))
        assert fs.rayleigh_quotient(u, fs.euclidean(), 2.0) >= r.lam * (1 - 1e-9)
        u2 = ScalarField(tri, -3.0 * u.values)
        assert fs.rayleigh_quotient(u2, fs.euclidean(), 2.0) == pytest.approx(
            fs.rayleigh_quotient(u, fs.euclidean(), 2.0), rel=1e-11)


def test_scaling_law_matched_grids():
    spec = unit_square_spec()
    for p in (2.0, 3.0):
        a = fs.solve_lambda1(fs.rasterize(spec, 1.0 / 48), fs.euclidean(), p)
        b = fs.solve_lambda1(fs.rasterize(fs.scale_domain(spec, 2.0), 2.0 / 48), fs.euclidean(), p)
        assert b.lam == pytest.approx(2.0 ** (-p) * a.lam, rel=0.02)


def test_domain_monotonicity_via_injection():
    h = 1.0 / 48
    small = fs.rasterize(fs.shape(fs.rectangle(0.25, 0.125, 0.875, 0.75)), h)
    big = fs.rasterize(unit_square_spec(), h)
    tri_big = fs.triangulate(big)
    # both frames snap to the h-lattice, so nodes correspond by integer offset
    di = round((small.origin[0] - big.origin[0]) / h)
    dj = round((small.origin[1] - big.origin[1]) / h)
    for p, opts in ((2.0, SolverOptions()), (3.0, SolverOptions())):
        rs = fs.solve_lambda1(small, fs.euclidean(), p, opts)
        # inject the small-domain minimizer into the big domain: its quotient
        # is unchanged, so lambda_1 can only drop when the domain grows
        arr = rs.u.as_grid_array()
        big_arr = np.zeros((big.nx, big.ny))
        big_arr[di:di + small.nx, dj:dj + small.ny] = arr
        lifted = ScalarField.from_grid_array(tri_big, big_arr)
        quot = fs.rayleigh_quotient(lifted, fs.euclidean(), p)
        assert quot == pytest.approx(rs.lam, rel=1e-12)
        rb = fs.solve_lambda1(big, fs.euclidean(), p, opts)
        assert rb.lam <= quot * (1 + 1e-6)


def test_p_monotonicity_diagnostic(square_grid):
    vals = []
    for p in (1.5, 2.0, 3.0, 4.0, 8.0):
        r = fs.solve_lambda1(square_grid, fs.euclidean(), p)
        vals.append(p * r.lam ** (1.0 / p))
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lambda2_square(square_grid):
    b = fs.solve_lambda2(square_grid, fs.euclidean(), 2.0)
    assert b.lambda2 == pytest.approx(5 * np.pi ** 2, rel=0.025)
    assert b.lambda2 == max(b.lambda1_part1, b.lambda1_part2)
    # optimal bipartition carries the eigenvalue on both parts
    assert b.lambda1_part1 == pytest.approx(b.lambda1_part2, rel=0.02)
    assert not (b.part1 & b.part2).any()
    assert (b.part1 | b.part2).sum() <= square_grid.mask.sum()


def test_lambda2_two_equal_wulff_shapes():
    norm = fs.weighted_quadratic(4, 1)
    h = 1.0 / 32
    spec = fs.shape(fs.wulff((0.0, 0.0), 1.0, norm), fs.wulff((5.0, 0.0), 1.0, norm))
    grid = fs.rasterize(spec, h)
    for p in (2.0, 3.0):
        r1 = fs.solve_lambda1(grid, norm, p)
        b = fs.solve_lambda2(grid, norm, p)
        assert b.lambda2 == pytest.approx(r1.lam, rel=1e-9)


def test_lambda2_unequal_disks_logic():
    # radii 1 and 0.9: the smaller disk's lambda_1 beats the big disk's lambda_2
    grid = fs.rasterize(two_disk_spec(1.0, 0.9, 3.0), 1.0 / 32)
    b = fs.solve_lambda2(grid, fs.euclidean(), 2.0)
    comps = fs.components(grid)
    lams = sorted(fs.solve_lambda1(c, fs.euclidean(), 2.0).lam for c in comps)
    assert b.lambda2 == pytest.approx(lams[1], rel=1e-6)
    assert b.lambda2 == pytest.approx(5.7832 / 0.81, rel=0.05)


def test_lambda2_small_disk_limit():
    # when one disk is tiny, lambda_2 is the big disk's own second eigenvalue
    grid = fs.rasterize(two_disk_spec(1.0, 0.18, 2.0), 1.0 / 32)
    b = fs.solve_lambda2(grid, fs.euclidean(), 2.0)
    big = fs.components(grid)[0]
    r2_big = fs.solve_linear_p2(big, fs.euclidean(), 2)
    assert b.lambda2 <= r2_big.lam * 1.02
    # j_{1,1}^2 = 14.68 for the unit disk; the tiny disk alone would give ~ 178
    assert b.lambda2 == pytest.approx(14.68, rel=0.08)


def test_lambda2_needs_two_nodes():
    grid = fs.rasterize(fs.shape(fs.euclidean_disk((0, 0), 0.6)), 0.5)
    with pytest.raises(ValueError):
        fs.solve_lambda2(grid, fs.euclidean(), 2.0)


def test_nodal_domains_counts(square_grid):
    r1 = fs.solve_lambda1(square_grid, fs.euclidean(), 2.0)
    assert fs.nodal_domains(r1.u)[0] == 1
    r2 = fs.solve_linear_p2(square_grid, fs.euclidean(), 2)
    assert fs.nodal_domains(r2.u)[0] == 2
    tri = fs.triangulate(square_grid)
    checker = ScalarField.from_function(
        tri, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    count, labels = fs.nodal_domains(checker)
    assert count == 4
    assert labels.max() == 4


def test_eigenresult_serialization(square_grid):
    r = fs.solve_lambda1(square_grid, fs.euclidean(), 2.0)
    d = r.to_dict()
    assert set(d) == {"lambda", "p", "iterations", "residual", "nodal_count"}
    assert d["lambda"] == r.lam


def test_lambda2_drops_nodal_candidate_when_oracle_fails(monkeypatch, caplog):
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 12)
    norm = fs.euclidean()
    nodal, packing = eigensolve._split_candidates(grid, norm)
    oracle = eigensolve.solve_linear_p2

    def failing_oracle(g, n, k):
        if k == 2:
            raise eigensolve.ConvergenceError("linear p=2 oracle did not converge")
        return oracle(g, n, k)

    monkeypatch.setattr(eigensolve, "solve_linear_p2", failing_oracle)
    with caplog.at_level("WARNING", logger="finsler_spectra.eigensolve"):
        b = fs.solve_lambda2(grid, norm, 2.0)
    solver = eigensolve._PartSolver(grid, norm, 2.0, SolverOptions())
    assert b.lambda2 == eigensolve._greedy_refine(solver, *packing)[0]
    assert any("nodal" in r.getMessage() and "ConvergenceError" in r.getMessage()
               for r in caplog.records)
