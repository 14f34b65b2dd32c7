import logging
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import finsler_spectra as fs
from finsler_spectra.eigensolve import SolverOptions
from finsler_spectra.fem import ScalarField

from conftest import (
    ALL_NORMS,
    assembly_grids,
    lshape_spec,
    rect21_spec,
    reference_energy_from_terms,
    reference_energy_terms,
    reference_gradient_from_terms,
    reference_gradient_matrices,
    reference_mass_gradient,
    reference_mass_root,
    reference_newton_arrays,
    reference_stiffness,
    reference_tangent_gradient,
    same_bits,
    same_sparse,
    two_disk_spec,
    unit_square_spec,
)


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
    assert b.lambda2 == max(b.result1.lam, b.result2.lam)
    # optimal bipartition carries the eigenvalue on both parts
    assert b.result1.lam == pytest.approx(b.result2.lam, rel=0.02)
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


def test_lambda2_of_a_disconnected_set_takes_the_first_least_component_pair(monkeypatch):
    from finsler_spectra import eigensolve

    spec = fs.shape(*(fs.euclidean_disk((3.0 * k, 0.0), 1.0) for k in range(3)))
    grid = fs.rasterize(spec, 1.0 / 4)
    comps = fs.components(grid)
    assert len(comps) == 3
    lams = iter([3.0, 3.0, 1.0])
    monkeypatch.setattr(eigensolve, "solve_lambda1", lambda *args: SimpleNamespace(lam=next(lams)))
    searched = []

    def connected(comp, *args):
        searched.append(comp.mask)
        r = SimpleNamespace(lam=4.0)
        return eigensolve.BipartitionResult(comp.mask, comp.mask, r, r)

    monkeypatch.setattr(eigensolve, "_lambda2_connected", connected)
    b = fs.solve_lambda2(grid, fs.euclidean(), 2.0)
    # every pair ties at 3: the first in (i, j) order wins, where sorting by lambda_1
    # would pick components 0 and 2
    assert b.lambda2 == 3.0
    assert np.array_equal(b.part1, comps[0].mask) and np.array_equal(b.part2, comps[1].mask)
    # component 2 could still beat the pair from inside, and its search loses
    assert len(searched) == 1 and np.array_equal(searched[0], comps[2].mask)


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


def test_nodal_domains_follow_the_mesh_diagonal():
    # two squares that touch only along the mesh's (i, j)-(i+1, j+1) edge: one component,
    # and a P1 field positive on all of it is one nodal domain; the other diagonal splits
    from finsler_spectra.geometry import DomainGrid

    mask = np.zeros((12, 12), dtype=bool)
    mask[1:6, 1:6] = mask[6:11, 6:11] = True
    grid = DomainGrid((0.0, 0.0), 1.0 / 16, 12, 12, mask)
    r = fs.solve_lambda1(grid, fs.euclidean(), 2.0)
    assert len(fs.components(grid)) == 1 and np.all(r.u.values > 0) and r.u.values.size == 50
    assert r.nodal_count == 1
    anti = np.zeros((12, 12), dtype=bool)
    anti[1:6, 6:11] = anti[6:11, 1:6] = True
    anti_grid = DomainGrid((0.0, 0.0), 1.0 / 16, 12, 12, anti)
    field = ScalarField(fs.triangulate(anti_grid), np.ones(50))
    assert len(fs.components(anti_grid)) == 2 and fs.nodal_domains(field)[0] == 2


def test_eigenresult_serialization(square_grid):
    r = fs.solve_lambda1(square_grid, fs.euclidean(), 2.0)
    d = r.to_dict()
    assert set(d) == {"lambda", "p", "iterations", "residual", "nodal_count"}
    assert d["lambda"] == r.lam


def test_nodal_domains_are_counted_only_when_read(monkeypatch):
    from finsler_spectra import eigensolve

    calls, label = [], eigensolve.nodal_domains

    def counted(u):
        calls.append(u)
        return label(u)

    monkeypatch.setattr(eigensolve, "nodal_domains", counted)
    grid = fs.rasterize(unit_square_spec(), 1.0 / 8)
    fs.solve_lambda2(grid, fs.euclidean(), 1.5)
    assert calls == []
    r = fs.solve_lambda1(grid, fs.euclidean(), 1.5)
    assert calls == []
    assert r.nodal_count == 1 and len(calls) == 1 and calls[0] is r.u


@pytest.mark.parametrize("name", ["plateau", "initial"])
def test_lambda1_rejects_plateau(square_grid, name):
    # every solve climbs the cold ladder: a plateau setting or a start field, even an
    # all-zero frame array, is refused by name
    value = {"plateau": (100, 1e-9), "initial": np.zeros(square_grid.mask.shape)}[name]
    with pytest.raises(ValueError, match=f"solve_lambda1: {name} is no longer a setting"):
        fs.solve_lambda1(square_grid, fs.euclidean(), 3.0, **{name: value})


def _part_solve(grid, norm, p):
    """solve(mask), lambda_1 on a part mask of grid as a lambda_2 search asks for it, and the
    list of the masks asked for."""
    masks = []

    def solve(mask):
        masks.append(mask)
        return fs.solve_lambda1(grid.subgrid(mask), norm, p)

    return solve, masks


def test_part_solve_in_a_grid_context_triangulates_its_mask_once(monkeypatch):
    # the part's ladder and its p=2 oracle share the one kept triangulation
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 12)
    norm = fs.euclidean()
    half = grid.mask.copy()
    half[grid.mask.shape[0] // 2:] = False
    keys, triangulate = [], eigensolve.triangulate

    def counted_triangulate(g):
        keys.append(eigensolve._grid_key(g))
        return triangulate(g)

    monkeypatch.setattr(eigensolve, "triangulate", counted_triangulate)
    solve, _ = _part_solve(grid, norm, 3.0)
    with eigensolve._GridContext():
        assert solve(half).iterations > 0
    assert keys == [eigensolve._grid_key(grid.subgrid(half))]


@pytest.mark.parametrize("solve, spec, h, norm, triangulations", [
    (fs.solve_lambda1, unit_square_spec(), 1.0 / 12, fs.lq_norm(3.0), 1),
    (fs.solve_lambda1, two_disk_spec(), 1.0 / 8, fs.euclidean(), 3),
    (fs.solve_lambda2, unit_square_spec(), 1.0 / 12, fs.weighted_quadratic(4.0, 1.0), 4),
], ids=["lambda1-square", "lambda1-two-disks", "lambda2-square"])
def test_a_direct_solve_triangulates_each_mask_once(monkeypatch, solve, spec, h, norm, triangulations):
    # a direct call opens a grid context for its length: the ladder's p=2 start, each
    # component and each split part share the one triangulation kept for their mask
    from finsler_spectra import eigensolve

    grid = fs.rasterize(spec, h)
    with eigensolve._GridContext():
        joined = solve(grid, norm, 3.0)
    keys, triangulate = [], eigensolve.triangulate

    def counted_triangulate(g):
        keys.append(eigensolve._grid_key(g))
        return triangulate(g)

    monkeypatch.setattr(eigensolve, "triangulate", counted_triangulate)
    result = solve(grid, norm, 3.0)
    assert len(keys) == len(set(keys)) == triangulations
    assert eigensolve._CONTEXT.get() is None
    value = (lambda r: r.lambda2) if solve is fs.solve_lambda2 else (lambda r: r.lam)
    assert value(result) == value(joined)
    with pytest.raises(fs.ConvergenceError):
        solve(grid, norm, 3.0, SolverOptions(max_iter=1))
    assert eigensolve._CONTEXT.get() is None


@pytest.mark.parametrize("family", sorted(ALL_NORMS))
def test_lambda1_p32_from_four_starts_on_the_nodal_half(monkeypatch, family):
    # the half of the unit square that the nodal split gives, from the p=2 start and
    # from three copies of it with 1e-12 relative noise: every ladder converges
    from finsler_spectra import eigensolve

    norm = ALL_NORMS[family]
    square = fs.rasterize(unit_square_spec(), 1.0 / 32)
    (half, _), _ = eigensolve._split_candidates(square, norm).values()
    grid = square.subgrid(half)
    oracle = eigensolve._linear_p2
    lams = []
    for seed in (None, 101, 102, 103):
        def noisy(g, n, k, seed=seed):
            r = oracle(g, n, k)
            if seed is None:
                return r
            noise = 1e-12 * np.random.default_rng(seed).standard_normal(r.u.values.size)
            return eigensolve.EigenResult(r.lam, ScalarField(r.u.tri, r.u.values * (1.0 + noise)),
                                          r.p, r.iterations, r.residual)

        monkeypatch.setattr(eigensolve, "_linear_p2", noisy)
        r = fs.solve_lambda1(grid, norm, 32.0)
        assert r.residual <= 1e-7
        lams.append(r.lam)
    assert np.ptp(lams) <= 1e-6 * min(lams)


def test_lambda1_p15_on_two_disks_is_the_smaller_component_value(caplog):
    grid = fs.rasterize(two_disk_spec(1.0, 0.75, 3.0), 1.0 / 32)
    norm = fs.lq_norm(3.0)
    with caplog.at_level(logging.DEBUG, logger="finsler_spectra.eigensolve"):
        r = fs.solve_lambda1(grid, norm, 1.5)
    stops = [rec.getMessage().split(" stop=")[1].split()[0] for rec in caplog.records
             if rec.getMessage().startswith("newton stage")]
    assert len(stops) == 4 and set(stops) <= {"tol", "floor"}   # two rungs per disk
    big, small = fs.components(grid)
    parts = [fs.solve_lambda1(c, norm, 1.5).lam for c in (big, small)]
    assert parts[0] < parts[1]
    assert r.lam == pytest.approx(parts[0], rel=1e-12)
    assert r.residual <= 1e-8
    arr = r.u.as_grid_array()
    assert not arr[small.mask].any() and (arr[big.mask] > 0.0).all()
    assert r.lam == pytest.approx(fs.rayleigh_quotient(r.u, norm, 1.5), rel=1e-12)


_THREAD_PROBE = """
import finsler_spectra as fs
grid = fs.rasterize(fs.shape(fs.rectangle(0, 0, 1, 1)), 1 / 104)
r = fs.solve_lambda1(grid, fs.weighted_quadratic(4, 1), 1.5)
print(grid.interior_count, r.lam.hex(), r.iterations, r.residual.hex())
"""


def test_lambda1_bytes_do_not_depend_on_the_blas_thread_count():
    # numpy's x @ y splits long sums by BLAS thread; the solver's dots do not
    import os
    import subprocess
    import sys

    outs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, check=True,
                              capture_output=True, text=True)
        outs.add(done.stdout)
    (out,) = outs
    assert int(out.split()[0]) > 10000


def test_lambda2_drops_nodal_candidate_when_oracle_fails(monkeypatch, caplog):
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 12)
    norm = fs.euclidean()
    nodal, packing = eigensolve._split_candidates(grid, norm).values()
    oracle = eigensolve.solve_linear_p2

    def failing_oracle(g, n, k):
        if k == 2:
            raise eigensolve.ConvergenceError("linear p=2 oracle did not converge")
        return oracle(g, n, k)

    monkeypatch.setattr(eigensolve, "solve_linear_p2", failing_oracle)
    with caplog.at_level("WARNING", logger="finsler_spectra.eigensolve"):
        b = fs.solve_lambda2(grid, norm, 2.0)
    solve, _ = _part_solve(grid, norm, 2.0)
    assert b.lambda2 == eigensolve._greedy_refine(grid, solve, *packing)[0].lambda2
    assert any("nodal" in r.getMessage() and "ConvergenceError" in r.getMessage()
               for r in caplog.records)


_EXPONENTS = st.floats(min_value=1.0, max_value=64.0, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(_EXPONENTS, _EXPONENTS)
@example(8.0, 16.0)
@example(1.5, 2.0)
@example(7.995, 8.0)
def test_a_ladder_rung_has_the_same_predecessor_in_every_ladder(p, p_other):
    # what lets a run keep a cold rung: its start is fixed by the rung alone
    from finsler_spectra.eigensolve import _exponent_ladder

    ladders = [_exponent_ladder(p), _exponent_ladder(p_other)]
    for ladder, top in zip(ladders, (p, p_other)):
        assert ladder[0] == 2.0 and ladder[-1] == top and len(set(ladder)) == len(ladder)
    before = [dict(zip(ladder, [None] + ladder[:-1])) for ladder in ladders]
    assert all(before[0][q] == before[1][q] for q in before[0].keys() & before[1].keys())


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_lambda1_stage_at_max_iter_raises_naming_p_dofs_and_residual(caplog, p):
    grid = fs.rasterize(unit_square_spec(), 1.0 / 8)
    with caplog.at_level(logging.DEBUG, logger="finsler_spectra.eigensolve"):
        with pytest.raises(fs.ConvergenceError) as err:
            fs.solve_lambda1(grid, fs.euclidean(), p, SolverOptions(max_iter=1))
    stage = re.compile(rf"newton stage p={p:g} dofs=49 steps=1 .* stop=maxiter residual=(\S+)$")
    (last,) = [m for m in map(stage.match, (r.getMessage() for r in caplog.records)) if m]
    assert float(last[1]) > 1e-8
    # the message carries the residual as the DEBUG line prints it, rounded once
    assert str(err.value) == (f"lambda_1 solve did not converge: p={p}, dofs=49, "
                              f"residual={last[1]} after 1 iterations")


def _fail_on_masks(monkeypatch, masks):
    """Make every lambda_1 solve on one of masks raise ConvergenceError."""
    from finsler_spectra import eigensolve

    solve = eigensolve.solve_lambda1

    def failing(grid, *args, **kwargs):
        if any(np.array_equal(grid.mask, m) for m in masks):
            raise fs.ConvergenceError("lambda_1 solve did not converge")
        return solve(grid, *args, **kwargs)

    monkeypatch.setattr(eigensolve, "solve_lambda1", failing)


def test_lambda2_drops_a_candidate_whose_refinement_raises(monkeypatch, caplog):
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 12)
    norm = fs.euclidean()
    nodal, packing = eigensolve._split_candidates(grid, norm).values()
    solve, _ = _part_solve(grid, norm, 2.0)
    expected = eigensolve._greedy_refine(grid, solve, *packing)[0].lambda2
    _fail_on_masks(monkeypatch, [nodal[0]])
    with caplog.at_level("WARNING", logger="finsler_spectra.eigensolve"):
        b = fs.solve_lambda2(grid, norm, 2.0)
    assert b.lambda2 == expected
    (dropped,) = [r.getMessage() for r in caplog.records]
    assert dropped.startswith("bipartition candidate dropped: ConvergenceError")


def test_lambda2_raises_when_every_candidate_raises(monkeypatch, caplog):
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 12)
    norm = fs.euclidean()
    _fail_on_masks(monkeypatch, [p1 for p1, _ in eigensolve._split_candidates(grid, norm).values()])
    with caplog.at_level("WARNING", logger="finsler_spectra.eigensolve"):
        with pytest.raises(fs.ConvergenceError, match="no admissible bipartition candidate was found"):
            fs.solve_lambda2(grid, norm, 2.0)
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["bipartition candidate dropped"] * 2


@pytest.mark.parametrize("max_iter", [7, 10])
def test_lambda2_of_two_disks_keeps_the_component_pair_when_every_split_fails(caplog, max_iter):
    # at max_iter 7 both disks' lambda_1 converge, while both splits of the r = 1 disk
    # raise: they are dropped like any candidate, and the component pair stands
    grid = fs.rasterize(two_disk_spec(1.0, 0.75, 3.0), 1.0 / 8)
    with caplog.at_level(logging.DEBUG, logger="finsler_spectra.eigensolve"):
        b = fs.solve_lambda2(grid, fs.euclidean(), 16.0, SolverOptions(max_iter=max_iter))
    assert b.lambda2 == 16564.0854242344
    big, small = fs.components(grid)
    assert np.array_equal(b.part1, big.mask) and np.array_equal(b.part2, small.mask)
    dropped = [r for r in caplog.records if r.levelno == logging.WARNING]
    ((line, cands),) = _search_lines(caplog)   # only the big disk could beat the pair
    assert int(line[2]) == big.interior_count
    assert [c[0] for c in cands] == ["nodal", "packing"]
    assert [r.getMessage() for r in dropped] == [
        f"bipartition candidate dropped: {c[5]}" for c in cands if c[5] is not None]
    assert all(float(c[4]) > b.lambda2 for c in cands if c[5] is None)
    if max_iter == 7:
        assert len(dropped) == 2 and line[4] == "none"


_SEARCH_LINE = re.compile(r"lambda2 search p=(\S+) dofs=(\d+); (.*); winner=(\w+)$")
_CANDIDATE = re.compile(r"(\w+) (?:start=(\S+) sweeps=(\d+) accepted=(\d+) value=(\S+)|dropped (.+))$")


def _search_lines(caplog):
    lines = [_SEARCH_LINE.match(r.getMessage()) for r in caplog.records
             if r.getMessage().startswith("lambda2 search")]
    assert all(lines)
    return [(m, [_CANDIDATE.match(c).groups() for c in m[3].split("; ")]) for m in lines]


def test_lambda2_search_logs_one_debug_line(monkeypatch, caplog):
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 12)
    norm = fs.euclidean()
    refine, requests = eigensolve._greedy_refine, []

    def counted_refine(grid, solve, p1, p2):
        def counted(mask):
            requests.append(mask)
            return solve(mask)

        return refine(grid, counted, p1, p2)

    monkeypatch.setattr(eigensolve, "_greedy_refine", counted_refine)
    with caplog.at_level(logging.DEBUG, logger="finsler_spectra.eigensolve"):
        b = fs.solve_lambda2(grid, norm, 3.0)
    ((line, cands),) = _search_lines(caplog)
    assert float(line[1]) == 3.0 and int(line[2]) == grid.interior_count
    assert [c[0] for c in cands] == ["nodal", "packing"]
    for name, start, sweeps, accepted, value, dropped in cands:
        assert dropped is None and 0 <= int(accepted) <= int(sweeps) <= eigensolve._MAX_SWEEPS
        assert float(value) <= float(start)
    assert "part solves" not in line[0] and len(requests) > 0
    (won,) = [c for c in cands if c[0] == line[4]]
    assert float(won[4]) == b.lambda2 == min(float(c[4]) for c in cands)


def test_lambda2_search_line_names_a_dropped_candidate(monkeypatch, caplog):
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 12)
    norm = fs.euclidean()
    nodal, packing = eigensolve._split_candidates(grid, norm).values()
    _fail_on_masks(monkeypatch, [nodal[0]])
    with caplog.at_level(logging.DEBUG, logger="finsler_spectra.eigensolve"):
        b = fs.solve_lambda2(grid, norm, 2.0)
    ((line, cands),) = _search_lines(caplog)
    assert cands[0][0] == "nodal" and cands[0][5].startswith("ConvergenceError: lambda_1 solve")
    assert cands[1][0] == "packing" and float(cands[1][4]) == b.lambda2 and line[4] == "packing"


class _ScriptedParts:
    """A part solver that returns the scripted lambda_1 values in call order and
    raises ConvergenceError when the script runs out."""

    def __init__(self, lams):
        self.lams, self.masks = list(lams), []

    def solve(self, mask):
        self.masks.append(mask)
        if len(self.masks) > len(self.lams):
            raise fs.ConvergenceError("lambda_1 solve did not converge")
        return SimpleNamespace(lam=self.lams[len(self.masks) - 1],
                               u=SimpleNamespace(as_grid_array=lambda: np.zeros(mask.shape)))


def _halves(grid):
    p1 = grid.mask.copy()
    p1[grid.mask.shape[0] // 2:] = False
    return p1, grid.mask & ~p1


def test_interface_search_stops_at_its_best_when_a_part_solve_raises():
    # the first sweep improves 10 -> 9; in the second, the shrunk side (8.5) does not
    # reject the sweep, and the solve of the grown side raises
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 8)
    solver = _ScriptedParts([10.0, 8.0, 9.0, 9.0, 8.5])
    best, stats = eigensolve._greedy_refine(grid, solver.solve, *_halves(grid))
    val, q1, q2, r1, r2 = best.lambda2, best.part1, best.part2, best.result1, best.result2
    assert len(solver.masks) == 6
    assert val == 9.0 and (r1.lam, r2.lam) == (9.0, 9.0)
    # the first sweep grew part 1 and solved the shrunk part 2 first
    assert q1 is solver.masks[3] and q2 is solver.masks[2]
    assert stats == (10.0, 2, 1)


@pytest.mark.parametrize("ratio", [1.0 + 1e-15, 1.0 - 1e-15])
def test_interface_search_grows_the_first_part_on_a_tie(ratio):
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 8)
    p1, p2 = _halves(grid)
    # the first two parts have lambda_1 equal up to ratio; the shrunk second part is
    # worse, so the interface search stops after one sweep, without solving the grown one
    solver = _ScriptedParts([10.0, 10.0 * ratio, 20.0])
    best, stats = eigensolve._greedy_refine(grid, solver.solve, p1, p2)
    val = best.lambda2
    grown = p1 | (ndimage.binary_dilation(p1, structure=eigensolve._FOUR) & grid.mask)
    assert len(solver.masks) == 3 and val == max(10.0, 10.0 * ratio)
    assert np.array_equal(solver.masks[2], p2 & ~grown)
    assert stats == (val, 1, 0)


def test_a_rejected_sweep_requests_only_the_shrunk_part():
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 8)
    p1, p2 = _halves(grid)
    # part 2 (8) is below part 1 (10), so part 1 grows; the shrunk part 2 rises to 12,
    # which no grown part 1 can bring below 10, so the 5 for a grown part is never asked for
    solver = _ScriptedParts([10.0, 8.0, 12.0, 5.0])
    best, _ = eigensolve._greedy_refine(grid, solver.solve, p1, p2)
    val, q1, q2 = best.lambda2, best.part1, best.part2
    frontier = ndimage.binary_dilation(p1, structure=eigensolve._FOUR) & grid.mask & ~p1
    assert len(solver.masks) == 3 and np.array_equal(solver.masks[2], p2 & ~frontier)
    assert val == 10.0 and q1 is p1 and q2 is p2


def _two_solve_refine(grid, solve, p1, p2):
    """The interface search that solves both parts of every sweep before deciding it."""
    from finsler_spectra import eigensolve

    r1, r2 = solve(p1), solve(p2)
    val = max(r1.lam, r2.lam)
    for _ in range(eigensolve._MAX_SWEEPS):
        grow_first = r1.lam >= r2.lam * (1.0 - 1e-12)
        hi, lo = (p1, p2) if grow_first else (p2, p1)
        frontier = ndimage.binary_dilation(hi, structure=eigensolve._FOUR) & grid.mask & ~hi
        if not (lo & ~frontier).any():
            break
        cand = (hi | frontier, lo & ~frontier) if grow_first else (lo & ~frontier, hi | frontier)
        try:
            c1, c2 = solve(cand[0]), solve(cand[1])
        except fs.ConvergenceError:
            break
        if not max(c1.lam, c2.lam) < val * (1.0 - 1e-10):
            break
        (p1, p2), r1, r2, val = cand, c1, c2, max(c1.lam, c2.lam)
    return val, p1, p2


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("family", sorted(ALL_NORMS))
@pytest.mark.parametrize("spec", [unit_square_spec(), lshape_spec(), fs.shape(fs.euclidean_disk((0.0, 0.0), 0.5))],
                         ids=["square", "lshape", "disk"])
def test_interface_search_matches_the_two_solve_search_with_fewer_requests(spec, family, p):
    from finsler_spectra import eigensolve

    grid = fs.rasterize(spec, 1.0 / 8)
    norm = ALL_NORMS[family]
    for p1, p2 in eigensolve._split_candidates(grid, norm).values():
        ours, ours_requests = _part_solve(grid, norm, p)
        ref, ref_requests = _part_solve(grid, norm, p)
        best, _ = eigensolve._greedy_refine(grid, ours, p1, p2)
        val, q1, q2 = best.lambda2, best.part1, best.part2
        ref_val, ref_q1, ref_q2 = _two_solve_refine(grid, ref, p1, p2)
        assert val == ref_val and np.array_equal(q1, ref_q1) and np.array_equal(q2, ref_q2)
        assert len(ours_requests) < len(ref_requests)


def test_a_part_result_is_a_function_of_its_mask():
    # a moved part climbs the cold ladder like any other part: on this L-shape the packing
    # split's interface moves twice, and the best pair's results are fresh solves on its
    # masks, bit for bit
    from finsler_spectra import eigensolve

    grid = fs.rasterize(lshape_spec(), 1.0 / 8)
    norm = fs.weighted_quadratic(4.0, 1.0)
    solve, _ = _part_solve(grid, norm, 3.0)
    best, (start, _, accepted) = eigensolve._greedy_refine(
        grid, solve, *eigensolve._split_candidates(grid, norm)["packing"])
    assert accepted == 2 and best.lambda2 < start
    for mask, result in ((best.part1, best.result1), (best.part2, best.result2)):
        fresh = fs.solve_lambda1(grid.subgrid(mask), norm, 3.0)
        assert result.to_dict() == fresh.to_dict() and same_bits(result.u.values, fresh.u.values)


def _relative_gap(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


def _dense_newton_step(tri, norm, p, v, gv, lam, g):
    """The d of the bordered Newton system at mu = 0, assembled densely from Gx and Gy."""
    from finsler_spectra.fem import _mass_gradient_values
    from finsler_spectra.norms import power_hessian

    kxx, kxy, kyy = power_hessian(norm, p, *gv)
    Gx, Gy = tri.Gx.toarray(), tri.Gy.toarray()
    HE = tri.area * (Gx.T @ (kxx[:, None] * Gx) + Gx.T @ (kxy[:, None] * Gy)
                     + Gy.T @ (kxy[:, None] * Gx) + Gy.T @ (kyy[:, None] * Gy))
    a = np.maximum(np.abs(v), 1e-5 * np.abs(v).max())
    m = _mass_gradient_values(tri, v, p)[:, None]
    A = np.block([[HE - np.diag(lam * p * (p - 1.0) * tri.h ** 2 * a ** (p - 2.0)), m],
                  [m.T, np.zeros((1, 1))]])
    return np.linalg.solve(A, np.append(-g, 0.0))[:-1]


@pytest.mark.parametrize("p", [1.5, 3.0, 32.0])
@pytest.mark.parametrize("family", sorted(ALL_NORMS))
def test_newton_step_matches_dense_bordered_solve(family, p):
    # at the converged field L v = 0 up to rounding: block elimination alone is off
    # there by up to order one, and its refinement step brings it back
    from finsler_spectra import eigensolve

    norm = ALL_NORMS[family]
    grid = fs.rasterize(unit_square_spec(), 1.0 / 16)
    tri = fs.triangulate(grid)
    kkt = eigensolve._NewtonMatrix(tri)
    u = fs.solve_lambda1(grid, norm, p).u.values
    fields = [(u * (1.0 + 0.05 * np.random.default_rng(0).standard_normal(tri.ndof)), 1e-9)]
    if p < 32.0:
        fields.append((u, 1e-10))
    for values, rtol in fields:
        v, gv, r, terms = eigensolve._evaluate(tri, norm, p, values)
        g, gm, _ = eigensolve._tangent_gradient(tri, p, v, r, terms)
        d = kkt.step(kkt.data(norm, p, v, gv, terms, gm, r), 0.0, g)
        assert _relative_gap(d, _dense_newton_step(tri, norm, p, v, gv, r, g)) <= rtol


def test_newton_step_is_none_on_a_zero_pivot():
    from finsler_spectra import eigensolve
    from finsler_spectra.fem import _mass_gradient_values

    grid = fs.rasterize(unit_square_spec(), 1.0 / 16)
    tri = fs.triangulate(grid)
    kkt = eigensolve._NewtonMatrix(tri)
    norm = fs.euclidean()
    v, gv, r, terms = eigensolve._evaluate(tri, norm, 3.0, fs.solve_linear_p2(grid, norm, 1).u.values)
    g, gm, _ = eigensolve._tangent_gradient(tri, 3.0, v, r, terms)
    entries, m = kkt.data(norm, 3.0, v, gv, terms, gm, r)
    zero = (0.0 * entries, m)   # L = 0: dgbtrf reports a zero pivot at mu = 0
    assert kkt.step(zero, 0.0, g) is None
    # [[mu I, m], [m^T, 0]] [d; nu] = [-g; 0] has d = -(g projected off m) / mu
    m = _mass_gradient_values(tri, v, 3.0)
    want = -(g - (m @ g / (m @ m)) * m) / 2.0
    assert _relative_gap(kkt.step(zero, 2.0, g), want) <= 1e-12


@pytest.mark.parametrize("p", [1.5, 3.0, 32.0])
@pytest.mark.parametrize("family", sorted(ALL_NORMS))
def test_newton_matrix_from_the_stage_terms_equals_power_hessian(lshape_14, family, p):
    # data() takes the kernel terms and the mass gradient that its stage already holds; its
    # entries and border are those assembled from power_hessian and a fresh mass gradient
    from finsler_spectra import eigensolve
    from finsler_spectra.fem import _mass_gradient_values
    from finsler_spectra.norms import power_hessian

    _, tri, _ = lshape_14
    kkt = eigensolve._NewtonMatrix(tri)
    norm = ALL_NORMS[family]
    rng = np.random.default_rng(int(p * 10))
    values = rng.standard_normal(tri.ndof)
    values[rng.random(tri.ndof) < 0.15] = 0.0
    for start in (values, fs.solve_linear_p2(tri.grid, fs.euclidean(), 1).u.values):
        v, gv, r, terms = eigensolve._evaluate(tri, norm, p, start)
        g, gm, _ = eigensolve._tangent_gradient(tri, p, v, r, terms)
        entries, m = kkt.data(norm, p, v, gv, terms, gm, r)
        a = np.maximum(np.abs(v), 1e-5 * np.abs(v).max())
        hm = r * p * (p - 1.0) * tri.h ** 2 * a ** (p - 2.0)
        assert same_bits(entries, kkt.map @ np.concatenate([*power_hessian(norm, p, *gv), -hm]))
        assert same_bits(m, _mass_gradient_values(tri, v, p)[kkt.perm])


def test_descent_shrinks_zero_and_overflowing_trials(monkeypatch):
    from finsler_spectra import eigensolve

    grid = fs.rasterize(lshape_spec(), 1.0 / 16)
    tri = fs.triangulate(grid)
    kkt = eigensolve._NewtonMatrix(tri)
    norm = fs.lq_norm(3.0)
    start = fs.solve_linear_p2(grid, fs.euclidean(), 1).u.values
    clean = eigensolve._newton_stage(tri, kkt, norm, 3.0, start, 1e-8, 100)
    real = eigensolve._evaluate
    v0 = eigensolve._normalize(tri, start, 3.0)
    steps = []

    def forced(tri, norm, p, w):
        if w is start:
            return real(tri, norm, p, w)              # the stage's starting point
        steps.append(float(np.linalg.norm(w - v0)))   # alpha * |d| on the first step
        with np.errstate(over="ignore", invalid="ignore"):
            if len(steps) == 1:
                w = np.zeros_like(w)                     # exactly zero trial
            elif len(steps) == 2:
                w = w * 1e308 * 1e308                    # the trial overflows
            elif len(steps) == 3:
                w = w.copy()
                w[0] = 1e308                             # finite mass, its gradient overflows
                assert not np.isfinite(tri.gradient_components(w)).all()
            return real(tri, norm, p, w)

    with pytest.raises(ValueError):
        real(tri, norm, 3.0, np.zeros(tri.ndof))
    monkeypatch.setattr(eigensolve, "_evaluate", forced)
    with np.errstate(invalid="ignore"):
        v, r, it, res, reason = eigensolve._newton_stage(tri, kkt, norm, 3.0, start, 1e-8, 100)
    assert steps[1:4] == pytest.approx([steps[0] * 0.5 ** k for k in (1, 2, 3)], rel=1e-12)
    assert reason == "tol" and res <= 1e-8
    assert r == pytest.approx(clean[1], rel=1e-12)


# lambda_1 on the L-shape at h = 1/16 (default options) from the line search
# that evaluated every trial as a field: two sparse products, the norm kernel
# and a second mass pass per trial
LSHAPE_LAMBDA1 = {
    ("euclidean", 1.5): 16.247727608261904,
    ("euclidean", 3.0): 192.74806081324684,
    ("lq", 1.5): 15.401664246566963,
    ("lq", 3.0): 169.08606410539053,
    ("weighted_quadratic", 1.5): 27.506577449242737,
    ("weighted_quadratic", 3.0): 474.36538342052404,
}


@pytest.mark.parametrize("family, p", sorted(LSHAPE_LAMBDA1))
def test_ray_trials_keep_lambda1(family, p):
    r = fs.solve_lambda1(fs.rasterize(lshape_spec(), 1.0 / 16), ALL_NORMS[family], p)
    assert r.lam == pytest.approx(LSHAPE_LAMBDA1[family, p], rel=1e-12)


def test_descent_stages_log_one_debug_line_each(caplog):
    grid = fs.rasterize(lshape_spec(), 1.0 / 16)
    with caplog.at_level(logging.DEBUG, logger="finsler_spectra.eigensolve"):
        r = fs.solve_lambda1(grid, fs.lq_norm(3.0), 3.0)
    pattern = re.compile(r"newton stage p=(\S+) dofs=(\d+) steps=(\d+) factorizations=(\d+) "
                         r"trials=(\d+) parabola=(\d+) mu=(\S+) stop=(tol|floor|maxiter) residual=(\S+)$")
    built = re.compile(rf"newton matrix dofs={grid.interior_count} band=(\d+)$")
    messages = [rec.getMessage() for rec in caplog.records]
    # the one connected component's Newton matrix is built once, before its stages
    assert built.match(messages[0]) and 0 < int(built.match(messages[0])[1]) < grid.interior_count
    stages = [pattern.match(message) for message in messages[1:]]
    assert all(stages) and len(stages) == 2   # one Newton stage per rung: p=2, then p=3
    assert [float(m[1]) for m in stages] == [2.0, 3.0]
    assert all(int(m[2]) == grid.interior_count for m in stages)
    assert sum(int(m[3]) for m in stages) == r.iterations
    assert all(int(m[4]) >= int(m[3]) and int(m[5]) >= int(m[3]) + int(m[6])
               and int(m[6]) <= int(m[3]) and float(m[7]) >= 0.0 for m in stages)
    assert stages[-1][8] == "tol" and float(stages[-1][9]) <= 1e-8


# p = 1.5 from the p = 2 rung at h = 1/32: (domain, norm, lambda_1).  With the plain
# Armijo line search the p = 1.5 stage took 31, 20 and 17 Newton steps
PARABOLA_CASES = {
    "disk-euclidean": (fs.shape(fs.euclidean_disk((0.0, 0.0), 1.0)), fs.euclidean(), 4.04192975398339),
    "disk-lq3": (fs.shape(fs.euclidean_disk((0.0, 0.0), 1.0)), fs.lq_norm(3.0), 3.682519811429908),
    "square-euclidean": (unit_square_spec(), fs.euclidean(), 10.067073565921062),
}


@pytest.mark.parametrize("case", sorted(PARABOLA_CASES))
def test_p15_stage_takes_few_newton_steps(caplog, case):
    spec, norm, lam = PARABOLA_CASES[case]
    with caplog.at_level(logging.DEBUG, logger="finsler_spectra.eigensolve"):
        r = fs.solve_lambda1(fs.rasterize(spec, 1.0 / 32), norm, 1.5)
    stage = re.compile(r"newton stage p=1.5 dofs=\d+ steps=(\d+) .* stop=(\S+) residual=\S+$")
    (last,) = [m for m in map(stage.match, (rec.getMessage() for rec in caplog.records)) if m]
    # near the apex of u a full Newton step flips the apex value around its target;
    # the parabola's step size damps it
    assert int(last[1]) <= 12 and last[2] == "tol"
    assert r.lam == pytest.approx(lam, rel=1e-13)


def test_parabola_trial_never_raises_the_accepted_quotient(monkeypatch):
    """Inside one p = 1.5 stage, the quotient of each accepted step whose full step passed
    Armijo is the least of its trials, and so at most the full step's; on this disk the
    parabola's trial both wins and loses."""
    from finsler_spectra import eigensolve

    grid = fs.rasterize(fs.shape(fs.euclidean_disk((0.0, 0.0), 1.0)), 1.0 / 16)
    tri = eigensolve._triangulation(grid)
    kkt = eigensolve._NewtonMatrix(tri)
    norm = fs.euclidean()
    events = []
    evaluate, tangent = eigensolve._evaluate, eigensolve._tangent_gradient

    def recorded_evaluate(*args):
        out = evaluate(*args)
        events.append(("trial", out[2]))
        return out

    def recorded_tangent(tri, p, v, r, terms):
        events.append(("accepted", r))
        return tangent(tri, p, v, r, terms)

    class RecordedMatrix:
        def data(self, *args):
            return kkt.data(*args)

        def step(self, data, mu, g):
            d = kkt.step(data, mu, g)
            events.append(("step", None if d is None else eigensolve._dot(g, d)))
            return d

    monkeypatch.setattr(eigensolve, "_evaluate", recorded_evaluate)
    monkeypatch.setattr(eigensolve, "_tangent_gradient", recorded_tangent)
    start = eigensolve._linear_p2(grid, norm, 1).u.values
    _, lam, _, _, reason = eigensolve._newton_stage(tri, RecordedMatrix(), norm, 1.5, start, 1e-8, 100)
    assert reason == "tol" and events[:2] == [("trial", events[1][1]), ("accepted", events[1][1])]
    r, slope, trials, won, lost = events[1][1], None, [], 0, 0
    for kind, value in events[2:]:
        if kind == "step":
            slope, trials = value, []
        elif kind == "trial":
            trials.append(value)
        else:
            if trials[0] <= r + 1e-4 * slope:   # the full step passed Armijo
                assert len(trials) <= 2 and value == min(trials) <= trials[0]
                won += len(trials) == 2 and value < trials[0]
                lost += len(trials) == 2 and value == trials[0]
            r = value
    assert r == lam and won >= 2 and lost >= 1
    monkeypatch.undo()
    assert eigensolve._newton_stage(tri, kkt, norm, 1.5, start, 1e-8, 100)[1] == lam


@pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
@pytest.mark.parametrize("family", sorted(ALL_NORMS))
def test_a_stage_below_the_rounding_floor_stops_on_floor(caplog, family, p):
    # no residual reaches tol = 1e-300: every stage ends once a Newton step's predicted
    # decrease is rounding noise, at the value that the default tol gives
    from finsler_spectra.eigensolve import _exponent_ladder

    grid = fs.rasterize(unit_square_spec(), 1.0 / 8)
    norm = ALL_NORMS[family]
    with caplog.at_level(logging.DEBUG, logger="finsler_spectra.eigensolve"):
        r = fs.solve_lambda1(grid, norm, p, SolverOptions(tol=1e-300))
    stage = re.compile(r"newton stage p=\S+ dofs=\d+ steps=(\d+) .* stop=(\w+) residual=\S+$")
    stages = [m.groups() for m in map(stage.match, (rec.getMessage() for rec in caplog.records)) if m]
    assert len(stages) == len(_exponent_ladder(p))
    assert all(1 <= int(steps) <= 6 and reason == "floor" for steps, reason in stages)
    assert r.lam == pytest.approx(fs.solve_lambda1(grid, norm, p).lam, rel=1e-15)


def test_newton_step_is_none_when_the_border_vanishes(monkeypatch):
    # m = 0 makes m^T (L + mu I)^-1 m = 0: no step, and the stage retries at a larger mu
    from finsler_spectra import eigensolve

    grid = fs.rasterize(unit_square_spec(), 1.0 / 16)
    tri = fs.triangulate(grid)
    kkt = eigensolve._NewtonMatrix(tri)
    norm = fs.euclidean()
    v, gv, r, terms = eigensolve._evaluate(tri, norm, 3.0, fs.solve_linear_p2(grid, norm, 1).u.values)
    g, gm, _ = eigensolve._tangent_gradient(tri, 3.0, v, r, terms)
    entries, m = kkt.data(norm, 3.0, v, gv, terms, gm, r)
    assert kkt.step((entries, m), 0.0, g) is not None
    assert kkt.step((entries, 0.0 * m), 0.0, g) is None
    mus, step = [], kkt.step

    def none_first(data, mu, g):
        mus.append(mu)
        return None if len(mus) == 1 else step(data, mu, g)

    clean = eigensolve._newton_stage(tri, kkt, norm, 3.0, v, 1e-8, 100)
    monkeypatch.setattr(kkt, "step", none_first)
    _, lam, _, res, reason = eigensolve._newton_stage(tri, kkt, norm, 3.0, v, 1e-8, 100)
    assert mus[0] == 0.0 < mus[1] and reason == "tol" and res <= 1e-8
    assert lam == pytest.approx(clean[1], rel=1e-12)


def test_a_parabola_trial_that_raises_keeps_the_armijo_trial(monkeypatch, caplog):
    """A zero or overflowing parabola trial is no step: the full step that passed Armijo
    is taken, and the stage still converges."""
    from finsler_spectra import eigensolve

    grid = fs.rasterize(fs.shape(fs.euclidean_disk((0.0, 0.0), 1.0)), 1.0 / 16)
    tri = eigensolve._triangulation(grid)
    kkt = eigensolve._NewtonMatrix(tri)
    norm = fs.euclidean()
    start = eigensolve._linear_p2(grid, norm, 1).u.values
    clean = eigensolve._newton_stage(tri, kkt, norm, 1.5, start, 1e-8, 100)
    evaluate, tangent, step = eigensolve._evaluate, eigensolve._tangent_gradient, kkt.step
    state = {"v": None, "d": None, "trial": None, "raised": False}
    raised = []

    def parabola_raises(tri, norm, p, w):
        v, d = state["v"], state["d"]
        if v is not None:
            alpha = eigensolve._dot(w - v, d) / eigensolve._dot(d, d)
            if not any(abs(alpha - 0.5 ** k) <= 1e-9 for k in range(eigensolve._BACKTRACKS)):
                raised.append(alpha)
                state["raised"] = True
                raise ValueError("cannot normalize a zero or non-finite field")
        state["trial"] = evaluate(tri, norm, p, w)
        return state["trial"]

    def recorded_tangent(tri, p, v, r, terms):
        assert v is state["trial"][0]   # the accepted field is the last Armijo trial's
        state["v"], state["raised"] = v, False
        return tangent(tri, p, v, r, terms)

    def recorded_step(data, mu, g):
        assert not state["raised"]      # a raising parabola trial never costs a retry
        state["d"] = step(data, mu, g)
        return state["d"]

    monkeypatch.setattr(eigensolve, "_evaluate", parabola_raises)
    monkeypatch.setattr(eigensolve, "_tangent_gradient", recorded_tangent)
    monkeypatch.setattr(kkt, "step", recorded_step)
    with caplog.at_level(logging.DEBUG, logger="finsler_spectra.eigensolve"):
        _, lam, steps, res, reason = eigensolve._newton_stage(tri, kkt, norm, 1.5, start, 1e-8, 100)
    (line,) = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("newton stage")]
    assert len(raised) >= 3 and " parabola=0 " in line
    assert reason == "tol" and res <= 1e-8 and steps > clean[2]
    assert lam == pytest.approx(clean[1], rel=1e-10)


@pytest.fixture(scope="module")
def lshape_14():
    grid = fs.rasterize(lshape_spec(), 1.0 / 14)
    return grid, fs.triangulate(grid), reference_gradient_matrices(grid)


def test_stacked_gradient_operator_keeps_the_separate_matrices(lshape_14):
    _, tri, (Gx, Gy) = lshape_14
    for got, want in ((tri.Gx, Gx), (tri.Gy, Gy), (tri.GxT, Gx.T.tocsr()), (tri.GyT, Gy.T.tocsr())):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert same_bits(got.data, want.data)


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e300, 1e-300])
@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 8.0, 32.0])
@pytest.mark.parametrize("family", sorted(ALL_NORMS))
def test_lean_step_is_bit_identical_to_reference(lshape_14, family, p, eps, scale):
    """Each rewritten block of a BB step against its pre-rewrite reference copy
    (tests/conftest.py), on fields with exact zeros and peaks near 1e+-300.
    With eps > 0 the energy and gradient blocks run on terms whose F^2 is
    floored at eps^2, so no triangle has a zero gradient norm."""
    from finsler_spectra import eigensolve
    from finsler_spectra.fem import energy_from_terms, energy_terms, gradient_from_terms, mass_gradient

    _, tri, (Gx, Gy) = lshape_14
    norm = ALL_NORMS[family]
    rng = np.random.default_rng([int(p * 10), int(eps > 0)])
    base = rng.standard_normal(tri.ndof)
    base[rng.random(tri.ndof) < 0.15] = 0.0
    v = scale * base
    with np.errstate(all="ignore"):
        gv = tri.gradient_components(v)
        assert same_bits(gv[0], Gx @ v) and same_bits(gv[1], Gy @ v)
        c = eigensolve._mass_root(tri, v, p)
        assert same_bits(c, reference_mass_root(tri, v, p))
        u = v / c
        assert same_bits(mass_gradient(ScalarField(tri, u), p).values, reference_mass_gradient(tri, u, p))
        # terms of the raw field (F^2 peaks from about 1e-300 to overflow) and of the unit-mass one
        for comps in (gv, gv / c):
            terms = energy_terms(comps, norm)
            ref = reference_energy_terms(comps[0], comps[1], norm)
            assert all(same_bits(a, b) for a, b in zip(terms, ref))
            terms, ref = [(t[0] + eps * eps, *t[1:]) for t in (terms, ref)]
            assert same_bits(energy_from_terms(tri, terms, p), reference_energy_from_terms(tri, ref, p))
            assert same_bits(gradient_from_terms(tri, terms, p), reference_gradient_from_terms(tri, ref, p))
        r = energy_from_terms(tri, terms, p)
        assert math.isfinite(r) and r > 0.0
        g, gm, res = eigensolve._tangent_gradient(tri, p, u, r, terms)
        assert same_bits(g, reference_tangent_gradient(tri, p, u, r, ref))
        assert same_bits(gm, reference_mass_gradient(tri, u, p))
        assert same_bits(res, math.sqrt(float(np.einsum("i,i", g, g)) * float(np.einsum("i,i", u, u))) / r)
        for x in (u, g):
            assert same_bits(math.sqrt(x @ x), np.linalg.norm(x))
    for t in (1e-300, 1e-16, 0.37, 5.0, 1e12, 3e20):
        assert same_bits(min(max(t, 1e-16), 1e12), float(np.clip(t, 1e-16, 1e12)))


@pytest.mark.parametrize("name", list(assembly_grids()))
def test_newton_matrix_equals_the_reference_assembly(name):
    # read from the cell corners and the 7-point stencil, every array of the Newton matrix is the one
    # built from the COO terms of G^T K G, so the band LU and every iterate keep their bits
    from finsler_spectra.eigensolve import _NewtonMatrix

    tri = fs.triangulate(assembly_grids()[name])
    kkt = _NewtonMatrix(tri)
    perm, rank, rows, cols, w, band, mapping = reference_newton_arrays(tri.G, tri.area, tri.ndof)
    ours = (kkt.perm, kkt.rank, kkt.rows, kkt.cols, *kkt.band)
    for ours, ref in zip(ours, (perm, rank, rows, cols, *band)):
        assert ours.dtype == ref.dtype and np.array_equal(ours, ref)
    assert kkt.w == w and type(kkt.w) is int
    assert same_sparse(kkt.map, mapping)


@pytest.mark.parametrize("family", list(ALL_NORMS))
@pytest.mark.parametrize("name", list(assembly_grids()))
def test_stiffness_equals_the_reference_products(name, family):
    from finsler_spectra.eigensolve import _stiffness

    tri = fs.triangulate(assembly_grids()[name])
    assert same_sparse(_stiffness(tri, ALL_NORMS[family]), reference_stiffness(tri, ALL_NORMS[family]))
