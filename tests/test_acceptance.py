"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s; shown on
failure regardless).  Heavy solves are shared through session fixtures.
Target: the whole module in well under fifteen minutes on a laptop.
"""
import json

import numpy as np
import pytest

import finsler_spectra as fs
from finsler_spectra.distance import (
    distance_transform,
    eikonal_bulk_fraction,
    inradius,
    sup_rayleigh,
    two_wulff_radius,
)
from finsler_spectra.eigensolve import SolverOptions
from finsler_spectra.experiments import (
    ExperimentConfig,
    report_csv,
    report_json,
    report_plot_data,
    run,
)
from finsler_spectra.fem import ScalarField

from conftest import (
    ALL_NORMS,
    brute_force_two_wulff,
    lshape_spec,
    rect21_spec,
    two_disk_spec,
    unit_square_spec,
)

MATRIX_H = 1.0 / 48
MATRIX_P = (1.5, 2.0, 3.0)
MATRIX_SOLVER = {"max_iter": 2500}
MATRIX_DOMAINS = {
    "square": unit_square_spec,
    "l_shape": lshape_spec,
    "rect_2x1": rect21_spec,
    "two_disks": lambda: two_disk_spec(1.0, 0.75, 3.0),
}


def report_line(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def cfg_for(experiment, spec, norm, h, p_list, solver=None, **extra):
    d = {
        "experiment": experiment,
        "domain": spec.to_dict(),
        "norm": norm.to_dict(),
        "h": h,
        "p_list": list(p_list),
    }
    if solver:
        d["solver"] = solver
    d.update(extra)
    return ExperimentConfig.from_dict(d)


def test_criterion_01_norm_duality():
    worst = {}
    for name, norm in sorted(ALL_NORMS.items()):
        worst[name] = fs.check_duality(norm, 100).max_residual
    ok = all(v <= 1e-8 for v in worst.values())
    assert report_line("01 duality", ok, f"max residuals {worst}")
    assert ok


def test_criterion_02_p2_oracle_agreement():
    domains = {
        "square": unit_square_spec(),
        "disk": fs.shape(fs.euclidean_disk((0.0, 0.0), 1.0)),
        "rect_2x1": rect21_spec(),
        "two_component": two_disk_spec(1.0, 0.75, 3.0),
    }
    worst = 0.0
    for dname, spec in sorted(domains.items()):
        grid = fs.rasterize(spec, 1.0 / 64)
        for norm in (fs.euclidean(), fs.weighted_quadratic(4, 1)):
            lin = fs.solve_linear_p2(grid, norm, 1)
            non = fs.solve_lambda1(grid, norm, 2.0)
            worst = max(worst, abs(non.lam / lin.lam - 1.0))
    ok = worst <= 1e-6
    assert report_line("02 p2 oracle agreement", ok, f"worst relative gap {worst:.2e}")
    assert ok


def test_criterion_03_analytic_eigenvalues(square_128):
    lam1 = fs.solve_lambda1(square_128, fs.euclidean(), 2.0).lam
    lam2 = fs.solve_lambda2(square_128, fs.euclidean(), 2.0).lambda2
    rect = fs.rasterize(fs.shape(fs.rectangle(0.0, 0.0, 1.0, 2.0)), 1.0 / 128)
    lam_rect = fs.solve_lambda1(rect, fs.weighted_quadratic(4.0, 1.0), 2.0).lam
    # 4 d_xx + 1 d_yy on (0,1) x (0,2) separates to 4 pi^2 + pi^2/4
    target_rect = 4 * np.pi ** 2 + np.pi ** 2 / 4.0
    e1 = abs(lam1 / (2 * np.pi ** 2) - 1)
    e2 = abs(lam2 / (5 * np.pi ** 2) - 1)
    e3 = abs(lam_rect / target_rect - 1)
    ok = e1 <= 0.01 and e2 <= 0.02 and e3 <= 0.015
    assert report_line(
        "03 analytic eigenvalues", ok,
        f"lam1 err {e1:.4f} (<=1%), lam2 err {e2:.4f} (<=2%), rect err {e3:.4f} (<=1.5%)")
    assert ok


@pytest.fixture(scope="module")
def fk_matrix_reports():
    reports = {}
    for dname, spec_fn in MATRIX_DOMAINS.items():
        for nname, norm in ALL_NORMS.items():
            cfg = cfg_for("faber_krahn", spec_fn(), norm, MATRIX_H, MATRIX_P, MATRIX_SOLVER)
            reports[dname, nname] = run(cfg)
    return reports


def test_criterion_04_faber_krahn(fk_matrix_reports):
    failures = [key for key, rep in fk_matrix_reports.items() if not rep.passed]
    eq_worst = 0.0
    for nname, norm in ALL_NORMS.items():
        spec = fs.shape(fs.wulff((0.3, -0.2), 0.8, norm))
        rep = run(cfg_for("faber_krahn", spec, norm, 1.0 / 48, MATRIX_P, MATRIX_SOLVER))
        for rec in rep.records:
            eq_worst = max(eq_worst, abs(rec["ratio"] - 1.0))
    ok = not failures and eq_worst <= 0.03
    assert report_line(
        "04 Faber-Krahn", ok,
        f"matrix failures {failures}, worst equality deviation {eq_worst:.4f} (<=3%)")
    assert ok


def test_criterion_05_hong_krahn_szego():
    failures = []
    for dname, spec_fn in MATRIX_DOMAINS.items():
        for nname, norm in ALL_NORMS.items():
            cfg = cfg_for("hks", spec_fn(), norm, MATRIX_H, MATRIX_P, MATRIX_SOLVER)
            rep = run(cfg)
            if not rep.passed:
                failures.append((dname, nname))
    eq_worst = 0.0
    for nname, norm in ALL_NORMS.items():
        spec = fs.shape(fs.wulff((0.0, 0.0), 0.8, norm), fs.wulff((3.0, 0.0), 0.8, norm))
        rep = run(cfg_for("hks", spec, norm, 1.0 / 48, MATRIX_P, MATRIX_SOLVER))
        for rec in rep.records:
            eq_worst = max(eq_worst, abs(rec["ratio"] - 1.0))
    ok = not failures and eq_worst <= 0.03
    assert report_line(
        "05 Hong-Krahn-Szego", ok,
        f"matrix failures {failures}, worst equality deviation {eq_worst:.4f} (<=3%)")
    assert ok


def test_criterion_06_scaling_and_monotonicity(square_64):
    # scaling at matched resolution
    worst_scale = 0.0
    spec = unit_square_spec()
    for p in (2.0, 3.0):
        a = fs.solve_lambda1(fs.rasterize(spec, 1.0 / 48), fs.euclidean(), p)
        b = fs.solve_lambda1(fs.rasterize(fs.scale_domain(spec, 2.0), 2.0 / 48), fs.euclidean(), p)
        worst_scale = max(worst_scale, abs(b.lam / (2.0 ** (-p) * a.lam) - 1.0))

    # nested-domain monotonicity, exact through injected fields
    h = 1.0 / 48
    small = fs.rasterize(fs.shape(fs.rectangle(0.25, 0.125, 0.875, 0.75)), h)
    big = fs.rasterize(spec, h)
    tri_big = fs.triangulate(big)
    di = round((small.origin[0] - big.origin[0]) / h)
    dj = round((small.origin[1] - big.origin[1]) / h)
    mono_ok = True
    for p in (2.0, 3.0):
        rs = fs.solve_lambda1(small, fs.euclidean(), p)
        arr = np.zeros((big.nx, big.ny))
        arr[di:di + small.nx, dj:dj + small.ny] = rs.u.as_grid_array()
        lifted = ScalarField.from_grid_array(tri_big, arr)
        quot = fs.rayleigh_quotient(lifted, fs.euclidean(), p)
        rb = fs.solve_lambda1(big, fs.euclidean(), p)
        mono_ok = mono_ok and quot == pytest.approx(rs.lam, rel=1e-12) and rb.lam <= quot * (1 + 1e-6)

    # strict growth of p * lambda_1^{1/p}
    diag = []
    for p in (1.5, 2.0, 3.0, 4.0, 8.0):
        r = fs.solve_lambda1(square_64, fs.euclidean(), p)
        diag.append(p * r.lam ** (1.0 / p))
    increasing = all(b > a for a, b in zip(diag, diag[1:]))

    ok = worst_scale <= 0.02 and mono_ok and increasing
    assert report_line(
        "06 scaling and monotonicity", ok,
        f"scaling err {worst_scale:.2e} (<=2%), injection monotone {mono_ok}, "
        f"p*lam^(1/p) {np.round(diag, 3).tolist()} increasing {increasing}")
    assert ok


def test_criterion_07_two_nodal_domains(square_128):
    counts = {}
    tri_sq = fs.triangulate(square_128)
    b = fs.solve_lambda2(square_128, fs.euclidean(), 2.0)
    counts["square"] = fs.nodal_domains(b.signed_field(tri_sq))[0]
    disk = fs.rasterize(fs.shape(fs.euclidean_disk((0.0, 0.0), 1.0)), 1.0 / 128)
    tri_d = fs.triangulate(disk)
    bd = fs.solve_lambda2(disk, fs.euclidean(), 2.0)
    counts["disk"] = fs.nodal_domains(bd.signed_field(tri_d))[0]
    ok = counts == {"square": 2, "disk": 2}
    assert report_line("07 two nodal domains", ok, f"counts {counts}")
    assert ok


def test_criterion_08_distance_identities():
    h = 1.0 / 64
    grid = fs.rasterize(unit_square_spec(), h)
    df = distance_transform(grid, fs.euclidean())
    rho, _ = inradius(df)
    tri = fs.triangulate(grid)
    identity = sup_rayleigh(df.as_field(tri), fs.euclidean()) * rho
    frac = eikonal_bulk_fraction(df, fs.euclidean(), tri)
    rho2 = two_wulff_radius(df, fs.euclidean()).rho2

    grid32 = fs.rasterize(unit_square_spec(), 1.0 / 32)
    df32 = distance_transform(grid32, fs.euclidean())
    pack32 = two_wulff_radius(df32, fs.euclidean())
    oracle32 = brute_force_two_wulff(grid32, fs.euclidean(), df32.d)

    ok = (
        abs(rho - 0.5) <= h
        and abs(identity - 1.0) <= 0.05
        and frac >= 0.95
        and abs(rho2 - 0.2929) <= 2 * h
        and abs(pack32.rho2 - oracle32) <= 1e-12
    )
    assert report_line(
        "08 distance identities", ok,
        f"rho {rho:.4f} (0.5 +- {h:.4f}), identity {identity:.4f} (1 +- 0.05), "
        f"eikonal bulk {frac:.3f} (>=0.95), rho2 {rho2:.4f} (0.2929 +- {2 * h:.4f}), "
        f"brute-force gap {abs(pack32.rho2 - oracle32):.1e}")
    assert ok


@pytest.fixture(scope="module")
def square_p_limit_report():
    cfg = cfg_for("p_limit", unit_square_spec(), fs.euclidean(), 1.0 / 64,
                  (2.0, 4.0, 8.0, 16.0, 32.0))
    return run(cfg)


@pytest.fixture(scope="module")
def two_wulff_p_limit_report():
    spec = two_disk_spec(1.0, 1.0, 3.0)
    cfg = cfg_for("p_limit", spec, fs.euclidean(), 1.0 / 32, (2.0, 4.0, 8.0, 16.0, 32.0))
    return run(cfg)


def test_criterion_09a_limits_on_square(square_p_limit_report):
    rep = square_p_limit_report
    gaps1 = [r["gap1"] for r in rep.records]
    gaps2 = [r["gap2"] for r in rep.records]
    dec1 = all(b < a for a, b in zip(gaps1, gaps1[1:]))
    dec2 = all(b < a for a, b in zip(gaps2, gaps2[1:]))
    ok = dec1 and dec2 and gaps1[-1] <= 0.2 and gaps2[-1] <= 0.2
    assert report_line(
        "09a p-limits on the square", ok,
        f"gap1 {np.round(gaps1, 4).tolist()} gap2 {np.round(gaps2, 4).tolist()} "
        f"(monotone, final <=0.2)")
    assert ok


def test_criterion_09b_limits_on_two_wulff_shapes(two_wulff_p_limit_report):
    rep = two_wulff_p_limit_report
    last = rep.records[-1]
    lam_equal = abs(last["lambda2"] / last["lambda1"] - 1.0) <= 1e-9
    gap1, gap2 = last["gap1"], last["gap2"]
    ok = gap1 <= 0.15 and gap2 <= 0.15 and lam_equal
    report_line(
        "09b p-limits on two equal Wulff shapes", ok,
        f"gap1 {gap1:.4f}, gap2 {gap2:.4f} (stated bound 0.15; the true "
        f"asymptotic gap of a disk-like component at p=32 is about 0.21, "
        f"decaying like log(p)/p), lambda1 == lambda2: {lam_equal}")
    assert lam_equal
    assert gap1 <= 0.15 and gap2 <= 0.15


def test_criterion_10_determinism(tmp_path):
    configs = [
        cfg_for("duality", unit_square_spec(), fs.lq_norm(3.0), 1.0 / 32, [2.0]),
        cfg_for("distance", unit_square_spec(), fs.weighted_quadratic(4, 1), 1.0 / 32, [2.0]),
        cfg_for("lambda1", rect21_spec(), fs.euclidean(), 1.0 / 32, [2.0, 3.0]),
        cfg_for("lambda2", unit_square_spec(), fs.euclidean(), 1.0 / 32, [2.0]),
        cfg_for("faber_krahn", lshape_spec(), fs.euclidean(), 1.0 / 32, [2.0]),
        cfg_for("hks", two_disk_spec(1.0, 0.75, 3.0), fs.euclidean(), 1.0 / 32, [2.0]),
        cfg_for("p_limit", unit_square_spec(), fs.euclidean(), 1.0 / 32, [2.0, 4.0]),
    ]

    def render_all():
        out = []
        for cfg in configs:
            rep = run(cfg)
            out.append(report_json(rep) + report_csv(rep) + report_plot_data(rep))
        return out

    first = render_all()
    second = render_all()
    ok = first == second
    assert report_line("10 determinism", ok,
                       f"{len(configs)} experiment reports byte-identical on re-run: {ok}")
    assert ok
