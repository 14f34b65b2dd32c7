"""Tests of the benchmark's own checks, references and tracer.

    python3 -m pytest bench/tests -q

Each check must pass on the program's output and fail on a perturbed copy;
a traced round must leave every rebound name restored and write the same
report bytes as an untraced round.
"""
import copy

import numpy as np
import pytest

import checks
import reference as ref
import workloads as wl
from tracer import METRICS, Tracer
from worker import run_rounds

H = 1.0 / 8
SQUARE = wl.DOMAINS["square"]
EUCLID = wl.NORMS["euclidean"]


def _run_config(tmp_path, name, cfg):
    op = wl.config_op(str(tmp_path), name, cfg, lambda rep, rc, outputs: [])
    out = op.run()
    return out.live, out.rc


@pytest.fixture(scope="module")
def fk(tmp_path_factory):
    h = 1.0 / 16  # coarser grids break the Faber-Krahn margin of the square
    cfg = wl._config("faber_krahn", SQUARE, EUCLID, h, [1.5, 2.0, 3.0], {"max_iter": 2500})
    rep, rc = _run_config(tmp_path_factory.mktemp("fk"), "fk", cfg)
    refs = wl.References()
    wp = wl.wulff_prims(EUCLID)
    return rep, rc, {
        "kappa": ref.wulff_area(EUCLID),
        "measure": 15 * 15 * h * h,
        "lam1_5pt": wl._first(refs.five_point(SQUARE, h, EUCLID)),
        "lam1_wulff_5pt": wl._first(refs.five_point(wp, h, EUCLID)),
        "rectangle": refs.rectangle("square", SQUARE, h, EUCLID),
        "quotient": refs.quotients(SQUARE, h, EUCLID, [1.5, 2.0, 3.0]),
        "quotient_wulff": refs.quotients(wp, h, EUCLID, [1.5, 2.0, 3.0]),
    }


@pytest.fixture(scope="module")
def distance(tmp_path_factory):
    prims = wl.DOMAINS["l_shape"]
    norm = wl.NORMS["lq"]
    rep, rc = _run_config(tmp_path_factory.mktemp("dist"), "dist", wl._config("distance", prims, norm, 1.0 / 24))
    return rep, rc, wl._distance_check(wl.References(), prims, norm, 1.0 / 24)


def _scale_lambda(rep, p, factor):
    out = copy.deepcopy(rep)
    for r in out["records"]:
        if r["p"] == p:
            r["lambda1"] *= factor
            r["left"] = r["measure"] ** (p / 2) * r["lambda1"]
            r["ratio"] = r["left"] / r["right"]
    return out


def test_faber_krahn_checks_pass_on_program_output(fk):
    rep, rc, refs = fk
    assert checks.check_faber_krahn(rep, rc, refs) == []


def test_lambda_scaled_by_one_percent_fails(fk):
    rep, rc, refs = fk
    found = checks.check_faber_krahn(_scale_lambda(rep, 2.0, 1.01), rc, refs)
    assert any("5-point value" in msg for msg in found)
    assert any("continuum" in msg or "pi^2" in msg for msg in found)


def test_non_increasing_root_fails(fk):
    rep, rc, refs = fk
    r2, r3 = rep["records"][1], rep["records"][2]
    # lambda_1(3) that makes 3 * lambda_1(3)^(1/3) equal 2 * lambda_1(2)^(1/2)
    target = (2.0 * r2["lambda1"] ** 0.5 / 3.0) ** 3
    found = checks.check_faber_krahn(_scale_lambda(rep, 3.0, target / r3["lambda1"]), rc, refs)
    assert any("not strictly increasing" in msg for msg in found)


def test_lambda_above_distance_quotient_fails(fk):
    rep, rc, refs = fk
    found = checks.check_faber_krahn(_scale_lambda(rep, 3.0, 1e3), rc, refs)
    assert any("distance-field quotient" in msg for msg in found)


def test_distance_checks_pass_and_catch_moved_radii(distance):
    rep, rc, check = distance
    assert check(rep, rc, {}) == []
    for key in ("rho_f", "rho_2f"):
        moved = copy.deepcopy(rep)
        moved["records"][0][key] += 1.0 / 24
        assert any("brute force" in msg for msg in check(moved, rc, {})), key
    low = copy.deepcopy(rep)
    low["records"][0]["eikonal_bulk_fraction"] = 0.9
    assert any("eikonal" in msg for msg in check(low, rc, {}))


def test_flipped_pass_flag_fails(distance):
    rep, rc, check = distance
    flipped = copy.deepcopy(rep)
    flipped["checks"][0]["passed"] = not flipped["checks"][0]["passed"]
    assert any("flag" in msg for msg in check(flipped, rc, {}))


def test_p_limit_gap_and_growth_checks():
    rho, rho2 = 0.5, 0.3
    recs = []
    # lambda^(1/p) * rho = 1 + gap with gaps shrinking in p
    for p, g1, g2 in ((2.0, 0.5, 0.4), (4.0, 0.3, 0.2), (8.0, 0.15, 0.1)):
        lam1, lam2 = ((1 + g1) / rho) ** p, ((1 + g2) / rho2) ** p
        recs.append({"p": p, "lambda1": lam1, "lambda2": lam2, "rho_f": rho, "rho_2f": rho2,
                     "gap1": abs(lam1 ** (1 / p) * rho - 1), "gap2": abs(lam2 ** (1 / p) * rho2 - 1),
                     "monotone_diagnostic": p * lam1 ** (1 / p)})
    rep = {"records": recs, "checks": [], "passed": True}
    refs = {"h": H, "rho_f": rho, "rho_2f": rho2, "quotient": {r["p"]: 1e30 for r in recs},
            "lam_5pt": (recs[0]["lambda1"], recs[0]["lambda2"]), "rectangle": None}
    assert checks.check_p_limit(rep, 0, refs) == []
    grows = copy.deepcopy(rep)
    grows["records"][2]["gap1"] = grows["records"][1]["gap1"] + 0.01
    assert any("gap1" in msg for msg in checks.check_p_limit(grows, 0, refs))
    crossed = copy.deepcopy(rep)
    crossed["records"][1]["lambda2"] = crossed["records"][1]["lambda1"] / 2
    assert any("lambda_2(4)" in msg for msg in checks.check_p_limit(crossed, 0, refs))
    moved = copy.deepcopy(rep)
    for r in moved["records"]:
        r["rho_f"] += H
    assert any("rho_F against brute force" in msg for msg in checks.check_p_limit(moved, 0, refs))


def test_lambda2_upper_bound_check(tmp_path):
    rep, rc = _run_config(tmp_path, "l2", wl._config("lambda2", SQUARE, EUCLID, H))
    lam = tuple(float(v) for v in ref.five_point_eigenvalues(wl.References().grid(SQUARE, H).mask, H, 1.0, 1.0))
    found = checks.check_lambda2(rep, rc, {"h": H, "lam_5pt": lam})
    assert [m for m in found if not m.startswith("upper bound")] == []
    at_ref = copy.deepcopy(rep)
    at_ref["records"][0].update(lambda2=lam[1], lambda1_part1=lam[1], lambda1_part2=lam[1])
    assert checks.check_lambda2(at_ref, rc, {"h": H, "lam_5pt": lam}) == []
    at_ref["records"][0].update(lambda2=lam[1] / 1.01, lambda1_part1=lam[1] / 1.01)
    assert any(m.startswith("upper bound") for m in checks.check_lambda2(at_ref, rc, {"h": H, "lam_5pt": lam}))


def test_five_point_reference_matches_the_rectangle_lattice():
    grid = wl.References().grid(wl.DOMAINS["rect_2x1"], H)
    got = ref.five_point_eigenvalues(grid.mask, H, 4.0, 1.0)[0]
    assert got == pytest.approx(ref.rectangle_lattice_eigenvalue((2.0, 1.0), H, 4.0, 1.0), rel=1e-10)


def test_wulff_area_matches_quadrature():
    theta = (np.arange(200000) + 0.5) * (2 * np.pi / 200000)
    for norm in wl.NORMS.values():
        r = 1.0 / ref.norm_value(ref.polar_of(norm), np.cos(theta), np.sin(theta))
        assert ref.wulff_area(norm) == pytest.approx(0.5 * np.sum(r * r) * 2 * np.pi / 200000, rel=1e-9)


def test_pruned_packing_equals_all_pairs():
    refs = wl.References()
    for norm in wl.NORMS.values():
        grid = refs.grid(wl.DOMAINS["l_shape"], 1.0 / 16)
        px, py = ref.node_xy(grid.origin, grid.h, np.argwhere(grid.mask))
        d = refs.distance(wl.DOMAINS["l_shape"], 1.0 / 16, norm)[grid.mask]
        full = ref.packing_radius(px, py, d, norm)
        assert ref.packing_radius(px, py, d, norm, floor=full - 1e-9) == full


def test_geometry_call_check_catches_a_wrong_distance():
    out = wl._fine_calls(wl.DOMAINS["square"])
    check = wl._fine_check("fine", seed=3, index=0)
    assert check({"fine": out}) == []
    grid, live = out.live
    field = live["euclidean"][0]
    field.d[grid.mask] *= 1.0 + 1e-9
    assert any("distance at sample node" in msg for msg in check({"fine": out}))


def test_traced_round_restores_names_and_reproduces_reports(tmp_path):
    import finsler_spectra
    import finsler_spectra.eigensolve as eig
    from finsler_spectra.geometry import DomainGrid

    ops = [
        wl.config_op(str(tmp_path), "hks", wl._config("hks", SQUARE, wl.NORMS["lq"], H, [2.0, 3.0]), None),
        wl.config_op(str(tmp_path), "dist", wl._config("distance", SQUARE, EUCLID, 1.0 / 16), None),
        wl.Op("fine", lambda: wl._fine_calls(wl.DOMAINS["l_shape"]), None),
    ]
    before = (finsler_spectra.solve_lambda1, eig.triangulate, DomainGrid.subgrid)
    plain, *_ = run_rounds(ops, 0.0)
    tracer = Tracer()
    tracer.install()
    try:
        assert eig.triangulate is not before[1] and DomainGrid.subgrid is not before[2]
        traced, *_ = run_rounds(ops, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert before == (finsler_spectra.solve_lambda1, eig.triangulate, DomainGrid.subgrid)
    for op in ops:
        assert traced[op.name].data == plain[op.name].data, op.name
    metrics = tracer.metrics()
    assert set(metrics) == set(METRICS)
    assert metrics["experiments.run.calls"] == 2
    assert metrics["eigensolve.lambda2.calls"] == 2
    assert metrics["eigensolve.part_solves"] > 0
    # one per lambda_2 split search (p = 2, 3), one distance config, three fine-grid norms
    assert metrics["distance.transform.calls"] == 2 + 1 + 3
    assert 0 < metrics["fem.accepted_per_trial"] <= 1
