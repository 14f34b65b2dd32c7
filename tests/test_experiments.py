import json
import logging
import os

import numpy as np
import pytest

import finsler_spectra as fs
from finsler_spectra import cli
from finsler_spectra.experiments import (
    ExperimentConfig,
    emit_report,
    recheck,
    report_csv,
    report_json,
    run,
)


def square_domain():
    return [{"type": "rectangle", "mode": "add", "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 1.0}]


def base_cfg(**over):
    d = {
        "experiment": "lambda1",
        "domain": square_domain(),
        "norm": {"family": "euclidean"},
        "h": 1.0 / 32,
        "p_list": [2.0],
    }
    d.update(over)
    return ExperimentConfig.from_dict(d)


def test_config_parse_and_echo(tmp_path):
    raw = {
        "experiment": "faber_krahn",
        "domain": square_domain(),
        "norm": {"family": "weighted_quadratic", "a1": 4.0, "a2": 1.0},
        "h": 0.03125,
        "p_list": [1.5, 2],
        "solver": {"max_iter": 500, "tol": 1e-6},
        "tolerance": 0.02,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = ExperimentConfig.from_json(str(path))
    assert cfg.solver.max_iter == 500
    assert cfg.tolerance == 0.02
    echo = cfg.echo()
    assert echo["norm"] == raw["norm"]
    assert echo["p_list"] == [1.5, 2.0]


def test_config_validation():
    with pytest.raises(ValueError):
        base_cfg(experiment="bogus")
    with pytest.raises(ValueError):
        base_cfg(h=0.0)
    with pytest.raises(ValueError):
        base_cfg(p_list=[])


@pytest.mark.parametrize("h", [float("nan"), float("inf")])
def test_config_rejects_non_finite_h(h):
    with pytest.raises(ValueError, match="h must be finite"):
        base_cfg(h=h)


def test_config_rejects_bad_domain_fields():
    disk = {"type": "euclidean_disk", "center": [0.0, 0.0], "radius": -1.0}
    with pytest.raises(ValueError, match="radius"):
        base_cfg(domain=[disk])
    rect = dict(square_domain()[0], x0=1.0, x1=0.5)
    with pytest.raises(ValueError, match="x1 > x0"):
        base_cfg(domain=[rect])


def test_debug_log_leaves_distance_report_unchanged(tmp_path, caplog):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "distance", "domain": square_domain(),
                                    "norm": {"family": "lq", "q": 3.0}, "h": 1.0 / 24}))
    reports = []
    for level in (logging.ERROR, logging.DEBUG):
        out = tmp_path / logging.getLevelName(level)
        with caplog.at_level(level, logger="finsler_spectra"):
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert any(r.getMessage().startswith("sup_rayleigh:") for r in caplog.records)
    assert reports[0] == reports[1]


def test_run_lambda1_and_lambda2():
    rep = run(base_cfg())
    assert rep.records[0]["lambda"] == pytest.approx(2 * np.pi ** 2, rel=0.01)
    assert rep.passed
    rep2 = run(base_cfg(experiment="lambda2"))
    assert rep2.records[0]["lambda2"] == pytest.approx(5 * np.pi ** 2, rel=0.05)


def test_run_faber_krahn_square():
    rep = run(base_cfg(experiment="faber_krahn"))
    assert rep.passed
    rec = rep.records[0]
    # analytic sanity: 2 pi^2 * |Omega| versus pi * j01^2 (raster measure < 1)
    assert rec["left"] == pytest.approx(rec["measure"] * rec["lambda1"], rel=1e-12)
    assert rec["left"] == pytest.approx(2 * np.pi ** 2, rel=0.08)
    assert rec["right"] == pytest.approx(np.pi * 5.7832, rel=0.05)
    # analytic ratio is 1.0865; rasterization at h=1/32 eats part of the margin
    assert 1.0 < rec["ratio"] < 1.09


def test_run_hks_square():
    rep = run(base_cfg(experiment="hks"))
    assert rep.passed
    rec = rep.records[0]
    assert rec["lambda2"] == pytest.approx(5 * np.pi ** 2, rel=0.05)
    # reference: lambda_1 of a disk of measure 1/2 is 2 pi * j01^2 = 36.34;
    # at h=1/32 the small reference disk rasterizes about 10% stiff
    assert rec["lambda2_ref"] == pytest.approx(2 * np.pi * 5.7832, rel=0.12)


def test_hks_normalized_ratio_scale_invariant():
    rep1 = run(base_cfg(experiment="hks"))
    scaled = [{"type": "rectangle", "mode": "add", "x0": 0.0, "y0": 0.0, "x1": 2.0, "y1": 2.0}]
    rep2 = run(base_cfg(experiment="hks", domain=scaled, h=2.0 / 32))
    r1 = rep1.records[0]["normalized_ratio"]
    r2 = rep2.records[0]["normalized_ratio"]
    assert r2 == pytest.approx(r1, rel=0.01)
    assert rep1.passed == rep2.passed


def test_run_p_limit_structure():
    rep = run(base_cfg(experiment="p_limit", p_list=[2.0, 4.0]))
    names = [c["name"] for c in rep.checks]
    assert names == ["gap1_decreasing", "gap1_final", "gap2_decreasing", "gap2_final"]
    recs = rep.records
    assert recs[0]["rho_f"] == pytest.approx(0.5, abs=1 / 32)
    assert recs[0]["gap1"] > recs[1]["gap1"]
    gap_checks = {c["name"]: c for c in rep.checks}
    assert gap_checks["gap1_decreasing"]["passed"]
    # p stops at 4, far from the asymptote: the final-gap check must fail
    assert not gap_checks["gap1_final"]["passed"]
    assert not rep.passed


def test_run_distance():
    rep = run(base_cfg(experiment="distance"))
    assert rep.passed
    rec = rep.records[0]
    assert rec["rho_f"] == pytest.approx(0.5, abs=1 / 32)
    assert rec["identity_margin"] <= 0.05
    assert rec["eikonal_bulk_fraction"] >= 0.95


def test_run_duality_all_families():
    for norm in ({"family": "euclidean"},
                 {"family": "weighted_quadratic", "a1": 4.0, "a2": 1.0},
                 {"family": "lq", "q": 3.0}):
        rep = run(base_cfg(experiment="duality", norm=norm))
        assert rep.passed
        assert rep.records[0]["max_residual"] <= 1e-8


def test_checks_recompute_from_serialized_sides():
    rep = run(base_cfg(experiment="faber_krahn", p_list=[1.5, 2.0]))
    payload = json.loads(report_json(rep))
    for chk in payload["checks"]:
        assert recheck(chk) == chk["passed"]


def test_report_json_round_trip():
    rep = run(base_cfg(experiment="distance"))
    text = report_json(rep)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_report_csv_rows():
    rep = run(base_cfg(experiment="faber_krahn", p_list=[1.5, 2.0]))
    lines = report_csv(rep).strip().split("\n")
    assert len(lines) == 1 + 2


def test_emit_report_formats(tmp_path):
    rep = run(base_cfg(experiment="p_limit", p_list=[2.0, 4.0]))
    for fmt, name in (("json", "report.json"), ("csv", "report.csv"), ("svg-data", "plot_data.json")):
        paths = emit_report(rep, str(tmp_path), fmt)
        assert paths == [str(tmp_path / name)]
        assert (tmp_path / name).exists()
    plot = json.loads((tmp_path / "plot_data.json").read_text())
    assert {s["name"] for s in plot["series"]} == {
        "lambda1_root", "lambda2_root", "monotone_diagnostic"}
    assert plot["asymptotes"][0]["name"] == "one_over_rho_f"
    with pytest.raises(ValueError):
        emit_report(rep, str(tmp_path), "xml")


def test_determinism_byte_identical():
    cfgs = [
        base_cfg(experiment="duality", norm={"family": "lq", "q": 3.0}),
        base_cfg(experiment="distance"),
        base_cfg(experiment="faber_krahn"),
        base_cfg(experiment="p_limit", p_list=[2.0, 3.0]),
    ]
    first = [report_json(run(c)) + report_csv(run(c)) for c in cfgs]
    second = [report_json(run(c)) + report_csv(run(c)) for c in cfgs]
    assert first == second


def test_threads_do_not_change_output():
    cfg = base_cfg(experiment="faber_krahn", p_list=[1.5, 2.0, 3.0])
    a = report_json(run(cfg, threads=1))
    b = report_json(run(cfg, threads=3))
    assert a == b


def test_cli_run_and_check_duality(tmp_path, capsys):
    cfg = {
        "experiment": "distance",
        "domain": square_domain(),
        "norm": {"family": "euclidean"},
        "h": 1.0 / 32,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "report.json").exists()
    captured = capsys.readouterr()
    assert "report.json" in captured.out

    code = cli.main(["check-duality", "--norm", '{"family": "lq", "q": 3.0}',
                     "--samples", "50"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_residual"] <= 1e-8


def test_cli_exit_code_reflects_failed_checks(tmp_path):
    cfg = {
        "experiment": "p_limit",
        "domain": square_domain(),
        "norm": {"family": "euclidean"},
        "h": 1.0 / 32,
        "p_list": [2.0, 4.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 1


def test_cli_rejects_unknown_format(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    with pytest.raises(SystemExit):
        cli.main(["run", "--config", str(cfg_path), "--format", "xml"])
