import json
import logging
import os
import re
import time

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


def test_config_rejects_a_grid_above_the_node_limit_at_parse_time(monkeypatch):
    from finsler_spectra import experiments

    def no_rasterize(*args, **kwargs):
        raise AssertionError("the config was rasterized while it was parsed")

    monkeypatch.setattr(experiments, "rasterize", no_rasterize)
    with pytest.raises(ValueError, match=r"h=1e-07 gives a \d+ x \d+ node grid"):
        base_cfg(h=1e-7)
    monkeypatch.undo()  # a config that parses is rasterized once, for its interior node count
    assert base_cfg(h=1.0 / 256).h == 1.0 / 256


def test_config_rejects_a_reference_shape_above_the_node_limit_at_parse_time(monkeypatch):
    from finsler_spectra import experiments

    from conftest import ALL_NORMS, lshape_spec, rect21_spec, two_disk_spec, unit_square_spec

    def no_rasterize(*args, **kwargs):
        raise AssertionError("the config was rasterized while it was parsed")

    monkeypatch.setattr(experiments, "rasterize", no_rasterize)
    tiny = [dict(square_domain()[0], x1=0.01, y1=0.01)]
    # faber_krahn rasterizes the unit Wulff shape at the domain's h
    with pytest.raises(ValueError, match=r"h=0.0001 gives a 20005 x 20005 node grid"):
        base_cfg(experiment="faber_krahn", domain=tiny, h=1e-4)
    # hks rasterizes a Wulff shape of half the domain's measure: inside the tiny
    # square's frame area for the Euclidean norm, but not for a strongly
    # anisotropic one, whose shape's frame is a square around its long axis
    aniso = {"family": "weighted_quadratic", "a1": 100.0, "a2": 1.0}
    with pytest.raises(ValueError, match=r"h=0.001 gives a 2541 x 2541 node grid"):
        base_cfg(experiment="hks", norm=aniso, h=1e-3)
    monkeypatch.undo()  # a config that parses is rasterized once, for its interior node count
    assert base_cfg(experiment="hks", domain=tiny, h=1e-4).h == 1e-4
    assert base_cfg(experiment="lambda1", norm=aniso, h=1e-3).h == 1e-3
    # the acceptance matrix still parses
    for spec in (unit_square_spec(), lshape_spec(), rect21_spec(), two_disk_spec(1.0, 0.75, 3.0)):
        for norm in ALL_NORMS.values():
            for experiment in ("faber_krahn", "hks"):
                base_cfg(experiment=experiment, domain=spec.to_dict(), norm=norm.to_dict(), h=1.0 / 48)


def test_config_rejects_bad_domain_fields():
    disk = {"type": "euclidean_disk", "center": [0.0, 0.0], "radius": -1.0}
    with pytest.raises(ValueError, match="radius"):
        base_cfg(domain=[disk])
    rect = dict(square_domain()[0], x0=1.0, x1=0.5)
    with pytest.raises(ValueError, match="x1 > x0"):
        base_cfg(domain=[rect])


def _valid_config(**over):
    d = {"experiment": "lambda1", "domain": square_domain(), "norm": {"family": "euclidean"},
         "h": 1.0 / 16}
    d.update(over)
    return d


@pytest.mark.parametrize("raw, field", [
    (_valid_config(p_lsit=[3]), "p_lsit"),
    ({"experiment": "lambda1"}, "domain"),
    (_valid_config(domain=[dict(square_domain()[0], radius=1.0)]), "radius"),
    (_valid_config(domain=[{"type": "rectangle", "x0": 0.0, "y0": 0.0, "x1": 1.0}]), "y1"),
    (_valid_config(domain=[{"type": "wulff", "center": [0.0, 0.0], "radius": 1.0}]), "norm"),
    (_valid_config(domain=[{"center": [0.0, 0.0], "radius": 1.0}]), "type"),
    (_valid_config(domain=[{"type": "circle", "center": [0.0, 0.0], "radius": 1.0}]), "circle"),
    (_valid_config(norm="euclidean"), "norm"),
    (_valid_config(norm=None), "norm"),
    (_valid_config(domain=[{"type": "euclidean_disk", "center": [0.0], "radius": 1.0}]), "center"),
    (_valid_config(domain=[{"type": "euclidean_disk", "center": [0.0] * 3, "radius": 1.0}]), "center"),
    # JSON values of the wrong type: a ValueError naming the field, not a TypeError
    (_valid_config(experiment=[]), "experiment"),
    (_valid_config(experiment={}), "experiment"),
    (_valid_config(domain=5), "domain must be"),
    (_valid_config(domain="rect"), "domain must be"),
    (_valid_config(domain=square_domain()[0]), "domain must be"),
    (_valid_config(norm={"family": []}), "norm family"),
    ([], "config must be a JSON object"),
    (_valid_config(solver=[500]), "solver must be a JSON object"),
])
def test_config_rejects_unknown_and_missing_keys(raw, field):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("field, value, experiment", [
    ("p_list", [1.0], "lambda1"),
    ("p_list", [0.5], "lambda1"),
    ("p_list", [float("nan")], "lambda1"),
    ("p_list", [float("inf")], "lambda1"),
    ("p_list", "23", "lambda1"),
    ("p_list", 3, "lambda1"),
    # p_limit reads its gaps in list order and its final gap at the last listed p
    ("p_list", [4.0, 2.0], "p_limit"),
    ("p_list", [4.0, 4.0], "p_limit"),
    ("samples", 0, "duality"),
    ("samples", 2.5, "duality"),
    ("tolerance", float("nan"), "faber_krahn"),
    ("tolerance", -1, "faber_krahn"),
])
def test_config_rejects_bad_p_list_samples_and_tolerance(field, value, experiment):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_dict(_valid_config(experiment=experiment, **{field: value}))


@pytest.mark.parametrize("raw, field", [
    (_valid_config(h="0.0625"), "h must"),
    (_valid_config(h=True), "h must"),
    (_valid_config(tolerance="0.1"), "tolerance must"),
    (_valid_config(solver={"max_iter": 2.5}), r"solver\.max_iter"),
    (_valid_config(solver={"max_iter": "5"}), r"solver\.max_iter"),
    (_valid_config(solver={"tol": "x"}), r"solver\.tol"),
    (_valid_config(domain=[dict(square_domain()[0], x0="0")]), "x0"),
    (_valid_config(domain=[{"type": "euclidean_disk", "center": [0.0, 0.0], "radius": "1"}]),
     "radius"),
    (_valid_config(norm={"family": "lq", "q": "3"}), "norm q"),
    (_valid_config(norm={"family": "weighted_quadratic", "a1": True, "a2": 1.0}), "norm a1"),
    # json.load reads NaN, Infinity and -Infinity as these floats
    (_valid_config(norm={"family": "lq", "q": float("inf")}), "norm q must be finite"),
    (_valid_config(domain=[{"type": "euclidean_disk", "center": [float("nan"), 0.0], "radius": 0.5}]),
     "center must be"),
    (_valid_config(domain=[dict(square_domain()[0], x0=float("-inf"))]), "x0 must be finite"),
])
def test_config_rejects_scalars_that_are_not_numbers(raw, field):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_dict(raw)


# json.load reads an integer of any size; this one is beyond float range
_HUGE = json.loads("1" + "0" * 400)


@pytest.mark.parametrize("raw, field", [
    (_valid_config(h=_HUGE), "h must be finite"),
    (_valid_config(p_list=[2.0, _HUGE]), "p_list must be finite"),
    (_valid_config(domain=[dict(square_domain()[0], x1=_HUGE)]), "x1 must be finite"),
    (_valid_config(norm={"family": "lq", "q": _HUGE}), "norm q must be finite"),
])
def test_config_rejects_integers_beyond_float_range(raw, field):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("out", [5, ["a"]])
def test_config_rejects_an_out_that_is_not_a_string(out):
    with pytest.raises(ValueError, match="out must be"):
        ExperimentConfig.from_dict(_valid_config(out=out))
    assert ExperimentConfig.from_dict(_valid_config(out="report.json")).out == "report.json"


def test_readme_config_example_parses():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        raw = json.loads(fh.read().split("```json\n", 1)[1].split("```", 1)[0])
    cfg = ExperimentConfig.from_dict(raw)
    assert {**cfg.echo(), "out": cfg.out} == {"samples": 100, **raw}


def test_check_duality_rejects_a_norm_that_is_not_an_object(capsys):
    assert cli.main(["check-duality", "--norm", '"euclidean"']) == 2
    err = capsys.readouterr().err
    assert err.startswith("finsler-spectra: ") and "norm" in err and "Traceback" not in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_duality_refuses_fewer_than_one_sample_with_exit_code_2(capsys, samples):
    assert cli.main(["check-duality", "--norm", '{"family": "euclidean"}', "--samples", samples]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("finsler-spectra: --samples: ") and line.endswith(f"got {samples}")
    assert captured.out == "" and "Traceback" not in captured.err


class _SamplesDrawn(Exception):
    pass


@pytest.fixture
def no_sample_draws(monkeypatch):
    """check_duality's sample generator raises if it is ever reached."""
    def refuse(*args, **kwargs):
        raise _SamplesDrawn

    monkeypatch.setattr(fs.norms.np.random, "default_rng", refuse)


def test_check_duality_refuses_more_than_max_samples_before_drawing(no_sample_draws):
    limit = fs.norms.MAX_SAMPLES
    with pytest.raises(ValueError, match=rf"sample_count .*MAX_SAMPLES = {limit}\], got {limit + 1}$"):
        fs.norms.check_duality(fs.euclidean(), limit + 1)
    with pytest.raises(_SamplesDrawn):  # the limit itself is allowed
        fs.norms.check_duality(fs.euclidean(), limit)


def test_cli_check_duality_refuses_more_than_max_samples_with_exit_code_2(capsys, no_sample_draws):
    limit = fs.norms.MAX_SAMPLES
    assert cli.main(["check-duality", "--norm", '{"family": "euclidean"}', "--samples", str(limit + 1)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("finsler-spectra: --samples: ") and f"MAX_SAMPLES = {limit}" in line
    assert captured.out == "" and "Traceback" not in captured.err


def test_config_refuses_more_than_max_samples_when_parsed(tmp_path, capsys, no_sample_draws):
    limit = fs.norms.MAX_SAMPLES
    raw = _valid_config(experiment="duality", samples=limit + 1)
    with pytest.raises(ValueError, match=rf"^samples .*MAX_SAMPLES = {limit}\], got {limit + 1}$"):
        ExperimentConfig.from_dict(raw)
    assert ExperimentConfig.from_dict(dict(raw, samples=limit)).samples == limit
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"finsler-spectra: {cfg_path}: samples ") and f"MAX_SAMPLES = {limit}" in line
    assert "Traceback" not in captured.err and not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, named", [
    (json.dumps({"experiment": "lambda1", "domain": 5, "norm": {"family": "euclidean"},
                 "h": 0.125}), "domain"),
    (None, "missing.json"),
    ("{not json", "cfg.json"),
], ids=["invalid", "missing", "not-json"])
def test_cli_run_refuses_a_bad_config_with_exit_code_2(tmp_path, capsys, text, named):
    cfg_path = tmp_path / ("missing.json" if text is None else "cfg.json")
    if text is not None:
        cfg_path.write_text(text)
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("finsler-spectra: ") and named in line and "Traceback" not in line
    assert captured.out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("over, named", [
    ({"domain": [{"type": "euclidean_disk", "center": [0.0, 0.0], "radius": 0.0}]}, ["radius"]),
    ({"h": 10.0}, ["domain has 0 interior node(s) at h=10.0"]),
    ({"experiment": "lambda2", "h": 0.5}, ["domain has 1 interior node(s) at h=0.5", "lambda2"]),
], ids=["zero-radius-disk", "no-node", "one-node-lambda2"])
def test_cli_run_refuses_an_empty_or_too_small_domain_with_exit_code_2(tmp_path, capsys, over, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_valid_config(**over)))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("finsler-spectra: ") and all(n in line for n in named)
    assert captured.out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["lambda1", "lambda2", "faber_krahn", "hks", "p_limit",
                                        "distance", "duality"])
def test_config_needs_two_interior_nodes_to_split_or_pack(experiment):
    # the unit square at h = 1/2 has one interior node, its centre
    two = experiment in ("lambda2", "hks", "p_limit", "distance")
    if two:
        with pytest.raises(ValueError, match=rf"domain has 1 interior node\(s\) at h=0.5; {experiment} needs at least 2"):
            base_cfg(experiment=experiment, h=0.5)
    else:
        assert base_cfg(experiment=experiment, h=0.5).grid.interior_count == 1
    assert base_cfg(experiment=experiment, h=1.0 / 4).grid.interior_count == 9


@pytest.mark.parametrize("over, named", [
    ({"experiment": "faber_krahn", "h": 5.0,
      "domain": [dict(square_domain()[0], x1=100.0, y1=100.0)]},
     ["reference shape (the Wulff shape of radius 1)", "h=5.0", "faber_krahn"]),
    ({"experiment": "hks", "h": 0.25, "norm": {"family": "weighted_quadratic", "a1": 100.0, "a2": 1.0}},
     ["reference shape (the Wulff shape of radius 0.0946175)", "h=0.25", "hks"]),
], ids=["faber_krahn", "hks"])
def test_cli_run_refuses_an_empty_reference_shape_with_exit_code_2(tmp_path, capsys, over, named):
    # the domain has interior nodes at h; the Wulff shape the runner solves beside it has none
    with pytest.raises(ValueError, match="reference shape") as err:
        ExperimentConfig.from_dict(_valid_config(**over))
    assert all(n in str(err.value) for n in named)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_valid_config(**over)))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("finsler-spectra: ") and all(n in line for n in named)
    assert captured.out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", ["faber_krahn", "hks"])
def test_a_runner_solves_the_reference_shape_the_config_rasterized(monkeypatch, experiment):
    from finsler_spectra import experiments

    assert base_cfg(experiment="lambda2", h=1.0 / 8).reference is None
    cfg = base_cfg(experiment=experiment, h=1.0 / 8)
    assert cfg == base_cfg(experiment=experiment, h=1.0 / 8) and "reference" not in cfg.echo()
    radius = 1.0 if experiment == "faber_krahn" else experiments._reference_radius(cfg, fs.measure(cfg.grid))
    want = fs.rasterize(experiments.unit_wulff_spec(cfg.norm, radius), cfg.h)
    assert np.array_equal(cfg.reference.mask, want.mask) and cfg.reference.origin == want.origin

    def no_rasterize(*args, **kwargs):
        raise AssertionError("the runner rasterized a shape")

    monkeypatch.setattr(experiments, "rasterize", no_rasterize)
    (rec,) = run(cfg).records
    if experiment == "hks":
        assert rec["radius_ref"] == radius and rec["measure_ref"] == 2.0 * fs.measure(want)
    else:
        assert rec["measure_wulff"] == fs.measure(want)


def test_cli_run_reports_the_component_pair_when_every_split_of_a_disk_fails(tmp_path):
    # at max_iter 7 both splits of the r = 1 disk raise; max_iter 10 gives the same pair
    disks = [{"type": "euclidean_disk", "center": [0.0, 0.0], "radius": 1.0},
             {"type": "euclidean_disk", "center": [3.0, 0.0], "radius": 0.75}]
    values = []
    for max_iter in (7, 10):
        cfg_path = tmp_path / f"two_disks_{max_iter}.json"
        cfg_path.write_text(json.dumps(_valid_config(experiment="lambda2", domain=disks, h=0.125,
                                                     p_list=[16.0], solver={"max_iter": max_iter})))
        out = tmp_path / f"o{max_iter}"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        values.append(json.loads((out / "report.json").read_text())["records"][0]["lambda2"])
    assert values == [16564.0854242344] * 2


@pytest.mark.parametrize("max_iter, code", [(3, 3), (7, 0)])
def test_cli_run_exits_3_with_one_line_when_a_solve_does_not_converge(tmp_path, capsys, max_iter, code):
    # at max_iter 3 the r = 1 disk's own lambda_1 stops at p = 4; at 7 the run reports
    disks = [{"type": "euclidean_disk", "center": [0.0, 0.0], "radius": 1.0},
             {"type": "euclidean_disk", "center": [3.0, 0.0], "radius": 0.75}]
    cfg_path = tmp_path / "two_disks.json"
    cfg_path.write_text(json.dumps(_valid_config(experiment="lambda2", domain=disks, h=0.125,
                                                 p_list=[16.0], solver={"max_iter": max_iter})))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code == 3:
        (line,) = err.splitlines()
        assert line.startswith(f"finsler-spectra: {cfg_path}: ") and "did not converge" in line
        assert not (tmp_path / "out").exists()
    else:
        assert err == "" and (tmp_path / "out" / "report.json").exists()
    assert "Traceback" not in err


@pytest.mark.parametrize("p, rung", [(1000.0, "512.0"), (1.01, "1.01")])
def test_cli_run_exits_3_when_a_stage_stops_far_from_stationarity(tmp_path, capsys, p, rung):
    # p=1000: the 512 rung overflows and stops on the rounding floor at residual inf (the
    # report held lambda Infinity and residual NaN); p=1.01: one stage stops there at 1.57
    cfg_path = tmp_path / "square.json"
    cfg_path.write_text(json.dumps(_valid_config(p_list=[p])))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"finsler-spectra: {cfg_path}: lambda_1 solve did not converge: p={rung}, dofs=225, ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["--out", "config"])
def test_cli_run_refuses_an_output_path_that_is_a_file_before_running(tmp_path, capsys, monkeypatch, where):
    taken = tmp_path / "taken.txt"
    taken.write_text("not a directory\n")
    cfg_path = tmp_path / "tiny.json"
    in_config = {"out": str(taken)} if where == "config" else {}
    cfg_path.write_text(json.dumps(_valid_config(h=0.125, **in_config)))
    runs = []
    monkeypatch.setattr(fs.experiments, "run", lambda cfg: runs.append(cfg))
    argv = ["run", "--config", str(cfg_path)] + (["--out", str(taken)] if where == "--out" else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"finsler-spectra: {taken}: ") and "existing file" in line
    assert runs == [] and captured.out == "" and "Traceback" not in captured.err
    assert taken.read_text() == "not a directory\n"


def test_cli_run_exits_2_with_one_line_when_the_report_cannot_be_written(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(_valid_config(h=0.125)))
    (tmp_path / "out" / "report.json").mkdir(parents=True)  # a directory where the report goes
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("finsler-spectra: could not write report to ") and "report.json" in line


def test_debug_log_leaves_distance_report_unchanged(tmp_path, monkeypatch, capsys):
    configs = {
        "distance": ({"experiment": "distance", "domain": square_domain(),
                      "norm": {"family": "lq", "q": 3.0}, "h": 1.0 / 24}, "sup_rayleigh:"),
        "lambda1": ({"experiment": "lambda1", "domain": square_domain(),
                     "norm": {"family": "lq", "q": 3.0}, "h": 1.0 / 16, "p_list": [3.0]},
                    "newton stage p=3 "),
    }
    for name, (cfg, debug_line) in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        reports = []
        for level in ("error", "debug"):
            monkeypatch.setenv("FS_LOG", level)
            out = tmp_path / name / level
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
            err = capsys.readouterr().err
            assert (debug_line in err) == (level == "debug")
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]


def test_fs_log_applies_under_configured_root_logger(tmp_path, monkeypatch, capsys):
    # what logging.basicConfig(level=logging.ERROR) leaves behind
    root = logging.getLogger()
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    monkeypatch.setattr(root, "level", logging.ERROR)
    root.addHandler(handler)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "lambda1", "domain": square_domain(),
                                    "norm": {"family": "euclidean"}, "h": 1.0 / 8,
                                    "p_list": [3.0]}))
    monkeypatch.setenv("FS_LOG", "debug")
    try:
        for _ in range(2):
            assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
            stages = [line for line in capsys.readouterr().err.splitlines()
                      if line.startswith("DEBUG finsler_spectra.eigensolve: newton stage")]
            # the p=2 rung and the p=3 stage, each printed once
            assert len(stages) == len(set(stages)) == 2
    finally:
        root.removeHandler(handler)
    assert not logging.getLogger("finsler_spectra").handlers


@pytest.mark.parametrize("solver, field", [
    ({"maxiter": 500}, "maxiter"),
    ({"max_iter": 0}, "max_iter"),
    ({"tol": float("nan")}, "tol"),
    ({"tol": float("inf")}, "tol"),
    ({"tol": 0.0}, "tol"),
    ({"tol": -1e-8}, "tol"),
    ({"epsilon_schedule": [1e-2, 0.0]}, "epsilon_schedule"),
])
def test_config_rejects_bad_solver_options(solver, field):
    with pytest.raises(ValueError, match=field):
        base_cfg(solver=solver)


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


@pytest.mark.parametrize("experiment, left, right", [
    ("faber_krahn", "left", "right"),
    ("hks", "lambda2", "lambda2_ref"),
])
def test_each_check_is_built_from_the_record_of_its_p(experiment, left, right):
    cfg = base_cfg(experiment=experiment, h=1.0 / 8, p_list=[1.5, 2.0, 3.0])
    rep = run(cfg)
    assert len(rep.checks) == len(rep.records) == 3
    for p, rec, check in zip(cfg.p_list, rep.records, rep.checks):
        assert rec["p"] == p
        assert ((check["name"], check["left"], check["right"], check["tolerance"])
                == (f"{experiment}_p_{p:g}", rec[left], rec[right], cfg.tolerance))


def test_every_p_limit_record_carries_both_inradii():
    rep = run(base_cfg(experiment="p_limit", h=1.0 / 8, p_list=[1.5, 2.0, 3.0]))
    (dist,) = run(base_cfg(experiment="distance", h=1.0 / 8)).records
    assert [rec["p"] for rec in rep.records] == [1.5, 2.0, 3.0]
    for rec in rep.records:
        assert (rec["rho_f"], rec["rho_2f"]) == (dist["rho_f"], dist["rho_2f"])


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


def test_emit_report_wraps_every_write_error(tmp_path):
    rep = fs.Report("duality", {})
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    with pytest.raises(OSError, match="could not write report to"):
        emit_report(rep, str(a_file))
    (tmp_path / "out" / "report.json").mkdir(parents=True)
    with pytest.raises(OSError, match="could not write report to"):
        emit_report(rep, str(tmp_path / "out"))


def test_check_record_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown check kind 'eq'"):
        fs.experiments.check_record("x", "eq", 1.0, 1.0)


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


def lshape_domain():
    return square_domain() + [{"type": "rectangle", "mode": "subtract",
                               "x0": 0.5, "y0": 0.5, "x1": 1.01, "y1": 1.01}]


def hks_config(norm=None):
    return {"experiment": "hks", "domain": lshape_domain(), "norm": norm or {"family": "euclidean"},
            "h": 1.0 / 12, "p_list": [1.5, 2.0, 3.0], "solver": {"max_iter": 2500}}


def test_grid_context_keeps_reports_byte_identical():
    from finsler_spectra import experiments

    cfg = ExperimentConfig.from_dict(hks_config({"family": "lq", "q": 3.0}))
    first = report_json(run(cfg))
    assert report_json(run(cfg)) == first
    # the runner called outside run() has no grid context: each solve opens its own
    assert report_json(experiments.run_hks(cfg)) == first


def two_disk_domain():
    return [{"type": "euclidean_disk", "center": [0.0, 0.0], "radius": 1.0},
            {"type": "euclidean_disk", "center": [3.0, 0.0], "radius": 0.75}]


def test_grid_context_triangulates_and_factorizes_each_grid_once(monkeypatch):
    from finsler_spectra import eigensolve, experiments

    tris, factorizations, matrices = [], [], []
    triangulate, solve_linear_p2 = eigensolve.triangulate, eigensolve.solve_linear_p2
    newton_matrix = eigensolve._NewtonMatrix

    def counted_triangulate(grid):
        tris.append(eigensolve._grid_key(grid))
        return triangulate(grid)

    def counted_solve_linear_p2(grid, norm, k):
        factorizations.append((eigensolve._grid_key(grid), norm))
        return solve_linear_p2(grid, norm, k)

    def counted_newton_matrix(tri):
        matrices.append(eigensolve._grid_key(tri.grid))
        return newton_matrix(tri)

    monkeypatch.setattr(eigensolve, "triangulate", counted_triangulate)
    monkeypatch.setattr(eigensolve, "solve_linear_p2", counted_solve_linear_p2)
    monkeypatch.setattr(eigensolve, "_NewtonMatrix", counted_newton_matrix)
    counts = (tris, factorizations, matrices)
    for norm in ({"family": "euclidean"}, {"family": "lq", "q": 3.0}):
        cfg = ExperimentConfig.from_dict(hks_config(norm))
        for c in counts:
            c.clear()
        run(cfg)
        assert all(len(c) == len(set(c)) > 1 for c in counts)
        # without run()'s context each solve keeps only its own grids: the runner repeats all three
        for c in counts:
            c.clear()
        experiments.run_hks(cfg)
        assert all(len(c) > len(set(c)) for c in counts)
    # a disconnected domain: one kept matrix per connected component, none for the whole
    cfg = base_cfg(domain=two_disk_domain(), h=1.0 / 8, p_list=[1.5, 3.0])
    grid = fs.rasterize(cfg.domain, cfg.h)
    parts = {eigensolve._grid_key(part) for part in fs.components(grid)}
    matrices.clear()
    run(cfg)
    assert len(parts) == 2 and sorted(matrices) == sorted(parts)
    matrices.clear()
    experiments.run_lambda1(cfg)
    assert len(matrices) == 2 * len(parts) and set(matrices) == parts


def test_grid_context_values_are_read_only():
    from finsler_spectra import eigensolve

    grid = fs.rasterize(fs.ShapeSpec.from_dict(lshape_domain()), 1.0 / 12)
    norm = fs.euclidean()
    aniso = fs.weighted_quadratic(4.0, 1.0)
    fresh = [fs.solve_lambda1(grid, aniso, p) for p in (1.5, 8.0)]
    with eigensolve._GridContext() as ctx:
        tri = eigensolve._triangulation(grid)
        pair = eigensolve._linear_p2(grid, norm, 2)
        assert eigensolve._triangulation(grid) is tri
        assert eigensolve._linear_p2(grid, norm, 2) is pair
        # both solves run on the one Newton matrix the first of them kept
        kept_solves = [fs.solve_lambda1(grid, aniso, p) for p in (1.5, 8.0)]
        pairs = ctx.kept["p2_factorizations", (eigensolve._grid_key(grid), norm)]
        kkt = ctx.kept["newton_matrices", eigensolve._grid_key(grid)]
        assert kkt.tri is tri
        rung = ctx.kept["rungs", (eigensolve._grid_key(grid), aniso, 8.0, fs.SolverOptions())]
        kept = [tri.dof_nodes, tri.cell_ij, tri.grid.mask, rung[0],
                pair.u.values, pairs.w, pairs.vecs, kkt.perm, kkt.rank, kkt.rows, kkt.cols, *kkt.band,
                *(part.mask for part in ctx.kept["components", eigensolve._grid_key(grid)])]
        for mat in (tri.G, tri.GxT, tri.GyT, pairs.K, kkt.map):
            kept += [mat.data, mat.indices, mat.indptr]
        for a in kept:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = a.copy()
    # the ladders [2, 1.5] and [2, 4, 8] share their p=2 rung
    assert ctx.built == {"triangulations": 1, "p2_factorizations": 2, "newton_matrices": 1,
                         "rungs": 4, "components": 1}
    assert ctx.reused["newton_matrices"] == 1 and ctx.reused["rungs"] == 1
    assert ctx.reused["components"] == 1
    for r, f in zip(kept_solves, fresh):
        assert r.to_dict() == f.to_dict() and r.u.values.tobytes() == f.u.values.tobytes()
    # outside a context every call builds a fresh, writable value
    again = eigensolve._triangulation(grid)
    assert again is not tri and again.dof_nodes.flags.writeable and again.G.data.flags.writeable
    assert eigensolve._linear_p2(grid, norm, 2).u.values.flags.writeable
    assert eigensolve._newton_matrix(again).perm.flags.writeable


@pytest.mark.parametrize("domain, p_list, rungs", [
    # (built, reused): ladders [2], [2, 4], ..., [2, 4, 8, 16, 32] share every rung
    (square_domain(), [2.0, 4.0, 8.0, 16.0, 32.0], (5, 10)),
    # [2, 3], [2, 1.5], [2, 3], [2, 4, 6], [2, 4, 5]
    (square_domain(), [3.0, 1.5, 3.0, 6.0, 5.0], (6, 6)),
    # two components, each with its own rungs
    (two_disk_domain(), [2.0, 4.0, 8.0], (6, 6)),
])
def test_kept_rungs_give_the_lambda1_of_a_fresh_climb(monkeypatch, caplog, domain, p_list, rungs):
    from finsler_spectra import eigensolve

    caplog.set_level(logging.DEBUG, logger="finsler_spectra")
    seen = []
    solve_lambda1 = eigensolve.solve_lambda1

    def recorded(*args):
        seen.append((args, solve_lambda1(*args)))
        return seen[-1][1]

    monkeypatch.setattr(eigensolve, "solve_lambda1", recorded)
    run(base_cfg(domain=domain, h=1.0 / 8, p_list=p_list))
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("grid context:")]
    found = re.search(r"rungs built=(\d+) reused=(\d+) build_s=\S+; components ", line)
    assert found.groups() == tuple(map(str, rungs))
    assert [args[2] for args, _ in seen] == p_list
    for args, kept in seen:
        fresh = solve_lambda1(*args)
        assert kept.to_dict() == fresh.to_dict() and kept.u.values.tobytes() == fresh.u.values.tobytes()


def test_a_kept_rung_logs_one_debug_line_like_the_stage_that_ran(caplog):
    from finsler_spectra.eigensolve import _exponent_ladder

    caplog.set_level(logging.DEBUG, logger="finsler_spectra")
    p_list = [2.0, 4.0, 8.0, 16.0, 32.0]
    run(base_cfg(h=1.0 / 8, p_list=p_list))
    ran = re.compile(r"newton stage p=(\S+) dofs=(\d+) steps=(\d+) .* stop=(\S+) residual=(\S+)$")
    kept = re.compile(r"newton stage kept p=(\S+) dofs=(\d+) steps=(\d+) stop=(\S+) residual=(\S+)$")
    messages = [r.getMessage() for r in caplog.records]
    ran_lines = [m.groups() for m in map(ran.match, messages) if m]
    kept_lines = [m.groups() for m in map(kept.match, messages) if m]
    # the ladders [2], [2, 4], ..., [2, 4, 8, 16, 32]: each rung runs once, then is kept
    assert len(ran_lines) == 5 and len(kept_lines) == 10
    assert len(ran_lines) + len(kept_lines) == sum(len(_exponent_ladder(p)) for p in p_list)
    assert set(kept_lines) == set(ran_lines[:4])


def test_each_sweep_mask_climbs_each_rung_once_in_a_p_limit_run(monkeypatch):
    # interface-sweep parts take the cold ladder, whose rungs the run keeps: each (component
    # mask, rung) runs one Newton stage, and a sweep mask asked for at p ran every rung up to
    # p, each from the field the rung before it returned
    from finsler_spectra import eigensolve

    stages, sweeps, at = {}, [], {}
    stage, search, refine = eigensolve._newton_stage, eigensolve._lambda2_connected, eigensolve._greedy_refine

    def recorded_stage(tri, kkt, norm, p, values, *args):
        out = stage(tri, kkt, norm, p, values, *args)
        key = (eigensolve._grid_key(tri.grid), p)
        assert key not in stages
        stages[key] = (values, out[0])
        return out

    def recorded_search(grid, norm, p, opts):
        at["p"] = p
        return search(grid, norm, p, opts)

    def recorded_refine(grid, solve, p1, p2):
        def sweep_solve(mask):
            if mask is not p1 and mask is not p2:
                sweeps.append((grid.subgrid(mask), at["p"]))
            return solve(mask)

        return refine(grid, sweep_solve, p1, p2)

    monkeypatch.setattr(eigensolve, "_newton_stage", recorded_stage)
    monkeypatch.setattr(eigensolve, "_lambda2_connected", recorded_search)
    monkeypatch.setattr(eigensolve, "_greedy_refine", recorded_refine)
    aniso = {"family": "weighted_quadratic", "a1": 4.0, "a2": 1.0}
    cfg = base_cfg(experiment="p_limit", domain=lshape_domain(), norm=aniso, h=1.0 / 8,
                   p_list=[2.0, 4.0, 8.0, 16.0, 32.0])
    run(cfg)
    assert {p for _, p in sweeps} == set(cfg.p_list)
    for sub, p in sweeps:
        parts = fs.components(sub)
        for part in parts if len(parts) > 1 else [sub]:
            ladder = eigensolve._exponent_ladder(p)
            ran = [stages[eigensolve._grid_key(part), q] for q in ladder]
            assert all(start is out for (start, _), (_, out) in zip(ran[1:], ran))


def test_a_kept_rung_that_hit_max_iter_fails_again():
    from finsler_spectra import eigensolve

    grid = fs.rasterize(fs.ShapeSpec.from_dict(square_domain()), 1.0 / 8)
    opts = fs.SolverOptions(max_iter=1)
    aniso = fs.weighted_quadratic(4.0, 1.0)
    with pytest.raises(fs.ConvergenceError) as fresh:
        fs.solve_lambda1(grid, fs.euclidean(), 3.0, opts)
    errors = []
    with eigensolve._GridContext() as ctx:
        for _ in range(2):
            with pytest.raises(fs.ConvergenceError) as err:
                fs.solve_lambda1(grid, fs.euclidean(), 3.0, opts)
            errors.append(str(err.value))
        # other solver options, or another norm, are other rungs
        solved = [fs.solve_lambda1(grid, norm, 3.0) for norm in (fs.euclidean(), aniso)]
    assert errors == [str(fresh.value)] * 2 and "p=3.0" in errors[0]
    assert [r.to_dict() for r in solved] == [fs.solve_lambda1(grid, norm, 3.0).to_dict()
                                             for norm in (fs.euclidean(), aniso)]
    # rungs 2 and 3 are built by the first solve and by each solve after the failing ones;
    # the second failing solve takes both from the context
    assert ctx.built["rungs"] == 6 and ctx.reused["rungs"] == 2


def test_grid_context_keeps_direct_linear_p2_pairs():
    from finsler_spectra import eigensolve

    grid = fs.rasterize(fs.ShapeSpec.from_dict(lshape_domain()), 1.0 / 12)
    with eigensolve._GridContext() as ctx:
        first = fs.solve_linear_p2(grid, fs.euclidean(), 1)
        assert fs.solve_linear_p2(grid, fs.euclidean(), 1) is first
    assert ctx.built["p2_factorizations"] == 1 and ctx.reused["p2_factorizations"] == 1


def test_grid_context_ends_with_the_run(monkeypatch):
    from finsler_spectra import eigensolve, experiments

    seen = []
    run_lambda1 = experiments.run_lambda1

    def spy(cfg):
        seen.append(eigensolve._CONTEXT.get())
        return run_lambda1(cfg)

    def failing(cfg):
        seen.append(eigensolve._CONTEXT.get())
        raise RuntimeError("runner failed")

    monkeypatch.setitem(experiments._RUNNERS, "lambda1", spy)
    run(base_cfg(h=1.0 / 16))
    run(base_cfg(h=1.0 / 16))
    monkeypatch.setitem(experiments._RUNNERS, "lambda1", failing)
    with pytest.raises(RuntimeError):
        run(base_cfg(h=1.0 / 16))
    assert len(seen) == 3 and len({id(c) for c in seen}) == 3 and None not in seen
    assert eigensolve._CONTEXT.get() is None
    assert not any(kept for c in seen for kept in c.kept.values())


def test_a_run_inside_an_open_grid_context_joins_it(monkeypatch, caplog):
    from finsler_spectra import eigensolve, experiments

    caplog.set_level(logging.DEBUG, logger="finsler_spectra")
    cfg = ExperimentConfig.from_dict(dict(hks_config(), p_list=[2.0, 3.0]))
    alone = report_json(run(cfg))
    seen, run_hks = [], experiments.run_hks

    def spy(c):
        seen.append(eigensolve._CONTEXT.get())
        return run_hks(c)

    def lines():
        return [r.getMessage() for r in caplog.records if r.getMessage().startswith("grid context:")]

    monkeypatch.setitem(experiments._RUNNERS, "hks", spy)
    caplog.clear()
    reports, built = [], []
    with eigensolve._GridContext() as ctx:
        for _ in range(2):
            reports.append(report_json(run(cfg)))
            built.append(dict(ctx.built))
            assert eigensolve._CONTEXT.get() is ctx
        assert lines() == []
    assert seen == [ctx, ctx] and reports == [alone, alone]
    # the second run builds nothing: every grid value and rung it needs is a context hit
    assert built[0] == built[1] and built[0]["rungs"] > 0
    (line,) = lines()
    assert f"rungs built={ctx.built['rungs']} reused={ctx.reused['rungs']} " in line
    assert eigensolve._CONTEXT.get() is None
    fs.solve_lambda1(cfg.grid, cfg.norm, 2.0)
    assert eigensolve._CONTEXT.get() is None and len(lines()) == 2


def test_grid_context_logs_one_debug_line_per_run(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "hks.json"
    cfg_path.write_text(json.dumps(hks_config()))
    pattern = re.compile(r"grid context: triangulations built=(\d+) reused=(\d+) build_s=\S+; "
                         r"p2_factorizations built=(\d+) reused=(\d+) build_s=\S+; "
                         r"newton_matrices built=(\d+) reused=(\d+) build_s=\S+; "
                         r"rungs built=(\d+) reused=(\d+) build_s=\S+; "
                         r"components built=(\d+) reused=(\d+) build_s=\S+$")
    reports = []
    for level in ("error", "debug"):
        monkeypatch.setenv("FS_LOG", level)
        out = tmp_path / level
        cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        lines = [line for line in capsys.readouterr().err.splitlines() if "grid context:" in line]
        reports.append((out / "report.json").read_bytes())
        if level == "error":
            assert lines == []
            continue
        assert len(lines) == 1
        counts = [int(n) for n in pattern.search(lines[0]).groups()]
        # one connected domain: its p=2 pairs serve lambda_1 at every p and the nodal
        # split candidate of each lambda_2 search
        assert all(counts)
    assert reports[0] == reports[1]
    assert b"grid context" not in reports[1]


def test_grid_context_line_gives_each_kind_its_build_seconds(caplog, monkeypatch):
    from finsler_spectra import eigensolve

    caplog.set_level(logging.DEBUG, logger="finsler_spectra")
    triangulate = eigensolve.triangulate

    def slow_triangulate(grid):
        time.sleep(0.01)
        return triangulate(grid)

    monkeypatch.setattr(eigensolve, "triangulate", slow_triangulate)
    rep = run(ExperimentConfig.from_dict(dict(hks_config(), p_list=[2.0, 3.0])))
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("grid context:")]
    kinds = re.findall(r"(\w+) built=(\d+) reused=(\d+) build_s=(\d+\.\d{4})(?:; |$)", line)
    assert [k for k, *_ in kinds] == list(eigensolve._KINDS)
    seconds = {k: (int(built), float(s)) for k, built, _, s in kinds}
    assert all(s > 0.0 if built else s == 0.0 for built, s in seconds.values())
    built, s = seconds["triangulations"]
    assert built > 0 and s >= 0.01 * built
    # the seconds go to the log only
    assert "build_s" not in report_json(rep)


EIGEN_RUNNERS = {  # experiment: (domains rasterized, top-level solves per p, in order)
    "lambda1": (1, ("lambda1",)),
    "lambda2": (1, ("lambda2",)),
    "faber_krahn": (2, ("lambda1", "lambda1")),
    "hks": (2, ("lambda2", "lambda1")),
    "p_limit": (1, ("lambda1", "lambda2")),
}


@pytest.mark.parametrize("experiment", list(EIGEN_RUNNERS) + ["distance"])
def test_each_runner_rasterizes_each_domain_once(monkeypatch, experiment):
    from finsler_spectra import experiments

    specs = []
    rasterize = experiments.rasterize

    def counted_rasterize(spec, h):
        specs.append(json.dumps(spec.to_dict(), sort_keys=True))
        return rasterize(spec, h)

    monkeypatch.setattr(experiments, "rasterize", counted_rasterize)
    run(base_cfg(experiment=experiment, h=1.0 / 8, p_list=[1.5, 2.0, 3.0]))
    domains = EIGEN_RUNNERS.get(experiment, (1,))[0]
    assert len(specs) == len(set(specs)) == domains


@pytest.mark.parametrize("experiment", list(EIGEN_RUNNERS))
def test_one_info_line_per_top_level_solve(tmp_path, monkeypatch, capsys, experiment):
    from finsler_spectra import eigensolve

    p_list = [1.5, 2.0, 3.0]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, "domain": square_domain(),
                                    "norm": {"family": "euclidean"}, "h": 1.0 / 8,
                                    "p_list": p_list}))
    lambda1_calls = []
    solve_lambda1 = eigensolve.solve_lambda1

    def counted_solve_lambda1(*args, **kwargs):
        lambda1_calls.append(args[2])
        return solve_lambda1(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "solve_lambda1", counted_solve_lambda1)
    line = re.compile(r"^INFO finsler_spectra: (lambda[12]) p=(\S+) dofs=\d+ took \d+\.\d\ds$")
    labels = EIGEN_RUNNERS[experiment][1]
    reports = []
    for level in ("error", "info"):
        monkeypatch.setenv("FS_LOG", level)
        lambda1_calls.clear()
        cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / level)])
        solves = [m.groups() for m in map(line.match, capsys.readouterr().err.splitlines()) if m]
        reports.append((tmp_path / level / "report.json").read_bytes())
        assert solves == ([] if level == "error" else
                          [(label, f"{p:g}") for p in p_list for label in labels])
    # the part solves of a lambda_2 search call solve_lambda1 too, and log no INFO line
    top_level = labels.count("lambda1") * len(p_list)
    if "lambda2" in labels:
        assert len(lambda1_calls) > top_level
    else:
        assert len(lambda1_calls) == top_level
    assert reports[0] == reports[1]


def test_a_repeated_p_is_solved_again_from_the_grid_context(caplog):
    caplog.set_level(logging.DEBUG, logger="finsler_spectra")
    pattern = re.compile(r"grid context: triangulations built=(\d+) reused=(\d+) build_s=\S+; "
                         r"p2_factorizations built=(\d+) reused=(\d+) build_s=\S+; "
                         r"newton_matrices built=(\d+) reused=(\d+) build_s=\S+; "
                         r"rungs built=(\d+) reused=(\d+) build_s=\S+; "
                         r"components built=(\d+) reused=(\d+) build_s=\S+$")
    results = {}
    for p_list in ([2.0, 3.0], [2.0, 3.0, 3.0]):
        caplog.clear()
        rep = run(ExperimentConfig.from_dict(dict(hks_config(), p_list=p_list)))
        (counts,) = [pattern.search(r.getMessage()).groups() for r in caplog.records
                     if r.getMessage().startswith("grid context:")]
        results[len(p_list)] = (json.loads(report_json(rep))["records"], [int(n) for n in counts])
    (records2, counts2), (records3, counts3) = results[2], results[3]
    assert records3[1] == records3[2] and records3[:2] == records2
    # the repeat builds nothing, no ladder rung included: every triangulation, p=2 pair,
    # Newton matrix and cold rung it needs is a context hit
    assert counts3[0::2] == counts2[0::2] and counts2[6] > 0
    assert all(c3 > c2 for c3, c2 in zip(counts3[1::2], counts2[1::2]))
