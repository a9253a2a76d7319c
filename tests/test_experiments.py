"""Configuration handling, pipeline reports, and the command-line front end."""
import contextlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import concave_phase_lab
from concave_phase_lab import experiments, maximal, spectral
from concave_phase_lab.cli import main as cli_main
from concave_phase_lab.experiments import (PIPELINES, SCHEMA_VERSION, RunConfig,
                                           ScalingExperiment, resolve_config,
                                           run_experiment)


def test_run_config_defaults_and_coercion():
    cfg = RunConfig.from_mapping({"experiment": "covering", "lam-count": "5",
                                  "m": "0.4", "seed": "7"})
    assert cfg.experiment == "covering"
    assert cfg.lam_count == 5 and isinstance(cfg.lam_count, int)
    assert cfg.m == 0.4
    assert cfg.seed == 7
    assert RunConfig.from_mapping({"seed": "none"}).seed is None
    assert RunConfig().seed is None
    assert RunConfig.from_mapping({"lam_count": "9"}).lam_count == 9


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        RunConfig.from_mapping({"bogus_knob": "1"})
    with pytest.raises(ValueError, match="unknown config key"):
        RunConfig.from_mapping({"experiment": "covering", "bogus-knob": "1"})


def test_every_run_config_field_is_read():
    # a field that no pipeline reads is a knob that changes nothing
    source = inspect.getsource(experiments)
    unread = [name for name in RunConfig.field_names()
              if not re.search(rf"\bcfg\.{name}\b", source)]
    assert unread == []


def test_run_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# ladder setup\n"
        "experiment = sharpness-curve\n"
        "kappa = 2      # steeper path\n"
        "lam_count = 4\n"
        "seed = off\n"
        "\n")
    cfg = RunConfig.from_file(path)
    assert cfg.experiment == "sharpness-curve"
    assert cfg.kappa == 2.0 and cfg.lam_count == 4 and cfg.seed is None
    assert RunConfig.from_file(path, overrides={"kappa": "3"}).kappa == 3.0
    path.write_text("kappa 2\n")
    with pytest.raises(ValueError, match="without '='"):
        RunConfig.from_file(path)


def test_resolve_config_fills_zero_fields(monkeypatch):
    auto = resolve_config(RunConfig(experiment="sharpness-curve"))
    assert auto.x_cells == 24 and auto.t_base == 257 and auto.lam_count == 6
    kept = resolve_config(RunConfig(experiment="sharpness-curve", x_cells=10))
    assert kept.x_cells == 10
    with pytest.raises(ValueError, match="unknown experiment"):
        resolve_config(RunConfig(experiment="bogus"))
    monkeypatch.setenv("CPL_OUT", "/tmp/cpl-out")
    assert resolve_config(RunConfig(experiment="cantor")).out_dir == "/tmp/cpl-out"
    monkeypatch.delenv("CPL_OUT")
    assert resolve_config(RunConfig(experiment="cantor")).out_dir == "."


def test_scaling_experiment_validation():
    lams = [1.0, 2.0, 4.0, 8.0, 16.0]
    vals = [1.0, 2.0, 4.0, 8.0, 16.0]
    exp = ScalingExperiment.from_points(lams, vals)
    assert exp.slope == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="at least 5"):
        ScalingExperiment.from_points(lams[:4], vals[:4])
    with pytest.raises(ValueError, match="strictly increasing"):
        ScalingExperiment.from_points([1, 2, 2, 4, 8], vals)
    with pytest.raises(ValueError, match="positive"):
        ScalingExperiment.from_points(lams, [1, 2, 0, 4, 8])


def test_exponent_table_rows_match_hand_arithmetic():
    cfg = RunConfig(experiment="exponent-table", calculator="dim_bound_vertical",
                    m=0.5, s_grid="0.15:0.45:0.05")
    result, report = run_experiment(cfg, write=False)
    values = [row["value"] for row in result.rows]
    assert values == pytest.approx([0.9, 0.7, 0.5, 0.4, 0.3, 0.2, 0.1], abs=1e-12)
    assert report["aux"]["skipped"] == []
    flat, _ = run_experiment(RunConfig(experiment="exponent-table",
                                       calculator="s_star_vertical"), write=False)
    assert flat.rows == [{"value": 0.375}]


@pytest.mark.parametrize("s_grid", ["0.45:0.15:0.05", "0.15:0.45:0", "0.15:0.45:-0.05",
                                    "0.15:0.45:1e-300", "0.15:0.45:nan"])
def test_cli_refuses_bad_s_grid(tmp_path, capsys, monkeypatch, s_grid):
    def never(cfg, s):
        raise AssertionError("a refused grid must not start")

    monkeypatch.setitem(experiments._TABLE_BY_S, "dim_bound_vertical", never)
    code = cli_main(["exponent-table", "--s-grid", s_grid, "--out-dir", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["error"]["type"] == "ValueError"
    assert "s_grid" in record["error"]["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("s_grid", ["0.1:0.4:inf", "-inf:0.4:0.1", "0.1:0.2", "0.1:0.2:0.05:1",
                                    "", " ", "0.1:x:0.1", "1.7e308:1.7e308:1e308",
                                    "0.45:0.15:0.05"])
def test_malformed_s_grid_is_refused_with_one_message(monkeypatch, s_grid):
    # non-finite parts, wrong part counts, text and an end past the float
    # range: one message naming s_grid and its form, before any row
    def never(cfg, s):
        raise AssertionError("a refused grid must not start")

    monkeypatch.setitem(experiments._TABLE_BY_S, "dim_bound_vertical", never)
    with pytest.raises(ValueError) as refused:
        run_experiment(RunConfig(experiment="exponent-table", s_grid=s_grid), write=False)
    assert str(refused.value) == (
        f"s_grid must be finite lo:hi:step with lo <= hi, step > 0 and at most "
        f"{experiments.MAX_S_GRID_POINTS} points, got {s_grid!r}")


def test_exponent_table_s_grid_point_cap():
    cap = experiments.MAX_S_GRID_POINTS
    at_cap = RunConfig(experiment="exponent-table", calculator="dim_bound_curve",
                       m=0.5, s_grid=f"0:{cap - 1}:1")
    result, report = run_experiment(at_cap, write=False)
    assert len(result.rows) + len(report["aux"]["skipped"]) == cap
    with pytest.raises(ValueError, match=f"at most {cap} points"):
        run_experiment(replace(at_cap, s_grid=f"0:{cap}:1"), write=False)


def test_exponent_table_skips_out_of_range():
    cfg = RunConfig(experiment="exponent-table", calculator="dim_bound_vertical",
                    m=0.5, s_grid="0.05:0.45:0.05")
    result, report = run_experiment(cfg, write=False)
    assert len(result.rows) == 7
    skipped = report["aux"]["skipped"]
    assert [row["s"] for row in skipped] == pytest.approx([0.05, 0.1])
    assert all("out of theorem range" in row["reason"] for row in skipped)


def test_frostman_and_cantor_pipelines():
    result, report = run_experiment(RunConfig(experiment="frostman", alpha=0.5),
                                    write=False)
    assert result.passed
    row = result.rows[0]
    assert row["constant"] <= 1.01 * row["bound"]
    result, report = run_experiment(RunConfig(experiment="cantor", r=1.0 / 3.0),
                                    write=False)
    assert result.passed and report["config"]["k"] == 6
    assert [row["count"] for row in result.rows] == [2 ** j for j in range(7)]


def test_covering_pipeline_report_shape():
    result, report = run_experiment(RunConfig(experiment="covering"), write=False)
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["config"]["k"] == 12
    assert result.passed
    assert report["slope"] <= report["predicted_slope"] + report["tolerance"]


def test_propagate_pipeline_writes_outputs(tmp_path):
    cfg = RunConfig(experiment="propagate", family="band", grid_n=16,
                    out_dir=str(tmp_path))
    result, report = run_experiment(cfg)
    lines = (tmp_path / "propagate.csv").read_text().strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 17
    loaded = json.loads((tmp_path / "propagate.json").read_text())
    assert loaded["pass"] is True and len(loaded["points"]) == 16


def test_reports_deterministic_across_thread_counts(tmp_path, monkeypatch):
    cfg = RunConfig.from_mapping({"experiment": "bilinear-check", "alpha": "0.5",
                                  "b_count": "5", "out_dir": str(tmp_path)})
    monkeypatch.setenv("CPL_THREADS", "1")
    run_experiment(cfg)
    first_json = (tmp_path / "bilinear-check.json").read_bytes()
    first_csv = (tmp_path / "bilinear-check.csv").read_bytes()
    monkeypatch.setenv("CPL_THREADS", "4")
    run_experiment(cfg)
    assert (tmp_path / "bilinear-check.json").read_bytes() == first_json
    assert (tmp_path / "bilinear-check.csv").read_bytes() == first_csv


def test_sharpness_vertical_deterministic_across_thread_counts(tmp_path, monkeypatch):
    cfg = RunConfig.from_mapping({"experiment": "sharpness-vertical",
                                  "x_cells": "21", "t_base": "129",
                                  "lam_count": "5", "out_dir": str(tmp_path)})
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("CPL_THREADS", threads)
        run_experiment(cfg)
        outputs.append([(tmp_path / f"sharpness-vertical.{ext}").read_bytes()
                        for ext in ("json", "csv")])
    assert outputs[0] == outputs[1]


def test_sharpness_lines_deterministic_across_thread_counts(tmp_path, monkeypatch):
    cfg = RunConfig.from_mapping({"experiment": "sharpness-lines", "k": "6",
                                  "out_dir": str(tmp_path)})
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("CPL_THREADS", threads)
        run_experiment(cfg)
        outputs.append([(tmp_path / f"sharpness-lines.{ext}").read_bytes()
                        for ext in ("json", "csv")])
    assert outputs[0] == outputs[1]


def test_proposition_lines_deterministic_across_thread_counts(tmp_path, monkeypatch):
    # every rung's base mesh goes through one separable lines call
    cfg = RunConfig.from_mapping({"experiment": "proposition-lines", "x_cells": "31",
                                  "lam_count": "5", "out_dir": str(tmp_path)})
    outputs = []
    for threads in ("1", "4"):
        monkeypatch.setenv("CPL_THREADS", threads)
        run_experiment(cfg)
        outputs.append([(tmp_path / f"proposition-lines.{ext}").read_bytes()
                        for ext in ("json", "csv")])
    assert outputs[0] == outputs[1]


def _reports_across_blas_threads(tmp_path, argv):
    """Report bytes of one CLI run with OPENBLAS_NUM_THREADS=1 and one unset.

    The out_dir string is part of the report, so both runs share it.
    """
    src = str(Path(concave_phase_lab.__file__).resolve().parents[1])
    base = dict(os.environ)
    base["PYTHONPATH"] = os.pathsep.join(
        [src] + ([base["PYTHONPATH"]] if base.get("PYTHONPATH") else []))
    base.pop("OPENBLAS_NUM_THREADS", None)
    outputs = []
    for blas_threads in ("1", None):
        env = dict(base)
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        subprocess.run([sys.executable, "-m", "concave_phase_lab.cli", *argv,
                        "--out-dir", str(tmp_path)],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append([(tmp_path / f"{argv[0]}.{ext}").read_bytes()
                        for ext in ("json", "csv")])
    return outputs


def test_kernel_envelope_deterministic_across_blas_threads(tmp_path):
    # The 64x64 mesh is the smallest tried on which a threaded zgemm
    # contraction changes report bytes (a 16x16 mesh does not); the mesh
    # route's zdotc of at most DOT_NODES nodes stays on one thread.
    first, second = _reports_across_blas_threads(
        tmp_path, ["kernel-envelope", "--grid-n", "64", "--lam-count", "5"])
    assert first == second


def test_sharpness_vertical_deterministic_across_blas_threads(tmp_path):
    # 81 x 129 base samples per rung: the separable base mesh spans three row
    # groups of BUCKET // 129 rows.  A threaded zgemm contraction in place of
    # the single-threaded zdotc per sum and node block changes this report's
    # bytes in repeated runs; 41 x 129 does not show it at the trapezoid
    # rule's node counts.
    first, second = _reports_across_blas_threads(
        tmp_path, ["sharpness-vertical", "--x-cells", "81", "--t-base", "129",
                   "--lam-count", "5"])
    assert first == second


def test_sharpness_lines_deterministic_across_blas_threads(tmp_path):
    first, second = _reports_across_blas_threads(
        tmp_path, ["sharpness-lines", "--k", "6"])
    assert first == second


def test_proposition_lines_deterministic_across_blas_threads(tmp_path):
    # the separable lines mesh of each rung (31 positions x 1 x 2193 columns
    # at the last one) spans one row a group
    first, second = _reports_across_blas_threads(
        tmp_path, ["proposition-lines", "--x-cells", "31", "--lam-count", "5"])
    assert first == second


def test_cli_refuses_oversized_kernel_envelope(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the oversized scan must not start")

    monkeypatch.setattr("concave_phase_lab.phase.kernel_grid", never)
    code = cli_main(["kernel-envelope", "--grid-n", "100000",
                     "--out-dir", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["error"]["type"] == "ValueError"
    assert "grid_n" in record["error"]["message"]
    assert not list(tmp_path.iterdir())


def test_cli_refuses_oversized_sharpness_vertical(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the oversized rung must not start")

    monkeypatch.setattr("concave_phase_lab.maximal.propagate_grid", never)
    for argv in (["--x-cells", "100000"], ["--x-cells", "121", "--t-base", "100000"]):
        code = cli_main(["sharpness-vertical", *argv, "--out-dir", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["schema_version"] == SCHEMA_VERSION
        assert record["error"]["type"] == "ValueError"
        assert "x_cells * t_base" in record["error"]["message"]
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,work", [
    (["bilinear-check", "--b-count", "9"], "bilinear_form_check"),
    (["bilinear-check", "--b-count", "1000000000"], "bilinear_form_check"),
    (["bilinear-check", "--b-count", "0"], "bilinear_form_check"),
    (["bilinear-check", "--grid-n", "1025"], "bilinear_form_check"),
    (["propagate", "--grid-n", "65537"], "propagate_grid"),
    (["propagate", "--grid-n", "0"], "propagate_grid"),
    # 5.5e10 trapezoid nodes built (about two hours), 1.3e8 nodes, and 6.72e7
    # nodes, just past 2**26 (each point's own rule would count 5.1e7)
    (["propagate", "--family", "cantor", "--lam", "1024", "--grid-n", "65536"],
     "propagate_grid"),
    (["propagate", "--family", "cantor", "--lam", "1024", "--grid-n", "128"],
     "propagate_grid"),
    (["propagate", "--family", "cantor", "--lam", "1024", "--grid-n", "65"],
     "propagate_grid"),
    # a ladder of fewer than five widths cannot be fitted
    (["bilinear-check", "--b-count", "4"], "bilinear_form_check"),
])
def test_cli_refuses_grids_outside_budget(tmp_path, capsys, monkeypatch, argv, work):
    def never(*args, **kwargs):
        raise AssertionError("the oversized run must not start")

    monkeypatch.setattr(experiments, work, never)
    code = cli_main([*argv, "--out-dir", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["error"]["type"] == "ValueError"
    assert "grid_n" in record["error"]["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,work,fragment", [
    pytest.param(["sharpness-lines", "--k", "10"], "cantor_level",
                 "2**(2k - 1) * t_base", id="lines-k10"),
    pytest.param(["sharpness-lines", "--k", "9", "--t-base", "513"], "cantor_level",
                 "2**(2k - 1) * t_base", id="lines-k9-t513"),
    pytest.param(["sharpness-lines", "--k", "1000000000"], "cantor_level", "k <= 16",
                 id="lines-k1e9"),
    pytest.param(["sharpness-lines", "--k", "-1"], "cantor_level", "5 <= k",
                 id="lines-k-1"),
    pytest.param(["covering", "--k", "17"], "cantor_level", "k <= 16", id="covering-k17"),
    pytest.param(["covering", "--k", "1000000000"], "cantor_level", "k <= 16",
                 id="covering-k1e9"),
    pytest.param(["cantor", "--k", "17"], "cantor_level", "k <= 16", id="cantor-k17"),
    pytest.param(["sharpness-curve", "--x-cells", "100000"], "matched_point_curve",
                 "x_cells * t_base", id="curve-x100000"),
    pytest.param(["sharpness-curve", "--x-cells", "24", "--t-base", "100000"],
                 "matched_point_curve", "x_cells * t_base", id="curve-t100000"),
    pytest.param(["sharpness-curve", "--x-cells", "-3"], "matched_point_curve",
                 "x_cells >= 1", id="curve-x-3"),
    pytest.param(["proposition-lines", "--x-cells", "-5"], "_geometric_cells",
                 "x_cells >= 1", id="proposition-x-5"),
    pytest.param(["proposition-lines", "--x-cells", "100000000"], "_geometric_cells",
                 "x_cells * t_base * directions", id="proposition-x1e8"),
    pytest.param(["proposition-lines", "--t-base", "100000000"], "_geometric_cells",
                 "x_cells * t_base * directions", id="proposition-t1e8"),
    pytest.param(["proposition-lines", "--theta-nodes", "100000000"], "_geometric_cells",
                 "x_cells * t_base * directions", id="proposition-theta1e8"),
    pytest.param(["proposition-lines", "--x-cells", "487"], "_geometric_cells",
                 "got 487 * 129 * 17", id="proposition-x487"),
])
def test_cli_refuses_ladders_outside_budget(tmp_path, capsys, monkeypatch, argv,
                                            work, fragment):
    def never(*args, **kwargs):
        raise AssertionError("the oversized run must not start")

    monkeypatch.setattr(experiments, work, never)
    monkeypatch.setattr(experiments, "knapp_curve", never)   # a curve rung's first step
    code = cli_main([*argv, "--out-dir", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["error"]["type"] == "ValueError"
    assert fragment in record["error"]["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,fragment", [
    pytest.param(["sharpness-vertical", "--x-cells", "4", "--refine-depth", "18"],
                 "refine_depth", id="vertical-depth18"),
    pytest.param(["sharpness-vertical", "--x-cells", "4", "--refine-depth", "3000"],
                 "refine_depth", id="vertical-depth3000"),
    pytest.param(["sharpness-lines", "--refine-depth", "18"], "refine_depth",
                 id="lines-depth18"),
    pytest.param(["proposition-lines", "--refine-depth", "1"], "refine_depth",
                 id="proposition-depth1"),
    pytest.param(["kernel-envelope", "--lam-ratio", "1", "--lam-count", "200"],
                 "lam_count <= 32", id="envelope-ratio1-count200"),
    pytest.param(["kernel-envelope", "--lam-ratio", "1"], "increasing",
                 id="envelope-ratio1"),
    pytest.param(["kernel-envelope", "--lam-ratio", "0.5"], "increasing",
                 id="envelope-ratio0.5"),
    pytest.param(["kernel-envelope", "--lam-ratio", "nan"], "lam_ratio must be finite",
                 id="envelope-ratio-nan"),
    pytest.param(["kernel-envelope", "--lam-ratio", "1e300"], "finite",
                 id="envelope-ratio1e300"),
    pytest.param(["kernel-envelope", "--lam-count", "33"], "lam_count <= 32",
                 id="envelope-count33"),
    pytest.param(["sharpness-curve", "--lam-count", "4"], "5 <= lam_count",
                 id="curve-count4"),
    pytest.param(["sharpness-vertical", "--lam-min", "0"], "positive",
                 id="vertical-min0"),
    pytest.param(["proposition-lines", "--lam-count", "1000000000"], "lam_count <= 32",
                 id="proposition-count1e9"),
    pytest.param(["sharpness-lines", "--k", "4"], "5 <= k", id="lines-k4"),
    pytest.param(["sharpness-vertical", "--q", "0.5"], "q must be >= 1", id="vertical-q0.5"),
    pytest.param(["sharpness-curve", "--q", "0.9"], "q must be >= 1", id="curve-q0.9"),
    pytest.param(["sharpness-lines", "--q", "0.5"], "q must be >= 1", id="lines-q0.5"),
    # level-5 ends 1e-20 apart coincide in doubles
    pytest.param(["sharpness-lines", "--r", "0.0001", "--k", "5"], "r=0.0001, k=5",
                 id="lines-r1e-4-k5"),
    # one geometric cell would be [0, 1e-6] alone
    pytest.param(["sharpness-vertical", "--x-cells", "1"], "[0, 1e-06]", id="vertical-cells1"),
    pytest.param(["proposition-lines", "--x-cells", "1"], "[0, 1e-06]",
                 id="proposition-cells1"),
])
def test_cli_refuses_depths_and_ladders_before_quadrature(tmp_path, capsys, monkeypatch,
                                                          argv, fragment):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("no quadrature may run")

    for name in ("integrate", "oracle_integrate", "two_phase_batch"):
        monkeypatch.setattr(spectral, name, spy)
    code = cli_main([*argv, "--out-dir", str(tmp_path)])
    assert code == 2 and calls == []
    record = json.loads(capsys.readouterr().err)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["error"]["type"] == "ValueError"
    assert fragment in record["error"]["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key,value,fragment", [
    *(("lam", lam, "lam >= 1") for lam in ("-4", "0", "0.5")),
    *((key, value, f"{key} must be finite") for key in ("lam", "t")
      for value in ("nan", "inf", "-inf")),
])
def test_propagate_refuses_bad_points_before_quadrature(tmp_path, capsys, monkeypatch,
                                                        key, value, fragment):
    # every family, the band one included, which does not read lam
    def spy(*args, **kwargs):
        raise AssertionError("no quadrature may run")

    for name in ("integrate", "oracle_integrate", "two_phase_batch"):
        monkeypatch.setattr(spectral, name, spy)
    for family in experiments._FAMILIES:
        code = cli_main(["propagate", "--family", family, f"--{key}", value,
                         "--out-dir", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "ValueError"
        assert fragment in record["error"]["message"]
    assert not list(tmp_path.iterdir())


def _cli_quietly(argv):
    """(exit code, stderr, warnings) of one CLI run, stdout discarded."""
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli_main(argv)
    return code, stderr.getvalue(), caught


def test_cli_refuses_non_finite_floats_quietly(tmp_path):
    # every float setting of every pipeline, NaN or infinite: exit 2 with one
    # JSON record and no warning before it, whether the pipeline reads it or not
    floats = [f.name for f in fields(RunConfig) if f.type == "float"]
    values = ["nan", "inf", "-inf"]
    cases = [(experiment, key) for experiment in sorted(PIPELINES) for key in floats]
    for i, (experiment, key) in enumerate(cases):
        value = values[i % len(values)]
        code, err, caught = _cli_quietly([experiment, f"--{key}={value}",
                                          "--out-dir", str(tmp_path)])
        assert code == 2 and not caught, (experiment, key, value)
        assert json.loads(err)["error"]["message"] == f"{key} must be finite, got {value}"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("t", ["1e308", "-1e308"])
def test_propagate_node_budget_refuses_huge_times_quietly(tmp_path, t):
    # the work count overflows to inf without a warning, and the budget refuses it
    for family in experiments._FAMILIES:
        code, err, caught = _cli_quietly(["propagate", "--family", family, "--t", t,
                                          "--out-dir", str(tmp_path)])
        assert code == 2 and not caught, family
        assert "trapezoid nodes, got inf" in json.loads(err)["error"]["message"]
    assert not list(tmp_path.iterdir())


def _strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [["frostman", "--alpha", "5e-324"],
                                  ["frostman", "--alpha", "1e-320"],
                                  ["frostman", "--alpha", "1e-310"]])
def test_cli_refuses_reports_that_are_not_strict_json(tmp_path, capsys, argv):
    # finite settings, but 2*3^alpha/alpha of a subnormal alpha overflows to inf
    assert cli_main([*argv, "--out-dir", str(tmp_path)]) == 2
    record = _strict_json(capsys.readouterr().err)
    assert "strict JSON" in record["error"]["message"]
    assert not list(tmp_path.iterdir())


# Cheap pipelines at small sizes, the fields each reads, and values for them:
# non-finite, zero, negative, huge, subnormal, small integers and small floats
# for numeric fields, and every data family for ``family``.
_CHEAP_RUNS = {
    "propagate": (["--grid-n=4"], ["lam", "t", "m", "kappa", "theta", "grid_n", "family"]),
    "kernel-envelope": (["--grid-n=8", "--lam-count=5"],
                        ["m", "alpha", "q", "eps", "lam_min", "lam_ratio", "lam_count",
                         "grid_n"]),
    "cantor": ([], ["r", "k"]),
    "covering": ([], ["r", "k", "m", "alpha", "q", "eps"]),
    "exponent-table": ([], ["m", "s", "seed"]),
    "frostman": ([], ["alpha"]),
}
_SPECIAL = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-4",
                            "1e308", "-1e308", "1e-310", "5e-324"])
_NUMBERS = st.one_of(_SPECIAL, _SPECIAL, st.integers(-4, 6).map(str),
                     st.floats(-8.0, 8.0).map(repr))
_FAMILY = st.sampled_from(sorted(experiments._FAMILIES))
_OVERRIDES = st.sampled_from(sorted(_CHEAP_RUNS)).flatmap(lambda name: st.tuples(
    st.just(name),
    st.lists(st.sampled_from(_CHEAP_RUNS[name][1]), min_size=1,
             max_size=min(3, len(_CHEAP_RUNS[name][1])), unique=True)
    .flatmap(lambda keys: st.fixed_dictionaries(
        {key: _FAMILY if key == "family" else _NUMBERS for key in keys}))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_OVERRIDES)
@example(case=("propagate", {"family": "curve-knapp", "lam": "1e308"}))
@example(case=("propagate", {"family": "spatial-knapp", "lam": "1e308"}))
@example(case=("propagate", {"family": "temporal-knapp", "lam": "1e200"}))
@example(case=("frostman", {"alpha": "5e-324"}))
@example(case=("frostman", {"alpha": "1e-310"}))
def test_cli_numeric_overrides_end_in_a_strict_report_or_a_record(tmp_path_factory, case):
    # exit 0 or 1 with a report that parses as strict JSON, or exit 2 with
    # the JSON error record and no files; no warning either way
    experiment, overrides = case
    out_dir = tmp_path_factory.mktemp("run")
    code, err, caught = _cli_quietly(
        [experiment, *_CHEAP_RUNS[experiment][0],
         *(f"--{key}={value}" for key, value in overrides.items()),
         "--out-dir", str(out_dir)])
    assert not caught, [str(w.message) for w in caught]
    if code == 2:
        record = _strict_json(err)
        assert record["experiment"] == experiment and record["error"]["message"]
        assert not list(out_dir.iterdir())
    else:
        assert code in (0, 1)
        report = _strict_json((out_dir / f"{experiment}.json").read_text())
        assert report["experiment"] == experiment


# Cheap pipelines and their string fields, with the values they accept and
# strings that are empty, blank, non-ASCII, non-finite, of the wrong part count
# or of a huge grid.
_STRING_RUNS = {
    "exponent-table": ([], ["s_grid", "calculator"]),
    "kernel-envelope": (["--grid-n=8", "--lam-count=5"], ["variant"]),
    "sharpness-vertical": (["--x-cells=2", "--t-base=17", "--lam-count=5"], ["data"]),
}
_ODD = st.sampled_from(["", " ", "\t", "é", "０.１", "½", "∞", "\x00", "nan", "inf", "-inf",
                        "1e999", "none", "0x10", "1_0", " 0.2 "])
_GRID_PART = st.one_of(_ODD, _SPECIAL, st.sampled_from(["0.15", "0.45", "0.05", "1e-3"]),
                       st.floats(-2.0, 2.0).map(repr))
_STRINGS = {
    "s_grid": st.one_of(st.lists(_GRID_PART, max_size=5).map(":".join), _ODD,
                        st.sampled_from(["0.15:0.45:0.05", "0:1e308:1e305", "0:1e6:1",
                                         "-1e308:1e308:1", "1.7e308:1.7e308:1.7e308",
                                         "0.1:0.4:inf", "0.1:0.2", "0.1:0.2:0.05:1"])),
    "calculator": st.one_of(_ODD, st.sampled_from(sorted(experiments._TABLE_BY_S)
                                                  + sorted(experiments._TABLE_FLAT))),
    "variant": st.one_of(_ODD, st.sampled_from(["vertical", "curve", "Vertical"])),
    "data": st.one_of(_ODD, st.sampled_from(["spatial", "temporal", "spatial "])),
}
_STRING_OVERRIDES = st.sampled_from(sorted(_STRING_RUNS)).flatmap(lambda name: st.tuples(
    st.just(name),
    st.lists(st.sampled_from(_STRING_RUNS[name][1]), min_size=1, unique=True)
    .flatmap(lambda keys: st.fixed_dictionaries({key: _STRINGS[key] for key in keys}))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_STRING_OVERRIDES)
@example(case=("exponent-table", {"s_grid": "0.1:0.4:inf"}))
@example(case=("exponent-table", {"s_grid": "0.1:0.2"}))
@example(case=("exponent-table", {"s_grid": "0.1:0.2:0.05:1"}))
@example(case=("exponent-table", {"s_grid": ""}))
def test_cli_string_overrides_end_in_a_strict_report_or_a_record(tmp_path_factory, case):
    # exit 0 or 1 with a report that parses as strict JSON, or exit 2 with
    # one JSON error record that names the refused field and no files; no
    # warning either way
    experiment, overrides = case
    out_dir = tmp_path_factory.mktemp("run")
    code, err, caught = _cli_quietly(
        [experiment, *_STRING_RUNS[experiment][0],
         *(f"--{key}={value}" for key, value in overrides.items()),
         "--out-dir", str(out_dir)])
    assert not caught, [str(w.message) for w in caught]
    event(f"{experiment} exits {code}")
    if code == 2:
        record = _strict_json(err)
        assert record["experiment"] == experiment
        assert any(key in record["error"]["message"] for key in overrides), record
        assert not list(out_dir.iterdir())
    else:
        assert code in (0, 1)
        report = _strict_json((out_dir / f"{experiment}.json").read_text())
        assert report["experiment"] == experiment


def test_depth_and_ladder_budgets_accept_every_default():
    # every pipeline's resolved defaults, the acceptance ladders (9 rungs) and
    # the limits themselves pass both checks
    for name in PIPELINES:
        cfg = resolve_config(RunConfig(experiment=name))
        if cfg.t_base:
            experiments._grid(cfg)
        if cfg.lam_count:
            assert len(experiments._ladder(cfg)) == cfg.lam_count
    for lam_count in (5, 9, experiments.MAX_LADDER_RUNGS):
        lams = experiments._ladder(RunConfig(lam_count=lam_count))
        assert lams[0] == 16.0 and len(lams) == lam_count
    assert experiments._ladder(RunConfig(lam_count=5, lam_ratio=1.5, lam_min=1.0))
    experiments._grid(RunConfig(t_base=65, refine_depth=maximal.MAX_REFINE_DEPTH))


@pytest.mark.parametrize("overrides,work", [
    ({"experiment": "bilinear-check", "b_count": 8, "grid_n": 1024},
     "bilinear_form_check"),
    ({"experiment": "propagate", "grid_n": 2 ** 16}, "propagate_grid"),
    ({"experiment": "sharpness-lines", "k": 8}, "cantor_level"),       # benchmark
    ({"experiment": "sharpness-lines"}, "cantor_level"),               # criterion 07
    ({"experiment": "sharpness-lines", "k": 9, "t_base": 512}, "cantor_level"),
    ({"experiment": "covering"}, "cantor_level"),
    ({"experiment": "covering", "k": 16}, "cantor_level"),
    ({"experiment": "cantor", "k": 8}, "cantor_level"),                # criterion 09
    ({"experiment": "cantor", "k": 16}, "cantor_level"),
    ({"experiment": "sharpness-curve", "x_cells": 4096, "t_base": 256},
     "matched_point_curve"),
    ({"experiment": "propagate", "family": "curve-knapp", "lam": 256.0, "t": 0.5},
     "propagate_grid"),                                                # README
    ({"experiment": "propagate", "family": "cantor", "lam": 1024.0, "grid_n": 64},
     "propagate_grid"),                                                # 6.66e7 nodes
    ({"experiment": "proposition-lines", "x_cells": 478}, "_geometric_cells"),  # x 129 x 17
])
def test_grid_budgets_accept_their_limit(monkeypatch, overrides, work):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(experiments, work, reached)
    with pytest.raises(Reached):
        run_experiment(RunConfig(**overrides), write=False)


def test_pipeline_registry_is_complete():
    assert sorted(PIPELINES) == ["bilinear-check", "cantor", "covering",
                                 "exponent-table", "frostman", "kernel-envelope",
                                 "propagate", "proposition-lines",
                                 "sharpness-curve", "sharpness-lines",
                                 "sharpness-vertical"]


def test_cli_success_line(tmp_path, capsys):
    code = cli_main(["exponent-table", "--calculator", "s_star_vertical",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("exponent-table") and "PASS" in out
    assert (tmp_path / "exponent-table.json").exists()


def test_cli_error_record(tmp_path, capsys):
    code = cli_main(["exponent-table", "--calculator", "bogus",
                     "--out-dir", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["error"]["type"] == "ValueError"
    assert "unknown calculator" in record["error"]["message"]


def test_cli_rejects_sharpness_curve_without_cells(tmp_path, capsys):
    # theta = 0 puts every cell of the curve ladder at x = 0
    code = cli_main(["sharpness-curve", "--theta", "0", "--out-dir", str(tmp_path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["error"]["type"] == "ValueError"
    assert "theta > 0" in record["error"]["message"]
    assert not list(tmp_path.iterdir())


def test_cli_rejects_unknown_key(tmp_path, capsys):
    for argv in (["--bogus-knob", "3"], ["--rel-tol", "1e-3"]):
        code = cli_main(["frostman", *argv, "--out-dir", str(tmp_path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert "unknown config key" in record["error"]["message"]
        assert not list(tmp_path.iterdir())


def test_cli_config_file_values_and_overrides(tmp_path, capsys):
    # --config FILE in process: a value from the file is used, a command-line
    # override beats the file, and an unknown key in the file exits 2 with one
    # JSON error record and nothing written
    config = tmp_path / "cantor.cfg"
    config.write_text("# a short ladder\nk = 3   # levels\nr = 0.3\n")
    for argv, k in (([], 3), (["--k", "2"], 2)):
        out = tmp_path / f"k{k}"
        assert cli_main(["cantor", "--config", str(config), *argv, "--out-dir", str(out)]) == 0
        report = json.loads((out / "cantor.json").read_text())
        assert (report["config"]["k"], report["config"]["r"]) == (k, 0.3)
        assert len((out / "cantor.csv").read_text().strip().splitlines()) == k + 2
    capsys.readouterr()
    config.write_text("k = 3\nbogus_knob = 1\n")
    out = tmp_path / "bogus"
    assert cli_main(["cantor", "--config", str(config), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    record = json.loads(captured.err)
    assert record["error"]["message"] == "unknown config key: 'bogus_knob'"
    assert not captured.out and not out.exists()


_CANTOR_K = st.one_of(*[st.integers(0, 10).map(str)] * 3,
                      st.sampled_from(["-2", "17", "2.5", "x", ""]))
_CANTOR_R = st.one_of(*[st.floats(0.05, 0.45).map(repr)] * 3,
                      st.sampled_from(["0", "0.5", "0.7", "-0.1", "nan", "inf", "abc", ""]))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(file_k=_CANTOR_K, file_r=_CANTOR_R,
       override=st.one_of(st.none(), st.sampled_from(["k", "r"]).flatmap(
           lambda key: st.tuples(st.just(key), _CANTOR_K if key == "k" else _CANTOR_R,
                                 st.booleans()))),
       extra=st.sampled_from(["", "", "# a comment", "bogus_knob = 1", "a line without equals"]))
def test_cli_config_file_mappings_run_or_exit_2(file_k, file_r, override, extra):
    # --config FILE with k and r in the file, an optional override (as --key
    # value or --key=value) and an optional extra line: every mapping either
    # runs, with the override's value in the report over the file's, or exits
    # 2 with one JSON error record on stderr, nothing on stdout and nothing
    # written.  A mapping of valid values (0 <= k <= 16, 0 < r < 1/2, no bad
    # line) runs.
    values = {"k": file_k, "r": file_r}
    argv = []
    if override is not None:
        key, value, joined = override
        values[key] = value
        argv = [f"--{key}={value}"] if joined else [f"--{key}", value]

    def valid(key, raw):
        try:
            value = int(raw) if key == "k" else float(raw)
        except ValueError:
            return False
        return 0 <= value <= 16 if key == "k" else 0.0 < value < 0.5

    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        config.write_text(f"k = {file_k}\nr = {file_r}\n{extra}\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(["cantor", "--config", str(config), *argv, "--out-dir", str(out)])
        event(f"exit {code}")
        if code == 2:
            record = json.loads(stderr.getvalue())
            assert set(record) == {"schema_version", "experiment", "error"}
            assert not stdout.getvalue() and not out.exists()
            assert not (all(valid(*kv) for kv in values.items()) and extra in ("", "# a comment"))
        else:
            assert code in (0, 1) and not stderr.getvalue()
            report = json.loads((out / "cantor.json").read_text())["config"]
            assert report["k"] == (int(values["k"]) or 6) and report["r"] == float(values["r"])


def test_cli_equals_override_form(tmp_path, capsys):
    code = cli_main(["cantor", "--k=3", f"--out-dir={tmp_path}"])
    assert code == 0
    lines = (tmp_path / "cantor.csv").read_text().strip().splitlines()
    assert lines[0] == "j,count,expected"
    assert len(lines) == 5
