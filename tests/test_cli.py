"""Command-line interface: config parsing, subcommands, exit codes,
and byte-level determinism of the emitted files.

Exit-code contract
------------------
0 = every selected test passed (inconclusive counts as pass unless
--strict), 1 = hard failure (statistical or runtime), 2 = config error.
"""

import csv
import dataclasses
import glob
import hashlib
import importlib.util
import json
import os
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from inertdrift import (
    Interval,
    make_coefficients,
    make_domain,
    read_path_csv,
    solve_skorokhod,
    write_path_csv,
)
from inertdrift import cli
from inertdrift._kernels import FLAG_REFLECT_FAILURE
from inertdrift.cli import ConfigError, emit_histograms, load_run_config, main
from inertdrift.simulate import SimConfig, run_ensemble
from inertdrift.stationary import StationaryMeasure, sample_stationary
from test_analysis import synthetic_batch

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def base_config(**overrides):
    cfg = {
        "dimension": 1,
        "domain": {"kind": "interval", "bounds": [0.0, 1.0]},
        "coefficients": {"preset": "identity", "gamma": [[1.0]]},
        "sim": {
            "family": "reflected",
            "dt_base": 0.001,
            "t_end": 2.0,
            "n_paths": 8,
            "seed": 3,
            "burn_in": 0.5,
            "snap_every": 50,
        },
        "tests": [],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_load_run_config_accepts_dict_and_file(tmp_path):
    cfg = base_config()
    from_dict = load_run_config(cfg)
    from_file = load_run_config(write_config(tmp_path, "a.json", cfg))
    assert from_dict.dimension == from_file.dimension == 1
    assert from_dict.sim == from_file.sim
    assert from_dict.domain.d == 1


def test_asymmetric_gamma_names_the_field():
    cfg = base_config(dimension=2,
                      domain={"kind": "ball", "center": [0.0, 0.0],
                              "radius": 1.0},
                      coefficients={"preset": "identity",
                                    "gamma": [[1.0, 0.3], [0.2, 1.0]]})
    with pytest.raises(ConfigError, match="coefficients.gamma"):
        load_run_config(cfg)


def test_unknown_sim_field_rejected():
    cfg = base_config()
    cfg["sim"]["n_pathz"] = 4
    with pytest.raises(ConfigError, match="sim.n_pathz"):
        load_run_config(cfg)


def test_domain_dimension_cross_checked():
    cfg = base_config(domain={"kind": "ball", "center": [0.0, 0.0],
                              "radius": 1.0})
    with pytest.raises(ConfigError, match="dimension"):
        load_run_config(cfg)


def test_angular_test_needs_two_dimensions():
    cfg = base_config(tests=["angular"])
    with pytest.raises(ConfigError, match="angular"):
        load_run_config(cfg)


@pytest.mark.parametrize("domain, preset", [
    ({"kind": "ellipsoid", "center": [0.0, 0.0], "radii": [1.0, 0.5]},
     "identity"),
    ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}, "exp_density"),
], ids=["ellipsoid", "exp_density_disc"])
def test_angular_test_needs_a_rotation_invariant_law_exits_2_before_simulating(
        tmp_path, capsys, domain, preset):
    cfg = base_config(dimension=2, domain=domain, tests=["angular"],
                      coefficients={"preset": preset,
                                    "gamma": [[2.0, 0.0], [0.0, 1.0]]})
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 2
    assert "'angular' requires a disc" in capsys.readouterr().err
    assert not out.exists()


def test_angular_test_loads_on_the_shipped_and_benchmark_discs(tmp_path):
    path = os.path.join(CONFIG_DIR, "disc_gamma21.json")
    assert "angular" in load_run_config(path).tests
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(PERFBENCH_DIR, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    # making the workload loads its config
    assert "angular" in workloads.DiscNarrow(1, str(tmp_path)).parsed.tests


def test_ks_test_above_two_dimensions_exits_2_before_simulating(tmp_path, capsys):
    cfg = base_config(dimension=3, tests=["ks"],
                      domain={"kind": "box", "lo": [0.0, 0.0, 0.0],
                              "hi": [1.0, 1.0, 1.0]},
                      coefficients={"preset": "identity",
                                    "gamma": np.eye(3).tolist()})
    with pytest.raises(ConfigError, match="'ks' requires dimension 1 or 2"):
        load_run_config(cfg)
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 2
    assert "'ks' requires dimension" in capsys.readouterr().err
    assert not out.exists()
    cfg["tests"] = ["moments"]  # the other tests run in three dimensions
    assert load_run_config(cfg).dimension == 3


def test_potential_requires_gradient_family():
    cfg = base_config(potential={"kind": "regularized_vn", "n": 2})
    with pytest.raises(ConfigError, match="gradient"):
        load_run_config(cfg)


@pytest.mark.parametrize("n", [2.5, 0, float("inf")])
def test_potential_n_must_be_a_positive_integer(tmp_path, capsys, n):
    cfg = base_config(potential={"kind": "regularized_vn", "n": n})
    cfg["sim"]["family"] = "gradient"
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 2
    assert "potential.n must be a positive integer" in capsys.readouterr().err


def test_tests_on_weighted_family_exit_2_before_simulating(tmp_path, capsys):
    cfg = base_config(tests=["ks"])
    cfg["sim"]["family"] = "driftless_weighted"
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 2
    assert "driftless_weighted" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("snap_every", 2.5), ("chunk_size", 2.5), ("n_paths", 2.5),
    ("chunk_size", 0), ("seed", -1),
    ("dt_base", True), ("dt_base", "0.001"), ("t_end", True),
    ("burn_in", True), ("burn_in", "0.5"),
    ("x0", ["0.5"]), ("x0", [True]), ("k0", [False]),
    ("x0", [0.5, 0.5]), ("k0", [0.0, 1.0]),
])
def test_bad_integer_sim_field_exits_2_before_simulating(
    tmp_path, capsys, field, value
):
    cfg = base_config()
    cfg["sim"][field] = value
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 2
    assert main(["run", path, "--dry-run", "--output-dir", str(out)]) == 2
    assert "sim: %s must be a" % field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family, x0, message", [
    ("reflected", [2.0], "sim: x0 must lie inside the domain"),
    ("gradient", [0.001], "sim: x0 sits inside the resolvable wall layer"),
], ids=["outside_domain", "inside_wall_layer"])
def test_bad_start_point_exits_2_before_simulating(
    tmp_path, capsys, family, x0, message
):
    # run_ensemble's own checks on the start, made while the config loads
    cfg = base_config()
    if family == "gradient":
        cfg["potential"] = {"kind": "regularized_vn", "n": 2}
    cfg["sim"].update({"family": family, "x0": x0})
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", path, "--dry-run", "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_wall_too_thin_for_its_guard_exits_2_before_simulating(tmp_path, capsys):
    # an n = 1 wall on [0, 0.004]: its guard 5e-4 gives 1/(n guard) = 2000,
    # above the exponent cap 700, which the kernel does not test per step
    cfg = base_config(domain={"kind": "interval", "bounds": [0.0, 0.004]},
                      potential={"kind": "regularized_vn", "n": 1})
    cfg["sim"].update({"family": "gradient", "dt_base": 1e-6, "t_end": 1e-4,
                       "burn_in": 0.0, "snap_every": 10})
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 2
    assert "the wall is too thin to step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("adaptive", True), ("h_max_fraction", 0.05), ("delta_guard", 0.01),
    ("max_substeps", 200), ("resample_cap", 50),
])
def test_removed_step_limit_sim_field_exits_2_before_simulating(
    tmp_path, capsys, field, value
):
    # the gradient family's step limits are constants of simulate
    cfg = base_config(potential={"kind": "regularized_vn", "n": 8})
    cfg["sim"].update({"family": "gradient", field: value})
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 2
    assert "sim.%s is not a recognized field" % field in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_an_unnormalizable_law_before_simulating(
    tmp_path, capsys, monkeypatch
):
    # the half-line has no stationary law for the histograms to overlay
    cfg = base_config(domain={"kind": "interval", "bounds": [0.0, float("inf")]})
    cfg["sim"]["x0"] = [0.5]
    path = write_config(tmp_path, "cfg.json", cfg)
    real = cli.run_ensemble
    monkeypatch.setattr(cli, "run_ensemble",
                        lambda *a, **k: pytest.fail("simulated"))
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 2
    assert "not normalizable on an unbounded domain" in capsys.readouterr().err
    assert not out.exists()
    # with neither tests nor histograms the run needs no law
    monkeypatch.setattr(cli, "run_ensemble", real)
    assert main(["run", path, "--output-dir", str(out), "--no-histograms"]) == 0
    assert (out / "trajectory.csv").exists()


SIM_FIELDS = ("family", "dt_base", "t_end", "n_paths", "seed", "burn_in",
              "snap_every", "x0", "k0", "chunk_size")


def test_sim_fields_are_pinned_and_documented():
    # adding a sim field is a deliberate change: here and in the README
    fields = dataclasses.fields(SimConfig)
    assert tuple(f.name for f in fields) == SIM_FIELDS
    optional = {f.name for f in fields if f.default is not dataclasses.MISSING}
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as fh:
        readme = fh.read()
    schema = readme.split("### Config schema", 1)[1].split("```", 2)[1]
    listed = schema.split("// optional:", 1)[1].split("unknown keys", 1)[0]
    assert set(re.findall(r"(\w+) \(", listed)) == optional


@pytest.mark.parametrize("coefficients, message", [
    ('"inert_field": {"kind": "a0_conormal", "a0": null}',
     "coefficients.inert_field.a0 must be a number"),
    ('"inert_field": {"kind": "a0_conormal", "a0": "x"}',
     "coefficients.inert_field.a0 must be a number"),
    ('"inert_field": {"kind": "a0_conormal", "ao": 3}',
     "coefficients.inert_field.ao is not a recognized field"),
    ('"inert_field": {"kind": "a0_conormal", "a0": 1e999}',
     "a0 must be a finite number"),
    ('"a_diag": "ab"', "coefficients.a_diag must be a list of numbers"),
    ('"a_diag": ["1"]', "a_diag must give 1 positive diagonal entries"),
    ('"a_diag": [true]', "a_diag must give 1 positive diagonal entries"),
])
def test_bad_coefficients_block_exits_2_before_simulating(
    tmp_path, capsys, coefficients, message
):
    # written as text, so 1e999 reaches the JSON parser as written
    block = '{"preset": "anisotropic", "gamma": [[1.0]], %s}' % coefficients
    if "a_diag" not in coefficients:
        block = block.replace('"gamma"', '"a_diag": [1.0], "gamma"')
    text = json.dumps(base_config(coefficients="BLOCK")).replace('"BLOCK"', block)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(path), "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("block, field, value", [
    ("residual", "count", "abc"), ("residual", "count", 2.5),
    ("residual", "count", 0), ("residual", "seed", -1),
    ("residual", "tolerance", "x"), ("residual", "tolerance", -1e-5),
    ("sweep", "n_list", 5), ("sweep", "n_list", [1]),
    ("sweep", "n_list", [4, 2]), ("sweep", "n_list", [1, 2.5]),
    ("sweep", "margin", "x"),
])
def test_residual_and_sweep_blocks_are_validated_at_load(block, field, value):
    with pytest.raises(ConfigError, match="%s.%s" % (block, field)):
        load_run_config(base_config(**{block: {field: value}}))


def test_bad_sweep_margin_exits_2_before_simulating(tmp_path, capsys):
    # the margin is always three noise floors: a declared one is refused
    path = write_config(tmp_path, "cfg.json",
                        base_config(sweep={"margin": 0.01}))
    out = tmp_path / "out"
    assert main(["sweep", path, "--output-dir", str(out)]) == 2
    assert "sweep.margin is not a recognized field" in capsys.readouterr().err
    assert not out.exists()
    path = write_config(tmp_path, "ok.json", base_config())
    with pytest.raises(SystemExit) as exc:
        main(["sweep", path, "--output-dir", str(out), "--margin", "0.01"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --margin" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_test_name_rejected():
    cfg = base_config(tests=["ks", "kurtosis"])
    with pytest.raises(ConfigError, match="kurtosis"):
        load_run_config(cfg)


@pytest.mark.parametrize("overrides, message", [
    ({"histogram": {"bins": 40, "bogus": 1}},
     "histogram.bogus is not a recognized field"),
    ({"tests": ["ks", "moments", "ks"]}, "tests: 'ks' is listed more than once"),
])
def test_histogram_fields_and_repeated_tests_exit_2_before_simulating(
    tmp_path, capsys, overrides, message
):
    path = write_config(tmp_path, "cfg.json", base_config(**overrides))
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "residual"])
def test_non_finite_gamma_exits_2_before_simulating(tmp_path, capsys, command):
    # written as text, so 1e999 reaches the JSON parser as written
    text = json.dumps(base_config()).replace("[[1.0]]", "[[1e999]]")
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, str(path), "--output-dir", str(out)]) == 2
    assert "coefficients.gamma must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_config_error_exits_2(tmp_path, capsys):
    cfg = base_config()
    cfg["coefficients"]["gamma"] = [[-1.0]]
    path = write_config(tmp_path, "bad.json", cfg)
    assert main(["run", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


def test_dry_run_writes_manifest_only(tmp_path, capsys):
    path = write_config(tmp_path, "cfg.json", base_config())
    out = tmp_path / "out"
    assert main(["run", path, "--dry-run", "--output-dir", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dry_run"] is True
    assert manifest["n_steps"] == 2000
    assert manifest["config"]["sim"]["seed"] == 3


def test_run_outputs_are_byte_identical(tmp_path):
    path = write_config(tmp_path, "cfg.json", base_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", path, "--output-dir", str(out1)]) == 0
    assert main(["run", path, "--output-dir", str(out2)]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    assert {"manifest.json", "trajectory.csv", "hist_x1.csv",
            "hist_x1.svg", "hist_k1.csv", "hist_k1.svg"} <= set(names)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# sha256 of report.csv from a short disc_gamma21 run: every number and
# detail string of the four-test battery (level=0.01, sectors=8)
DISC_REPORT_SHA = (
    "d9ace3202e6d12fd4f589607153b645f22ef3a784ea1f01222c46d3401fb76b2")


@pytest.mark.digests
def test_disc_battery_report_is_pinned(tmp_path, capsys):
    with open(os.path.join(CONFIG_DIR, "disc_gamma21.json")) as fh:
        cfg = json.load(fh)
    cfg["sim"].update(dt_base=1e-3, t_end=2.0, n_paths=64, burn_in=0.5,
                      snap_every=10)
    path = write_config(tmp_path, "disc.json", cfg)
    out = tmp_path / "out"
    main(["run", path, "--no-histograms", "--output-dir", str(out)])
    report = (out / "report.csv").read_bytes()
    assert b"sectors=8 level=0.01 " in report
    assert hashlib.sha256(report).hexdigest() == DISC_REPORT_SHA


def test_run_writes_the_importance_weights(tmp_path):
    cfg = base_config()
    cfg["sim"].update(family="driftless_weighted", k0=[0.5])
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out), "--no-histograms"]) == 0
    lines = (out / "weights.csv").read_text().splitlines()
    assert lines[0] == "path_id,log_weight"
    table = np.loadtxt(out / "weights.csv", delimiter=",", skiprows=1)
    assert table[:, 0].tolist() == list(range(8))
    batch = run_ensemble(load_run_config(cfg).cs, load_run_config(cfg).sim,
                         domain=Interval(0.0, 1.0))
    assert np.array_equal(table[:, 1], batch.log_weights)  # %.17g round-trips
    assert np.all(table[:, 1] != 0.0)
    w = np.exp(table[:, 1])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kish_ess"] == pytest.approx(w.sum() ** 2 / (w * w).sum(),
                                                 rel=1e-12)
    assert 1.0 <= manifest["kish_ess"] <= 8.0
    # the other families carry no weights
    plain = tmp_path / "plain"
    path = write_config(tmp_path, "plain.json", base_config())
    assert main(["run", path, "--output-dir", str(plain), "--no-histograms"]) == 0
    assert not (plain / "weights.csv").exists()
    assert "kish_ess" not in json.loads((plain / "manifest.json").read_text())


def test_run_rejects_the_numba_backend(tmp_path, capsys):
    path = write_config(tmp_path, "cfg.json", base_config())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--output-dir", str(out), "--backend", "numba"])
    assert exc.value.code == 2
    assert "invalid choice: 'numba'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("domain, family, recorded", [
    ({"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 2.0]}, "reflected",
     {"lo": [0.0, 0.0], "hi": [1.0, 2.0]}),
    ({"kind": "ellipsoid", "center": [0.1, 0.0], "radii": [1.0, 0.5]},
     "driftless_weighted", {"center": [0.1, 0.0], "radii": [1.0, 0.5]}),
], ids=["box", "ellipsoid"])
def test_run_on_box_and_ellipsoid_records_the_domain(tmp_path, domain, family,
                                                      recorded):
    cfg = base_config(dimension=2, domain=domain,
                      coefficients={"preset": "identity", "gamma": [[2.0, 0.0],
                                                                     [0.0, 1.0]]})
    cfg["sim"].update(family=family, t_end=0.5, burn_in=0.1)
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out), "--no-histograms"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["backend"] == "numpy"
    assert manifest["domain"] == {"kind": domain["kind"], "dim": 2, **recorded}
    assert manifest["diagnostics"]["contacts"] > 0


@pytest.mark.slow
def test_shipped_interval_config_passes(tmp_path, capsys):
    path = os.path.join(CONFIG_DIR, "interval_gamma1.json")
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    passes = [ln for ln in lines if "[PASS]" in ln]
    assert len(passes) == 3
    report = (out / "report.csv").read_text().splitlines()
    assert report[0].startswith("name,statistic,threshold")
    assert len(report) == 4
    ET.parse(out / "hist_x1.svg")  # well-formed XML


@pytest.mark.parametrize("name", sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(CONFIG_DIR, "*.json"))))
def test_shipped_config_loads_and_dry_runs(tmp_path, name):
    path = os.path.join(CONFIG_DIR, name)
    if load_run_config(path).sim is not None:
        assert main(["run", path, "--dry-run", "--output-dir", str(tmp_path)]) == 0


def test_run_tests_ks_on_every_coordinate(tmp_path, capsys, monkeypatch):
    # stationary draws on the disc with x2 folded to |x2|: only the second
    # coordinate's marginal is wrong
    disc = {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
    cfg = base_config(dimension=2, domain=disc, tests=["ks"],
                      coefficients={"preset": "identity",
                                    "gamma": [[2.0, 0.0], [0.0, 1.0]]})
    xs, ks = sample_stationary(StationaryMeasure(load_run_config(cfg).cs),
                               20_000, seed=9)
    xs[:, 1] = np.abs(xs[:, 1])
    folded = synthetic_batch(xs, ks, n_paths=100)
    monkeypatch.setattr(cli, "run_ensemble", lambda *args, **kwargs: folded)
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out), "--no-histograms"]) == 1
    assert "[FAIL]" in capsys.readouterr().out
    rows = (out / "report.csv").read_text().splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].startswith("ks_uniformity,") and "coordinate=1 " in rows[0]


def test_inconclusive_passes_unless_strict(tmp_path, capsys):
    cfg = base_config(tests=["moments"])
    cfg["sim"].update(t_end=3.0, n_paths=4, seed=1, burn_in=1.0,
                      snap_every=100)
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["run", path, "--output-dir", str(tmp_path / "a"),
                 "--no-histograms"]) == 0
    assert "[INCONCLUSIVE]" in capsys.readouterr().out
    assert main(["run", path, "--output-dir", str(tmp_path / "b"),
                 "--no-histograms", "--strict"]) == 1


@pytest.mark.slow
def test_coarse_step_fails_the_ks_battery(tmp_path, capsys):
    cfg = base_config(tests=["ks"])
    cfg["sim"].update(t_end=30.0, n_paths=256, seed=9, burn_in=5.0,
                      snap_every=20)
    path = write_config(tmp_path, "cfg.json", cfg)
    assert main(["run", path, "--output-dir", str(tmp_path / "out"),
                 "--no-histograms"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_output_root_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("INERTDRIFT_OUTPUT_ROOT", str(tmp_path / "root"))
    path = write_config(tmp_path, "cfg.json", base_config())
    assert main(["run", path, "--no-histograms"]) == 0
    out = tmp_path / "root" / "run-cfg"
    assert (out / "trajectory.csv").exists()


# ---------------------------------------------------------------------------
# skorokhod subcommand
# ---------------------------------------------------------------------------


def test_skorokhod_subcommand_matches_direct_solve(tmp_path):
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 1.0, 801)
    values = np.cumsum(rng.normal(0.0, 0.02, (801, 1)), axis=0) + 0.2
    drive = tmp_path / "drive.csv"
    write_path_csv(str(drive), times, values)
    cfg = write_config(tmp_path, "cfg.json", base_config())
    out = tmp_path / "solved.csv"
    assert main(["skorokhod", str(drive), cfg, "--out", str(out)]) == 0
    direct = solve_skorokhod(make_domain("interval", bounds=(0.0, 1.0)),
                             read_path_csv(str(drive)))
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 1], direct.values[:, 0])
    assert np.array_equal(rows[:, 2], direct.local_time)


def test_skorokhod_oversized_step_exits_1(tmp_path, capsys):
    times = np.array([0.0, 1.0])
    values = np.array([[0.5], [-0.5]])  # jump of 1.0 > width/8 guard
    drive = tmp_path / "drive.csv"
    write_path_csv(str(drive), times, values)
    cfg = write_config(tmp_path, "cfg.json", base_config())
    assert main(["skorokhod", str(drive), cfg]) == 1
    assert "refine the time grid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# residual subcommand
# ---------------------------------------------------------------------------


def test_residual_subcommand_reflected_interval(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", base_config())
    out = tmp_path / "out"
    assert main(["residual", cfg, "--output-dir", str(out),
                 "--count", "3"]) == 0
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[0] == "config_id,f_id,residual,tolerance,pass"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[2])) <= 1e-5
        assert fields[4] == "1"


def test_residual_subcommand_tolerance_override(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", base_config())
    out = tmp_path / "out"
    assert main(["residual", cfg, "--output-dir", str(out),
                 "--count", "2", "--tolerance", "1e-30"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_residual_subcommand_zero_count_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", base_config())
    out = tmp_path / "out"
    assert main(["residual", cfg, "--output-dir", str(out),
                 "--count", "0"]) == 2
    assert "count must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--tolerance", "-1"),
                                         ("--tolerance", "nan")])
def test_residual_overrides_are_validated(tmp_path, capsys, flag, value):
    cfg = write_config(tmp_path, "cfg.json", base_config())
    out = tmp_path / "out"
    assert main(["residual", cfg, "--output-dir", str(out), flag, value]) == 2
    assert "residual %s" % flag[2:] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    ({"coefficients": {"preset": "exp_density", "gamma": [[1.0]]}},
     "constant rho only"),
    ({"dimension": 3,
      "domain": {"kind": "box", "lo": [0.0] * 3, "hi": [1.0] * 3},
      "coefficients": {"preset": "identity", "gamma": np.eye(3).tolist()},
      "residual": {"count": 1}},
     "implemented for d <= 2"),
    ({"domain": {"kind": "interval", "bounds": [0.0, float("inf")]},
      "sim": dict(base_config()["sim"], x0=[0.5])},
     "not normalizable on an unbounded domain"),
], ids=["varying_rho", "three_dimensions", "unbounded_domain"])
def test_residual_refuses_unsupported_configs_before_making_outputs(
    tmp_path, capsys, overrides, message
):
    path = write_config(tmp_path, "cfg.json", base_config(**overrides))
    out = tmp_path / "out"
    assert main(["residual", path, "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_residual_subcommand_honours_zero_tolerance(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", base_config())
    out = tmp_path / "out"
    assert main(["residual", cfg, "--output-dir", str(out),
                 "--count", "2", "--tolerance", "0"]) == 1
    printed = capsys.readouterr().out
    assert "tolerance=0.0e+00" in printed and "[FAIL]" in printed


# ---------------------------------------------------------------------------
# sweep subcommand
# ---------------------------------------------------------------------------


def test_sweep_subcommand_reports_and_masses(tmp_path, capsys):
    cfg = base_config()
    cfg["sim"].update(t_end=4.0, n_paths=48, seed=7, burn_in=1.0,
                      snap_every=20)
    path = write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert main(["sweep", path, "--output-dir", str(out),
                 "--n-list", "1,2,8"]) == 0
    with open(out / "report.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["name"] == "weak_convergence_sweep"
    assert row["threshold"] == "1" and row["standard_error"] == ""
    assert "run_ratios=" in row["detail"] and "law_w1=" in row["detail"]
    rows = np.loadtxt(out / "masses.csv", delimiter=",", skiprows=1)
    assert list(rows[:, 0]) == [1.0, 2.0, 8.0]
    assert np.all(np.diff(rows[:, 1]) > 0)  # smoothed mass grows with n
    printed = capsys.readouterr().out
    # one exact W1(pi_n, pi_inf) per wall, then the runs' distances
    laws = re.findall(r"n=(\d+) +w1_to_reflected_law=(\S+)", printed)
    assert [int(n) for n, _ in laws] == [1, 2, 8]
    np.testing.assert_allclose([float(v) for _, v in laws],
                               [0.2236, 0.1790, 0.0862], atol=5e-4)
    assert row["detail"] in printed and "noise floor" not in printed


@pytest.mark.parametrize("overrides, message", [
    ({"domain": {"kind": "interval", "bounds": [0.0, float("inf")]},
      "sim": dict(base_config()["sim"], x0=[0.5])},
     "not normalizable on an unbounded domain"),
    ({"dimension": 3,
      "domain": {"kind": "box", "lo": [0.0] * 3, "hi": [1.0] * 3},
      "coefficients": {"preset": "identity", "gamma": np.eye(3).tolist()}},
     "sweep requires dimension 1 or 2"),
], ids=["unbounded_domain", "three_dimensions"])
def test_sweep_refuses_domains_without_marginal_laws_before_simulating(
    tmp_path, capsys, monkeypatch, overrides, message
):
    path = write_config(tmp_path, "cfg.json", base_config(**overrides))
    monkeypatch.setattr(cli, "weak_convergence_sweep",
                        lambda *a, **k: pytest.fail("simulated"))
    out = tmp_path / "out"
    assert main(["sweep", path, "--output-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_checks_the_gradient_start_before_simulating(
    tmp_path, capsys, monkeypatch
):
    # x0 = 0.001 is inside the domain, so the reflected sim block loads, but
    # it sits in every wall's resolvable layer
    cfg = base_config()
    cfg["sim"]["x0"] = [0.001]
    path = write_config(tmp_path, "cfg.json", cfg)
    monkeypatch.setattr(cli, "weak_convergence_sweep",
                        lambda *a, **k: pytest.fail("simulated"))
    out = tmp_path / "out"
    assert main(["sweep", path, "--output-dir", str(out)]) == 2
    assert "x0 sits inside the resolvable wall layer" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_bad_n_list(tmp_path, capsys):
    path = write_config(tmp_path, "cfg.json", base_config())
    out = tmp_path / "o"
    for n_list, message in (("4,2", "increasing"), ("4,x", "integers"),
                            ("3", "at least two"), ("0,2", "positive")):
        assert main(["sweep", path, "--output-dir", str(out),
                     "--n-list", n_list]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# histogram subcommand
# ---------------------------------------------------------------------------


@pytest.fixture()
def run_outputs(tmp_path):
    path = write_config(tmp_path, "cfg.json", base_config())
    out = tmp_path / "run"
    assert main(["run", path, "--output-dir", str(out),
                 "--no-histograms"]) == 0
    return path, out


def test_histogram_subcommand(tmp_path, run_outputs, capsys):
    cfg_path, run_dir = run_outputs
    out = tmp_path / "hist"
    assert main(["histogram", str(run_dir / "trajectory.csv"),
                 "--config", cfg_path, "--bins", "12",
                 "--output-dir", str(out)]) == 0
    counts = np.loadtxt(out / "hist_x1.csv", delimiter=",", skiprows=1)
    assert counts.shape == (12, 3)
    ET.parse(out / "hist_x1.svg")


def test_histogram_rejects_single_bin(tmp_path, run_outputs, capsys):
    _, run_dir = run_outputs
    assert main(["histogram", str(run_dir / "trajectory.csv"),
                 "--bins", "1", "--output-dir", str(tmp_path / "h")]) == 2
    assert "bins" in capsys.readouterr().err


def test_histogram_rejects_malformed_trajectory(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("path_id,t,x1,k1,ell\n")
    assert main(["histogram", str(bad),
                 "--output-dir", str(tmp_path / "h")]) == 1


def test_histogram_leaves_out_flagged_paths_like_run(tmp_path):
    # a flagged path's snapshots after its flag are NaN in trajectory.csv
    cfg = SimConfig(family="reflected", dt_base=0.001, t_end=1.0, n_paths=6,
                    seed=2, snap_every=50)
    domain = Interval(0.0, 1.0)
    cs = make_coefficients("identity", domain, gamma=[[1.0]])
    batch = run_ensemble(cs, cfg, domain=domain)
    batch.flags[2] = FLAG_REFLECT_FAILURE
    for array in (batch.x, batch.k, batch.ell):
        array[2, 7:] = np.nan
    from_run, from_file = tmp_path / "run", tmp_path / "file"
    from_run.mkdir()
    files = emit_histograms(batch.x[batch.ok], batch.k[batch.ok], 15,
                            str(from_run))
    batch.to_csv(str(tmp_path / "trajectory.csv"))
    assert main(["histogram", str(tmp_path / "trajectory.csv"), "--bins", "15",
                 "--output-dir", str(from_file)]) == 0
    csvs = [name for name in files if name.endswith(".csv")]
    assert csvs == ["hist_x1.csv", "hist_k1.csv"]
    for name in csvs:
        assert (from_file / name).read_bytes() == (from_run / name).read_bytes()


def test_emit_histograms_rejects_unusable_batch(tmp_path):
    empty = np.zeros((0, 1, 1))  # every path flagged: nothing usable
    with pytest.raises(ValueError, match="usable"):
        emit_histograms(empty, empty, 10, str(tmp_path))
