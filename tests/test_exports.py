"""Every name a module lists in ``__all__`` resolves on that module, the
public parameters with a default are the pinned list, and no subcommand,
``sweep`` included, loads scipy or the networking half of the standard
library."""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import inertdrift

MODULES = [
    "inertdrift",
    "inertdrift.geometry",
    "inertdrift.coefficients",
    "inertdrift.skorokhod",
    "inertdrift.stationary",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


# Every parameter with a default of a public function, or of a public or
# __init__ method of a public class (dataclasses included), defined in one
# of these modules.  Adding a setting means adding it here.
SETTING_MODULES = ["analysis", "coefficients", "geometry", "simulate",
                   "skorokhod", "stationary", "cli"]
SETTINGS = {
    "analysis.TestReport.__init__(detail)",
    "analysis.TestReport.__init__(inconclusive)",
    "analysis.TestReport.__init__(series)",
    "analysis.TestReport.__init__(standard_error)",
    "analysis.angular_uniformity(center)",
    "analysis.ks_uniformity(coordinate)",
    "analysis.write_histogram_csv(bins)",
    "cli.RunConfig.__init__(cs)",
    "cli.RunConfig.__init__(histogram_bins)",
    "cli.RunConfig.__init__(output_dir)",
    "cli.RunConfig.__init__(potential)",
    "cli.RunConfig.__init__(raw)",
    "cli.RunConfig.__init__(residual)",
    "cli.RunConfig.__init__(sim)",
    "cli.RunConfig.__init__(sweep)",
    "cli.RunConfig.__init__(tests)",
    "cli.emit_histograms(sm)",
    "cli.main(argv)",
    "coefficients.CoefficientSet.__init__(a0)",
    "coefficients.CoefficientSet.__init__(drift_const)",
    "coefficients.CoefficientSet.__init__(inert_field)",
    "coefficients.CoefficientSet.__init__(name)",
    "coefficients.CoefficientSet.__init__(rho)",
    "coefficients.CoefficientSet.__init__(sigma)",
    "coefficients.make_coefficients(a_diag)",
    "simulate.SimConfig.__init__(burn_in)",
    "simulate.SimConfig.__init__(chunk_size)",
    "simulate.SimConfig.__init__(k0)",
    "simulate.SimConfig.__init__(snap_every)",
    "simulate.SimConfig.__init__(x0)",
    "simulate.run_ensemble(backend)",
    "simulate.run_ensemble(domain)",
    "simulate.run_ensemble(potential)",
    "stationary.StationaryMeasure.__init__(potential)",
    "stationary.StationaryMeasure.__init__(v_scale)",
    "stationary.bump_basis(count)",
    "stationary.bump_basis(seed)",
    "stationary.marginal_cdf_grid(axis)",
    "stationary.sample_stationary(seed)",
}


def _defaults(label, fn):
    return {"%s(%s)" % (label, p.name)
            for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty}


def test_public_parameters_with_a_default_are_pinned():
    found = set()
    for short in SETTING_MODULES:
        module = importlib.import_module("inertdrift." + short)
        for name, obj in vars(module).items():
            own = getattr(obj, "__module__", None) == module.__name__
            if name.startswith("_") or not own:
                continue
            if inspect.isfunction(obj):
                found |= _defaults("%s.%s" % (short, name), obj)
            elif inspect.isclass(obj):
                for attr, meth in vars(obj).items():
                    if attr.startswith("_") and attr != "__init__":
                        continue
                    meth = getattr(meth, "__func__", meth)  # static, class
                    if inspect.isfunction(meth):
                        found |= _defaults("%s.%s.%s" % (short, name, attr), meth)
    assert found == SETTINGS
    assert len(SETTINGS) == 39


GUARD = r"""
import json, os, sys

import inertdrift
from inertdrift import cli

work = sys.argv[1]
config = {
    "dimension": 1,
    "domain": {"kind": "interval", "bounds": [0.0, 1.0]},
    "coefficients": {"preset": "identity", "gamma": [[1.0]]},
    "sim": {"family": "reflected", "dt_base": 0.001, "t_end": 1.0,
            "n_paths": 8, "seed": 3, "burn_in": 0.25, "snap_every": 20},
    "tests": ["ks", "moments", "independence"],
    "histogram": {"bins": 12},
    "residual": {"count": 2, "seed": 1},
    "sweep": {"n_list": [1, 2]},
}
path = os.path.join(work, "cfg.json")
with open(path, "w") as fh:
    json.dump(config, fh)
with open(os.path.join(work, "drive.csv"), "w") as fh:
    fh.write("t,x1\n0,0.9\n0.1,0.98\n0.2,1.06\n0.3,0.99\n")
codes = [
    cli.main(["run", path, "--output-dir", os.path.join(work, "run")]),
    cli.main(["residual", path, "--output-dir", os.path.join(work, "res")]),
    cli.main(["histogram", os.path.join(work, "run", "trajectory.csv"),
              "--config", path, "--output-dir", os.path.join(work, "hist")]),
    cli.main(["skorokhod", os.path.join(work, "drive.csv"), path,
              "--out", os.path.join(work, "constrained.csv")]),
    cli.main(["sweep", path, "--output-dir", os.path.join(work, "sweep")]),
]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(inertdrift.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", GUARD, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # a sweep of 8 paths may fail its own check; it must still finish
    assert result["codes"][:4] == [0, 0, 0, 0] and result["codes"][4] in (0, 1)
    for name in ("trajectory.csv", "report.csv", "hist_x1.svg"):
        assert (tmp_path / "run" / name).exists()
    assert (tmp_path / "sweep" / "report.csv").exists()
    loaded = [m for m in result["modules"]
              if m.split(".")[0] in ("scipy", "xml") or m == "urllib.request"]
    assert loaded == []
