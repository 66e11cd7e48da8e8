"""Every name a module lists in ``__all__`` resolves on that module, and
no subcommand, ``sweep`` included, loads scipy or the networking half of
the standard library."""

import importlib
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
