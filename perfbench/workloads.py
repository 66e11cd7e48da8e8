"""The benchmark's workloads: configs made from a seed, one timed job each,
the checks that give the job its verdict, and self-checks that show each
check can fail.

A job runs the package the way a user does: ``inertdrift.cli.main`` for the
``run`` and ``residual`` subcommands, and the library calls for the weighted
family, whose weights ``inertdrift run`` does not write out.
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import time

import numpy as np

from inertdrift import cli, simulate, stationary
from inertdrift.analysis import angular_uniformity, independence_test, k_moment_tests, ks_uniformity
from inertdrift.coefficients import make_coefficients

BACKEND = "numpy"  # explicit: the default backend would flip to numba if it were installed


def derived_seed(name, seed):
    """A 32-bit simulation seed for ``name`` made from the workload seed."""
    digest = hashlib.sha256(("%s:%d" % (name, seed)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def digests(batch):
    """sha256 of each snapshot array, to compare trajectories across commits."""
    arrays = {"x": batch.x, "k": batch.k, "ell": batch.ell}
    if batch.log_weights is not None:
        arrays["log_weights"] = batch.log_weights
    return {
        name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for name, a in arrays.items()
    }


def count_lines(path):
    n = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            n += block.count(b"\n")
    return n


@dataclasses.dataclass
class Job:
    """One timed job: its wall time, its checks and what it produced."""

    wall_s: float
    checks: list  # (name, passed)
    problems: list  # output defects, each a message
    paths: int = 0
    flagged: int = 0
    ensemble_s: float = None
    path_steps: int = 0
    ess: float = None
    batch: object = None
    extra: dict = dataclasses.field(default_factory=dict)


class Capture:
    """Wraps ``run_ensemble`` to keep the batch and the time spent in it."""

    def __init__(self, fn):
        self.fn = fn
        self.batch = None
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        start = time.perf_counter()
        self.batch = self.fn(*args, **kwargs)
        self.seconds += time.perf_counter() - start
        return self.batch

    def take(self):
        batch, seconds = self.batch, self.seconds
        self.batch, self.seconds = None, 0.0
        return batch, seconds


def _check_manifest(path, batch, problems):
    with open(path) as fh:
        manifest = json.load(fh)
    if manifest.get("backend") != BACKEND:
        problems.append("manifest backend is %r" % manifest.get("backend"))
    if manifest.get("n_snapshots") != batch.n_snapshots:
        problems.append("manifest n_snapshots disagrees with the batch")
    if sum(manifest.get("flag_counts", {}).values()) != int((~batch.ok).sum()):
        problems.append("manifest flag_counts disagree with the batch flags")


def _check_trajectory_csv(path, batch, problems):
    rows = count_lines(path) - 1
    if rows != batch.n_paths * batch.n_snapshots:
        problems.append("trajectory.csv has %d rows, expected %d"
                        % (rows, batch.n_paths * batch.n_snapshots))
    return rows


class Workload:
    """A workload whose job is one ``inertdrift run`` of its config."""

    name = ""
    simulates = True

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.raw = self.config(seed)
        self.config_path = os.path.join(work_dir, "%s.json" % self.name)
        with open(self.config_path, "w") as fh:
            json.dump(self.raw, fh, indent=2)
        self.parsed = cli.load_run_config(self.config_path)
        self.capture = Capture(cli.run_ensemble)

    def install(self):
        """Route the package's ``run_ensemble`` calls through the capture."""
        cli.run_ensemble = simulate.run_ensemble = self.capture

    def uninstall(self):
        cli.run_ensemble = simulate.run_ensemble = self.capture.fn

    def prepare(self):
        """Untimed work done once per invocation."""

    def self_checks(self, job):
        """(name, statistic, threshold) triples computed on known-bad input;
        each must FAIL, that is statistic > threshold."""
        return []

    def job(self, out_dir, tracer=None):
        sim = self.parsed.sim
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["run", self.config_path, "--output-dir", out_dir,
                           "--backend", BACKEND, "--strict"])
        batch, ensemble_s = self.capture.take()
        problems = []
        with open(os.path.join(out_dir, "report.csv"), newline="") as fh:
            reports = list(csv.DictReader(fh))
        checks = [(r["name"], r["passed"] == "1" and r["inconclusive"] == "0")
                  for r in reports]
        if len(checks) != len(self.parsed.tests):
            problems.append("report.csv has %d rows for %d tests"
                            % (len(checks), len(self.parsed.tests)))
        if (rc == 0) != all(ok for _, ok in checks):
            problems.append("exit status %d disagrees with report.csv" % rc)
        _check_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), batch, problems)
        _check_manifest(os.path.join(out_dir, "manifest.json"), batch, problems)
        n_hist = 2 * 2 * batch.dim  # csv + svg, for x and k, per coordinate
        if len([f for f in os.listdir(out_dir) if f.startswith("hist_")]) != n_hist:
            problems.append("expected %d histogram files" % n_hist)
        wall = time.perf_counter() - start
        ks = [float(r["sample_size"]) for r in reports if r["name"] == "ks_uniformity"]
        return Job(
            wall_s=wall, checks=checks, problems=problems,
            paths=batch.n_paths, flagged=int((~batch.ok).sum()),
            ensemble_s=ensemble_s, path_steps=sim.n_paths * sim.n_steps,
            ess=ks[0] if ks else None, batch=batch,
        )


class DiscNarrow(Workload):
    """Reflected family on the unit disc at P=128: per-step overhead."""

    name = "disc_narrow"

    def config(self, seed):
        return {
            "dimension": 2,
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "coefficients": {"preset": "identity", "gamma": [[2.0, 0.0], [0.0, 1.0]]},
            "sim": {"family": "reflected", "dt_base": 5e-4, "t_end": 8.0,
                    "n_paths": 128, "seed": derived_seed(self.name, seed),
                    "burn_in": 3.0, "snap_every": 40},
            "tests": ["ks", "moments", "independence", "angular"],
            "histogram": {"bins": 40},
        }

    def self_checks(self, job):
        batch, cfg = job.batch, self.parsed
        swapped = make_coefficients("identity", cfg.domain, gamma=np.diag([1.0, 2.0]))
        moments = k_moment_tests(batch, stationary.StationaryMeasure(swapped))
        coupled = dataclasses.replace(batch, k=batch.x.copy())
        indep = independence_test(coupled)
        folded = batch.x.copy()
        folded[:, :, 1] = np.abs(folded[:, :, 1])
        angular = angular_uniformity(dataclasses.replace(batch, x=folded))
        return [
            ("k_moments vs Gamma=diag(1,2)", moments.statistic, moments.threshold),
            ("independence with K := X", indep.statistic, indep.threshold),
            ("angular with X folded to y >= 0", angular.statistic, angular.threshold),
        ]


class GradientWall(Workload):
    """Gradient family with the n=2 smooth wall: the gradient kernel."""

    name = "gradient_wall"

    def config(self, seed):
        return {
            "dimension": 1,
            "domain": {"kind": "interval", "bounds": [0.0, 1.0]},
            "coefficients": {"preset": "identity", "gamma": [[1.0]]},
            "potential": {"kind": "regularized_vn", "n": 2},
            "sim": {"family": "gradient", "dt_base": 5e-4, "t_end": 8.0,
                    "n_paths": 128, "seed": derived_seed(self.name, seed),
                    "burn_in": 3.0, "snap_every": 20},
            "tests": ["ks", "moments", "independence"],
            "histogram": {"bins": 40},
        }

    def self_checks(self, job):
        no_wall = stationary.StationaryMeasure(self.parsed.cs)
        ks = ks_uniformity(job.batch, no_wall)
        return [("ks vs the wall-free uniform law", ks.statistic, ks.threshold)]


def _weighted_z(w_values, direct_values):
    """z-score of a weighted mean against a direct-simulation mean."""
    n, m = len(w_values), len(direct_values)
    se = math.hypot(np.std(w_values, ddof=1) / math.sqrt(n),
                    np.std(direct_values, ddof=1) / math.sqrt(m))
    return abs(float(np.mean(w_values)) - float(np.mean(direct_values))) / se


def _functionals(batch):
    x, k = batch.x[:, -1, 0], batch.k[:, -1, 0]
    return {"E[X_T^2]": x * x, "E[K_T^2]": k * k, "E[X_T K_T]": x * k}


class WeightedWide(Workload):
    """driftless_weighted family at P=4096, about 1e6 CSV rows.

    ``inertdrift run`` drops log_weights, so this workload drives the library
    calls (run_ensemble, to_csv, write_manifest) directly.
    """

    name = "weighted_wide"

    def config(self, seed):
        return {
            "dimension": 1,
            "domain": {"kind": "interval", "bounds": [0.0, 1.0]},
            "coefficients": {"preset": "identity", "gamma": [[1.0]]},
            "sim": {"family": "driftless_weighted", "dt_base": 1e-4, "t_end": 0.5,
                    "n_paths": 4096, "seed": derived_seed(self.name, seed),
                    "burn_in": 0.0, "snap_every": 20, "x0": [0.5]},
        }

    def prepare(self):
        cfg = self.parsed
        direct = dataclasses.replace(
            cfg.sim, family="reflected",
            seed=derived_seed(self.name + "-reference", self.seed))
        batch = simulate.run_ensemble(cfg.cs, direct, domain=cfg.domain, backend=BACKEND)
        self.capture.take()
        self.reference = _functionals(batch)

    def functional_z(self, batch, weights):
        """z-scores of the weighted functionals against the direct run."""
        return [(label, _weighted_z(weights * values, self.reference[label]))
                for label, values in _functionals(batch).items()]

    def checks(self, batch, weights):
        se = weights.std(ddof=1) / math.sqrt(len(weights))
        mean_z = abs(float(weights.mean()) - 1.0) / se
        return [("mean weight = 1", mean_z)] + self.functional_z(batch, weights)

    def job(self, out_dir, tracer=None):
        cfg = self.parsed
        start = time.perf_counter()
        batch = simulate.run_ensemble(cfg.cs, cfg.sim, domain=cfg.domain, backend=BACKEND)
        _, ensemble_s = self.capture.take()
        csv_path = os.path.join(out_dir, "trajectory.csv")
        manifest_path = os.path.join(out_dir, "manifest.json")
        batch.to_csv(csv_path)
        batch.write_manifest(manifest_path)
        weights = batch.weights
        if tracer is not None:
            zs = tracer.call("analysis.weighted_checks", self.checks, batch, weights)
        else:
            zs = self.checks(batch, weights)
        checks = [(label, bool(z <= 3.0)) for label, z in zs]
        problems = []
        _check_trajectory_csv(csv_path, batch, problems)
        _check_manifest(manifest_path, batch, problems)
        if not np.all(np.isfinite(weights)):
            problems.append("weights are not finite")
        wall = time.perf_counter() - start
        kish = float(weights.sum() ** 2 / (weights ** 2).sum())
        return Job(
            wall_s=wall, checks=checks, problems=problems,
            paths=batch.n_paths, flagged=int((~batch.ok).sum()),
            ensemble_s=ensemble_s, path_steps=cfg.sim.n_paths * cfg.sim.n_steps,
            ess=kish, batch=batch,
        )

    def self_checks(self, job):
        unweighted = self.functional_z(job.batch, np.ones(job.batch.n_paths))
        label, z = max(unweighted, key=lambda item: item[1])
        return [("weighted identity with the weights dropped (worst: %s)" % label, z, 3.0)]


class ResidualDisc(Workload):
    """``inertdrift residual`` on the disc with the n=2 wall; no simulation."""

    name = "residual_disc"
    simulates = False

    def config(self, seed):
        return {
            "dimension": 2,
            "domain": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
            "coefficients": {"preset": "identity", "gamma": [[2.0, 0.0], [0.0, 1.0]]},
            "potential": {"kind": "regularized_vn", "n": 2},
            "residual": {"count": 5, "seed": derived_seed(self.name, seed) % 10_000},
        }

    def job(self, out_dir, tracer=None):
        cfg = self.parsed
        tol = cfg.residual["tolerance"]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["residual", self.config_path, "--output-dir", out_dir])
        with open(os.path.join(out_dir, "residuals.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        residuals = [float(row[2]) for row in rows[1:]]
        checks = [("f%d" % i, abs(r) <= tol) for i, r in enumerate(residuals)]
        problems = []
        if len(residuals) != cfg.residual["count"]:
            problems.append("residuals.csv has %d rows" % len(residuals))
        if (rc == 0) != all(ok for _, ok in checks):
            problems.append("exit status %d disagrees with residuals.csv" % rc)
        # Control: the perturbed law must miss the identity by over 10x tol.
        bad = stationary.StationaryMeasure(cfg.cs, potential=cfg.potential, v_scale=1.1)
        f0 = stationary.bump_basis(cfg.domain, cfg.cs.gamma,
                                   count=1, seed=cfg.residual["seed"])[0]
        control = abs(stationary.stationarity_residual(bad, f0))
        checks.append(("control v_scale=1.1 > 10 tol", control > 10.0 * tol))
        wall = time.perf_counter() - start
        return Job(wall_s=wall, checks=checks, problems=problems,
                   extra={"control": control, "tolerance": tol})

    def self_checks(self, job):
        return [("residual check on v_scale=1.1", job.extra["control"],
                 job.extra["tolerance"])]


WORKLOADS = {w.name: w for w in (DiscNarrow, GradientWall, WeightedWide, ResidualDisc)}
