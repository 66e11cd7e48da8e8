"""Batch front end: configured runs, path solves, residual checks,
sweeps, and histogram emission.

Run configurations are JSON with an explicit ``dimension`` field; no
shape inference is done, and every validation error names the offending
field path.  Blocks::

    {
      "dimension": 1,
      "domain": {"kind": "interval", "bounds": [0.0, 1.0]},
      "coefficients": {"preset": "identity", "gamma": [[1.0]]},
      "potential": {"kind": "regularized_vn", "n": 2},      # optional
      "sim": {"family": "reflected", "dt_base": 1e-4, ...},
      "tests": ["ks", "moments", "independence"],           # optional
      "histogram": {"bins": 40},                            # optional
      "residual": {"count": 6, "seed": 0, "tolerance": null},
      "sweep": {"n_list": [1, 2, 4, 8], "margin": null},
      "output_dir": "runs/interval"                         # optional
    }

Subcommands: ``run`` (simulate + test battery + histograms),
``skorokhod`` (constrain a sampled path file), ``residual`` (generator
quadrature identity only), ``sweep`` (smooth-wall weak-convergence
experiment), ``histogram`` (re-bin an existing trajectory CSV).

Outputs are deterministic: a config with a fixed seed reproduces every
byte of the manifest, CSVs, and SVGs.  The default output root is the
``INERTDRIFT_OUTPUT_ROOT`` environment variable (falling back to the
working directory); statistical tests that come back inconclusive do
not fail the exit status unless ``--strict`` is given.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from ._svg import histogram_svg
from .analysis import (
    angular_uniformity,
    independence_test,
    k_moment_tests,
    ks_uniformity,
    marginal_pdf,
    read_trajectory_csv,
    weak_convergence_sweep,
    write_histogram_csv,
    write_report_csv,
)
from .coefficients import CoefficientError, Potential, make_coefficients
from .geometry import GeometryError, SmoothDistance, make_domain
from .simulate import SimConfig, TrajectoryBatch, _as_int, run_ensemble
from .skorokhod import SkorokhodError, read_path_csv, solve_skorokhod
from .stationary import (
    StationaryMeasure,
    bump_basis,
    stationarity_residual,
    write_residual_report,
)

TEST_NAMES = ("ks", "moments", "independence", "angular")
DOMAIN_PARAMS = {
    "interval": ("bounds",),
    "ball": ("center", "radius"),
    "box": ("lo", "hi"),
    "ellipsoid": ("center", "radii"),
}
_SIM_FIELDS = {f.name for f in dataclasses.fields(SimConfig)}


class ConfigError(ValueError):
    """Invalid run configuration; the message names the field path."""


@dataclasses.dataclass
class RunConfig:
    """Parsed and validated run configuration."""

    dimension: int
    domain: object
    cs: object = None
    potential: object = None
    sim: SimConfig = None
    tests: tuple = ()
    output_dir: str = None
    histogram_bins: int = 40
    residual: dict = dataclasses.field(default_factory=dict)
    sweep: dict = dataclasses.field(default_factory=dict)
    raw: dict = dataclasses.field(default_factory=dict)


def _require(block, key, path, types, type_name):
    if key not in block:
        raise ConfigError("%s.%s is required" % (path, key))
    value = block[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError("%s.%s must be %s" % (path, key, type_name))
    return value


def _check_fields(block, path, known):
    """ConfigError naming the first key of ``block`` outside ``known``."""
    extra = sorted(set(block) - set(known))
    if extra:
        raise ConfigError("%s.%s is not a recognized field" % (path, extra[0]))


def _int_field(value, path, low):
    try:
        return _as_int(value, path, low)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _number_field(value, path):
    """Check that ``value`` is None or a non-negative finite number."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if value is not None and not (number and 0.0 <= value < np.inf):
        raise ConfigError("%s must be a non-negative number or null, got %r"
                          % (path, value))


def _n_list_field(n_list, path):
    """Check that ``n_list`` lists at least two increasing positive integers."""
    if not isinstance(n_list, list) or len(n_list) < 2:
        raise ConfigError("%s must list at least two wall indices" % path)
    n_list = [_int_field(n, "%s entry" % path, 1) for n in n_list]
    if any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ConfigError("%s must be increasing, got %r" % (path, n_list))
    return n_list


def _parse_gamma(block, dim):
    gamma = _require(block, "gamma", "coefficients", list, "a matrix (list of rows)")
    try:
        g = np.asarray(gamma, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("coefficients.gamma must be numeric") from None
    if g.shape != (dim, dim):
        raise ConfigError(
            "coefficients.gamma must be %dx%d for dimension %d" % (dim, dim, dim)
        )
    if not np.allclose(g, g.T, atol=1e-12):
        raise ConfigError("coefficients.gamma must be symmetric")
    if np.any(np.linalg.eigvalsh(g) <= 0.0):
        raise ConfigError("coefficients.gamma must be positive definite")
    return g


def _parse_domain(data, dim):
    block = _require(data, "domain", "config", dict, "a block")
    kind = _require(block, "kind", "domain", str, "a string")
    if kind not in DOMAIN_PARAMS:
        raise ConfigError(
            "domain.kind must be one of %s" % (sorted(DOMAIN_PARAMS),)
        )
    params = {}
    for key in DOMAIN_PARAMS[kind]:
        params[key] = _require(block, key, "domain", (int, float, list),
                               "a number or list")
    _check_fields(block, "domain", {"kind", *DOMAIN_PARAMS[kind]})
    try:
        domain = make_domain(kind, **params)
    except (GeometryError, TypeError, ValueError) as exc:
        raise ConfigError("domain: %s" % exc) from None
    if domain.d != dim:
        raise ConfigError(
            "domain has dimension %d but config declares dimension %d"
            % (domain.d, dim)
        )
    return domain


def _parse_coefficients(data, domain, dim):
    if "coefficients" not in data:
        return None
    block = _require(data, "coefficients", "config", dict, "a block")
    preset = _require(block, "preset", "coefficients", str, "a string")
    gamma = _parse_gamma(block, dim)
    kwargs = {}
    if "a_diag" in block:
        kwargs["a_diag"] = _require(block, "a_diag", "coefficients", list,
                                    "a list of numbers")
    field = block.get("inert_field", "gamma_normal")
    if isinstance(field, dict):
        path = "coefficients.inert_field"
        _check_fields(field, path, {"kind", "a0"})
        kwargs["inert_field"] = _require(field, "kind", path, str, "a string")
        if "a0" in field:
            kwargs["a0"] = _require(field, "a0", path, (int, float), "a number")
    elif isinstance(field, str):
        kwargs["inert_field"] = field
    else:
        raise ConfigError("coefficients.inert_field must be a string or block")
    _check_fields(block, "coefficients", {"preset", "gamma", "a_diag", "inert_field"})
    try:
        return make_coefficients(preset, domain, gamma, **kwargs)
    except CoefficientError as exc:
        raise ConfigError("coefficients: %s" % exc) from None


def _parse_potential(data, domain):
    if data.get("potential") is None:
        return None
    block = _require(data, "potential", "config", dict, "a block")
    kind = _require(block, "kind", "potential", str, "a string")
    if kind != "regularized_vn":
        raise ConfigError("potential.kind must be 'regularized_vn'")
    n = _require(block, "n", "potential", (int, float), "a positive integer")
    n = _int_field(n, "potential.n", 1)
    _check_fields(block, "potential", {"kind", "n"})
    return Potential("regularized_vn", distance=SmoothDistance(domain), n=n)


def _parse_sim(data, dim):
    if "sim" not in data:
        return None
    block = _require(data, "sim", "config", dict, "a block")
    _check_fields(block, "sim", _SIM_FIELDS)
    try:
        sim = SimConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError("sim: %s" % exc) from None
    for key in ("x0", "k0"):
        value = getattr(sim, key)
        if value is not None and len(value) != dim:
            raise ConfigError(
                "sim.%s must have %d entries for dimension %d" % (key, dim, dim)
            )
    return sim


def load_run_config(source):
    """Parse and validate a run configuration (path or dict)."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc) from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _check_fields(data, "config", {
        "dimension", "domain", "coefficients", "potential", "sim",
        "tests", "histogram", "residual", "sweep", "output_dir",
    })

    dim = _require(data, "dimension", "config", int, "an integer")
    if dim < 1:
        raise ConfigError("config.dimension must be a positive integer")
    domain = _parse_domain(data, dim)
    cs = _parse_coefficients(data, domain, dim)
    potential = _parse_potential(data, domain)
    sim = _parse_sim(data, dim)

    if sim is not None:
        if sim.family == "gradient" and potential is None:
            raise ConfigError("sim.family 'gradient' requires a potential block")
        if sim.family != "gradient" and potential is not None:
            raise ConfigError(
                "potential block requires sim.family 'gradient', got %r"
                % sim.family
            )

    tests = data.get("tests", [])
    if not isinstance(tests, list) or any(not isinstance(t, str) for t in tests):
        raise ConfigError("config.tests must be a list of test names")
    for t in tests:
        if t not in TEST_NAMES:
            raise ConfigError(
                "tests: %r is not one of %s" % (t, sorted(TEST_NAMES))
            )
    if "angular" in tests and dim != 2:
        raise ConfigError("tests: 'angular' requires dimension 2")
    if tests and sim is not None and sim.family == "driftless_weighted":
        raise ConfigError(
            "tests cannot run on the weighted 'driftless_weighted' family; "
            "compare weighted expectations directly"
        )

    bins = 40
    if "histogram" in data:
        block = _require(data, "histogram", "config", dict, "a block")
        bins = _require(block, "bins", "histogram", int, "an integer")
        if bins < 2:
            raise ConfigError("histogram.bins must be at least 2")

    residual = {"count": 6, "seed": 0, "tolerance": None}
    if "residual" in data:
        block = _require(data, "residual", "config", dict, "a block")
        _check_fields(block, "residual", residual)
        residual.update(block)
    residual["count"] = _int_field(residual["count"], "residual.count", 1)
    residual["seed"] = _int_field(residual["seed"], "residual.seed", 0)
    _number_field(residual["tolerance"], "residual.tolerance")
    if residual["tolerance"] is None:
        residual["tolerance"] = 1e-5 if dim == 1 else 1e-4

    sweep = {"n_list": [1, 2, 4, 8], "margin": None}
    if "sweep" in data:
        block = _require(data, "sweep", "config", dict, "a block")
        _check_fields(block, "sweep", sweep)
        sweep.update(block)
    sweep["n_list"] = _n_list_field(sweep["n_list"], "sweep.n_list")
    _number_field(sweep["margin"], "sweep.margin")

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("config.output_dir must be a string")

    return RunConfig(
        dimension=dim,
        domain=domain,
        cs=cs,
        potential=potential,
        sim=sim,
        tests=tuple(tests),
        output_dir=output_dir,
        histogram_bins=bins,
        residual=residual,
        sweep=sweep,
        raw=data,
    )


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def _config_id(path):
    return os.path.splitext(os.path.basename(str(path)))[0]


def _resolve_out_dir(arg_dir, cfg_dir, command, config_id):
    if arg_dir:
        return arg_dir
    if cfg_dir:
        return cfg_dir
    root = os.environ.get("INERTDRIFT_OUTPUT_ROOT", ".")
    return os.path.join(root, "%s-%s" % (command, config_id))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_histograms(batch, bins, out_dir, sm=None):
    """Per-coordinate histogram CSVs and SVGs for positions and inert drift.

    When a stationary measure is supplied (dimension <= 2), each figure
    overlays the analytic marginal density.  Returns the file names.
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    x = batch.x[batch.ok]
    k = batch.k[batch.ok]
    if x.size == 0:
        raise ValueError("batch has no usable snapshots")
    d = x.shape[2]
    files = []
    for label, values in (("x", x), ("k", k)):
        for i in range(d):
            vals = values[:, :, i].ravel()
            base = "hist_%s%d" % (label, i + 1)
            counts, edges = write_histogram_csv(
                os.path.join(out_dir, base + ".csv"), vals, bins=bins
            )
            overlay = None
            if sm is not None:
                grid = np.linspace(edges[0], edges[-1], 257)
                if label == "x" and d <= 2:
                    overlay = (grid, marginal_pdf(sm, i, grid))
                elif label == "k":
                    var = sm.y_cov[i, i]
                    dens = np.exp(-grid * grid / (2.0 * var)) / np.sqrt(
                        2.0 * np.pi * var
                    )
                    overlay = (grid, dens)
            histogram_svg(
                os.path.join(out_dir, base + ".svg"),
                edges,
                counts,
                overlay=overlay,
                title="%s%d marginal" % (label, i + 1),
                x_label="%s%d" % (label, i + 1),
            )
            files += [base + ".csv", base + ".svg"]
    return files


def _print_report(report, out=None):
    out = out if out is not None else sys.stdout
    if report.inconclusive:
        status = "INCONCLUSIVE"
    elif report.passed:
        status = "PASS"
    else:
        status = "FAIL"
    out.write(
        "%-24s statistic=%-12.6g threshold=%-12.6g [%s]\n"
        % (report.name, report.statistic, report.threshold, status)
    )


def _exit_status(reports, strict):
    for r in reports:
        if r.inconclusive:
            if strict:
                return 1
        elif not r.passed:
            return 1
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_run(args):
    cfg = load_run_config(args.config)
    if cfg.cs is None:
        raise ConfigError("config.coefficients is required by 'run'")
    if cfg.sim is None:
        raise ConfigError("config.sim is required by 'run'")
    config_id = _config_id(args.config)
    out_dir = _resolve_out_dir(args.output_dir, cfg.output_dir, "run", config_id)
    os.makedirs(out_dir, exist_ok=True)

    if args.dry_run:
        payload = {
            "command": "run",
            "config_id": config_id,
            "dry_run": True,
            "config": cfg.raw,
            "n_steps": cfg.sim.n_steps,
            "n_snapshots": cfg.sim.n_snapshots,
        }
        _write_json(os.path.join(out_dir, "manifest.json"), payload)
        print("dry run: wrote %s" % os.path.join(out_dir, "manifest.json"))
        return 0

    try:
        batch = run_ensemble(
            cfg.cs,
            cfg.sim,
            domain=cfg.domain,
            potential=cfg.potential,
            backend=args.backend,
        )
    except Exception as exc:  # partial outputs plus an error manifest
        _write_json(
            os.path.join(out_dir, "manifest.json"),
            {
                "command": "run",
                "config_id": config_id,
                "config": cfg.raw,
                "error": "%s: %s" % (type(exc).__name__, exc),
            },
        )
        print("run failed: %s" % exc, file=sys.stderr)
        return 1

    batch.to_csv(os.path.join(out_dir, "trajectory.csv"))
    if batch.log_weights is not None:
        batch.write_weights(os.path.join(out_dir, "weights.csv"))
    manifest = {"command": "run", "config_id": config_id, "config": cfg.raw}
    manifest.update(batch.manifest())
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)

    reports = []
    sm = None
    if cfg.tests or not args.no_histograms:
        sm = StationaryMeasure(cfg.cs, potential=cfg.potential)
    for name in cfg.tests:
        if name == "ks":
            reports.append(ks_uniformity(batch, sm))
        elif name == "moments":
            reports.append(k_moment_tests(batch, sm))
        elif name == "independence":
            reports.append(independence_test(batch))
        elif name == "angular":
            reports.append(angular_uniformity(batch, center=cfg.domain.centroid))
    if reports:
        write_report_csv(os.path.join(out_dir, "report.csv"), reports)
        for rep in reports:
            _print_report(rep)
    if not args.no_histograms:
        emit_histograms(batch, cfg.histogram_bins, out_dir, sm=sm)
    print("outputs in %s" % out_dir)
    return _exit_status(reports, args.strict)


def cmd_skorokhod(args):
    cfg = load_run_config(args.config)
    driving = read_path_csv(args.path)
    solved = solve_skorokhod(cfg.domain, driving)
    out = args.out or (os.path.splitext(args.path)[0] + "_constrained.csv")
    solved.to_csv(out)
    print(
        "constrained %d samples; final local time %.6g; wrote %s"
        % (len(solved.times), solved.local_time[-1], out)
    )
    return 0


def cmd_residual(args):
    cfg = load_run_config(args.config)
    if cfg.cs is None:
        raise ConfigError("config.coefficients is required by 'residual'")
    count = cfg.residual["count"] if args.count is None else args.count
    seed = cfg.residual["seed"] if args.seed is None else args.seed
    tol = cfg.residual["tolerance"] if args.tolerance is None else args.tolerance
    if count < 1:
        raise ConfigError("residual count must be at least 1, got %d" % count)
    seed = _int_field(seed, "residual seed", 0)
    _number_field(tol, "residual tolerance")
    config_id = _config_id(args.config)
    out_dir = _resolve_out_dir(args.output_dir, cfg.output_dir, "residual",
                               config_id)
    os.makedirs(out_dir, exist_ok=True)
    sm = StationaryMeasure(cfg.cs, potential=cfg.potential)
    fns = bump_basis(cfg.domain, cfg.cs.gamma, count=count, seed=seed)
    rows = []
    worst = 0.0
    for i, f in enumerate(fns):
        res = stationarity_residual(sm, f)
        rows.append((config_id, "f%d" % i, res, tol))
        worst = max(worst, abs(res))
        print("f%-3d residual=% .3e tolerance=%.1e [%s]"
              % (i, res, tol, "PASS" if abs(res) <= tol else "FAIL"))
    path = os.path.join(out_dir, "residuals.csv")
    write_residual_report(path, rows)
    print("wrote %s" % path)
    return 0 if worst <= tol else 1


def cmd_sweep(args):
    cfg = load_run_config(args.config)
    if cfg.cs is None:
        raise ConfigError("config.coefficients is required by 'sweep'")
    if cfg.sim is None:
        raise ConfigError("config.sim is required by 'sweep'")
    config_id = _config_id(args.config)
    out_dir = _resolve_out_dir(args.output_dir, cfg.output_dir, "sweep", config_id)
    if args.n_list:
        try:
            n_list = [int(v) for v in args.n_list.split(",")]
        except ValueError:
            raise ConfigError("sweep --n-list must be comma-separated integers, "
                              "got %r" % args.n_list) from None
        n_list = _n_list_field(n_list, "sweep --n-list")
    else:
        n_list = cfg.sweep["n_list"]
    margin = args.margin if args.margin is not None else cfg.sweep["margin"]
    _number_field(margin, "sweep margin")
    os.makedirs(out_dir, exist_ok=True)
    report = weak_convergence_sweep(
        cfg.domain, cfg.cs, n_list, cfg.sim, margin=margin
    )
    write_report_csv(os.path.join(out_dir, "report.csv"), [report])

    sd = SmoothDistance(cfg.domain)
    with open(os.path.join(out_dir, "masses.csv"), "w") as fh:
        fh.write("n,mass\n")
        for n in n_list:
            pot = Potential("regularized_vn", distance=sd, n=n)
            mass = 1.0 / StationaryMeasure(cfg.cs, potential=pot).c_x
            fh.write("%d,%.17g\n" % (n, mass))
    for n, dist in zip(n_list, report.series):
        print("n=%-4d wasserstein=%.6g" % (n, dist))
    print("noise floor %.6g" % report.standard_error)
    _print_report(report)
    print("outputs in %s" % out_dir)
    return _exit_status([report], args.strict)


def cmd_histogram(args):
    if args.bins < 2:
        raise ConfigError("--bins must be at least 2")
    times, x, k, ell = read_trajectory_csv(args.trajectory)
    sim = SimConfig(
        family="reflected",
        dt_base=float(times[-1]),
        t_end=float(times[-1]),
        n_paths=x.shape[0],
        seed=0,
    )
    # a flagged path's rows after its flag are NaN: leave such paths out,
    # as ``run`` leaves out the flagged paths of its batch
    finite = (np.isfinite(x).all(axis=(1, 2)) & np.isfinite(k).all(axis=(1, 2))
              & np.isfinite(ell).all(axis=1))
    x, k, ell = x[finite], k[finite], ell[finite]
    batch = TrajectoryBatch(
        times=times,
        x=x,
        k=k,
        ell=ell,
        flags=np.zeros(len(x), dtype=np.int64),
        log_weights=None,
        diagnostics={},
        config=sim,
        backend="file",
        run_info={},
    )
    sm = None
    if args.config:
        cfg = load_run_config(args.config)
        if cfg.cs is None:
            raise ConfigError(
                "config.coefficients is required for a density overlay"
            )
        if cfg.dimension != x.shape[2]:
            raise ConfigError(
                "config.dimension (%d) does not match the trajectory file (%d)"
                % (cfg.dimension, x.shape[2])
            )
        sm = StationaryMeasure(cfg.cs, potential=cfg.potential)
    out_dir = args.output_dir or _resolve_out_dir(
        None, None, "histogram", _config_id(args.trajectory)
    )
    os.makedirs(out_dir, exist_ok=True)
    files = emit_histograms(batch, args.bins, out_dir, sm=sm)
    print("wrote %d files in %s" % (len(files), out_dir))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="inertdrift",
        description="Simulate reflecting diffusions with inert drift and "
        "verify the product-form stationary law.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="simulate a configured ensemble and test it")
    p.add_argument("config")
    p.add_argument("--output-dir")
    p.add_argument("--backend", choices=("numpy",))
    p.add_argument("--dry-run", action="store_true",
                   help="write the manifest only; no simulation")
    p.add_argument("--strict", action="store_true",
                   help="inconclusive statistical tests fail the exit status")
    p.add_argument("--no-histograms", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("skorokhod", help="constrain a sampled path file")
    p.add_argument("path", help="driving path CSV (t,x1,...,xd)")
    p.add_argument("config", help="config declaring the domain")
    p.add_argument("--out", help="output CSV (default: <path>_constrained.csv)")
    p.set_defaults(func=cmd_skorokhod)

    p = sub.add_parser("residual", help="generator quadrature identity check")
    p.add_argument("config")
    p.add_argument("--output-dir")
    p.add_argument("--count", type=int, help="number of test functions")
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("sweep", help="smooth-wall weak-convergence experiment")
    p.add_argument("config")
    p.add_argument("--output-dir")
    p.add_argument("--n-list", help="comma-separated wall indices, e.g. 1,2,4,8")
    p.add_argument("--margin", type=float)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("histogram", help="histogram an existing trajectory CSV")
    p.add_argument("trajectory")
    p.add_argument("--config", help="config for the analytic density overlay")
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_histogram)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (SkorokhodError, CoefficientError, GeometryError, ValueError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
