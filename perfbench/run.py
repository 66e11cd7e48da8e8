"""Benchmark for the inertdrift package: one workload, one run.

Run from the root of a checkout (the package is imported from ``src``)::

    python3 perfbench/run.py --workload gradient_wall --seed 1 --seconds 45 --trace 0

The run
  * makes the workload's config from ``--seed``;
  * starts fresh interpreters that import the package and parse the config,
    and reports the median as ``setup_s``;
  * repeats the workload's job for ``--seconds`` seconds, checking each
    job's outputs and verdicts, and reports means over the jobs;
  * runs the self-checks, which must FAIL on known-bad input.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics.  With ``--trace 1`` untraced and traced jobs alternate, the last
line carries the per-layer metrics, and the spans are written to
``perfbench/_work/``.  Lines before it give the machine, the checks, and the
sha256 digests of the snapshot arrays.
"""

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(src, config_path, runs):
    """Median set-up time of fresh interpreters, plus its import/load parts."""
    totals, imports, loads = [], [], []
    for _ in range(runs):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), src, config_path],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        totals.append(probe["ready"] - start)
        imports.append(probe["import_s"])
        loads.append(probe["load_config_s"])
    return {
        "setup_s": statistics.median(totals),
        "setup.import_s": statistics.median(imports),
        "cli.load_config_s": statistics.median(loads),
        "samples": totals,
    }


def machine_block():
    import numpy
    import scipy

    from inertdrift import _kernels

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": bool(_kernels.HAVE_NUMBA),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def install_spans(tracer):
    """Spans at the boundary of every module a workload calls into."""
    from inertdrift import _kernels, cli, simulate, stationary

    for owner in (cli, simulate):
        tracer.wrap(owner, "run_ensemble", "simulate.run_ensemble")
    tracer.wrap(_kernels, "reflected_chunk", "kernels.chunk")
    tracer.wrap(_kernels, "gradient_chunk", "kernels.chunk")
    batch_cls = simulate.TrajectoryBatch
    tracer.wrap(batch_cls, "to_csv", "simulate.to_csv")
    tracer.wrap(batch_cls, "manifest", "simulate.manifest")
    tracer.wrap(batch_cls, "write_manifest", "simulate.manifest")
    tracer.wrap(cli, "_write_json", "simulate.manifest")  # `run` writes its manifest here
    for owner in (cli, stationary):
        tracer.wrap(owner, "StationaryMeasure", "stationary.measure")
        tracer.wrap(owner, "stationarity_residual", "stationary.residual")
    tracer.wrap(cli, "load_run_config", "cli.load_config")
    tracer.wrap(cli, "ks_uniformity", "analysis.ks")
    tracer.wrap(cli, "k_moment_tests", "analysis.moments")
    tracer.wrap(cli, "independence_test", "analysis.independence")
    tracer.wrap(cli, "angular_uniformity", "analysis.angular")
    tracer.wrap(cli, "emit_histograms", "cli.histograms")
    tracer.wrap(cli, "histogram_svg", "_svg.histogram_svg")

    def traced_distance(real):
        def make(*args, **kwargs):
            sd = real(*args, **kwargs)
            tracer.wrap(sd, "_value", "geometry.smooth_distance")
            tracer.wrap(sd, "_grad", "geometry.smooth_distance")
            return sd

        return make

    tracer.patch(cli, "SmoothDistance", "geometry.smooth_distance", traced_distance)


# name, unit, better: the per-layer metrics of a traced run.
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("cli.load_config_s", "s", "lower"),
    ("simulate.run_ensemble_s", "s", "lower"),
    ("simulate.driver_self_s", "s", "lower"),
    ("simulate.path_steps", "count", "higher"),
    ("simulate.noise_bytes", "bytes", "lower"),
    ("simulate.contacts", "count", "lower"),
    ("simulate.contact_frac", "fraction", "lower"),
    ("simulate.substeps", "count", "lower"),
    ("simulate.resampled_proposals", "count", "lower"),
    ("simulate.pool_refills", "count", "lower"),
    ("simulate.flagged_paths", "count", "lower"),
    ("simulate.to_csv_s", "s", "lower"),
    ("simulate.csv_bytes", "bytes", "lower"),
    ("simulate.csv_rows", "count", "higher"),
    ("simulate.csv_mb_per_s", "MB/s", "higher"),
    ("simulate.manifest_s", "s", "lower"),
    ("kernels.chunk_calls", "count", "lower"),
    ("kernels.chunk_s", "s", "lower"),
    ("kernels.ns_per_path_step", "ns", "lower"),
    ("geometry.smooth_distance_calls", "count", "lower"),
    ("geometry.smooth_distance_s", "s", "lower"),
    ("stationary.measure_s", "s", "lower"),
    ("stationary.residual_calls", "count", "lower"),
    ("stationary.residual_s", "s", "lower"),
    ("stationary.residual_s_per_fn", "s", "lower"),
    ("analysis.ks_s", "s", "lower"),
    ("analysis.moments_s", "s", "lower"),
    ("analysis.independence_s", "s", "lower"),
    ("analysis.angular_s", "s", "lower"),
    ("analysis.weighted_checks_s", "s", "lower"),
    ("analysis.checks_run", "count", "higher"),
    ("analysis.checks_failed", "count", "lower"),
    ("cli.histograms_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}

# Diagnostics counter behind each count, per family; other families report 0.
DIAGNOSTICS = {
    "reflected": {"simulate.contacts": "contacts"},
    "driftless_weighted": {"simulate.contacts": "contacts"},
    "gradient": {
        "simulate.substeps": "substeps_total",
        "simulate.resampled_proposals": "resampled_proposals",
        "simulate.pool_refills": "pool_refills",
    },
}

# The spans (or diagnostics keys) each metric is built from.  A metric is
# left out when one of them could not be wrapped or was not reported.
DEPENDS = {
    "simulate.run_ensemble_s": ["simulate.run_ensemble"],
    "simulate.driver_self_s": ["simulate.run_ensemble", "kernels.chunk"],
    "simulate.contacts": ["contacts"],
    "simulate.contact_frac": ["contacts"],
    "simulate.substeps": ["substeps_total"],
    "simulate.resampled_proposals": ["resampled_proposals"],
    "simulate.pool_refills": ["pool_refills"],
    "simulate.to_csv_s": ["simulate.to_csv"],
    "simulate.csv_mb_per_s": ["simulate.to_csv"],
    "simulate.manifest_s": ["simulate.manifest"],
    "kernels.chunk_calls": ["kernels.chunk"],
    "kernels.chunk_s": ["kernels.chunk"],
    "kernels.ns_per_path_step": ["kernels.chunk"],
    "geometry.smooth_distance_calls": ["geometry.smooth_distance"],
    "geometry.smooth_distance_s": ["geometry.smooth_distance"],
    "stationary.measure_s": ["stationary.measure"],
    "stationary.residual_calls": ["stationary.residual"],
    "stationary.residual_s": ["stationary.residual"],
    "stationary.residual_s_per_fn": ["stationary.residual"],
    "analysis.ks_s": ["analysis.ks"],
    "analysis.moments_s": ["analysis.moments"],
    "analysis.independence_s": ["analysis.independence"],
    "analysis.angular_s": ["analysis.angular"],
    "cli.histograms_s": ["cli.histograms"],
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(job, tracer, workload):
    """Per-layer values of one traced job."""
    sec, cnt = tracer.seconds, tracer.count
    m = {
        "simulate.run_ensemble_s": sec("simulate.run_ensemble"),
        "simulate.path_steps": job.path_steps,
        "simulate.noise_bytes": 0,
        "simulate.flagged_paths": job.flagged,
        "simulate.to_csv_s": sec("simulate.to_csv"),
        "simulate.csv_bytes": job.extra.get("csv_bytes", 0),
        "simulate.csv_rows": job.extra.get("csv_rows", 0),
        "simulate.manifest_s": sec("simulate.manifest"),
        "kernels.chunk_calls": cnt("kernels.chunk"),
        "kernels.chunk_s": sec("kernels.chunk"),
        "geometry.smooth_distance_calls": cnt("geometry.smooth_distance"),
        "geometry.smooth_distance_s": sec("geometry.smooth_distance"),
        "stationary.measure_s": sec("stationary.measure"),
        "stationary.residual_calls": cnt("stationary.residual"),
        "stationary.residual_s": sec("stationary.residual"),
        "analysis.ks_s": sec("analysis.ks"),
        "analysis.moments_s": sec("analysis.moments"),
        "analysis.independence_s": sec("analysis.independence"),
        "analysis.angular_s": sec("analysis.angular"),
        "analysis.weighted_checks_s": sec("analysis.weighted_checks"),
        "analysis.checks_run": len(job.checks),
        "analysis.checks_failed": sum(1 for _, ok in job.checks if not ok),
        "cli.histograms_s": sec("cli.histograms"),
    }
    for counts in DIAGNOSTICS.values():
        for name in counts:
            m[name] = 0
    missing = set(tracer.missing)
    if job.batch is not None:
        sim = workload.parsed.sim
        for name, key in DIAGNOSTICS[sim.family].items():
            if key in job.batch.diagnostics:
                m[name] = int(job.batch.diagnostics[key])
            else:
                missing.add(key)
        # Computed, not measured: the normal buffers of one chunk (the
        # gradient family also holds a reserve pool the size of the draws).
        buffers = 2 if sim.family == "gradient" else 1
        m["simulate.noise_bytes"] = (buffers * sim.n_paths * min(sim.chunk_size, sim.n_steps)
                                     * job.batch.dim * 8)
    m["simulate.driver_self_s"] = m["simulate.run_ensemble_s"] - m["kernels.chunk_s"]
    m["simulate.contact_frac"] = _ratio(m["simulate.contacts"], job.path_steps)
    m["simulate.csv_mb_per_s"] = _ratio(m["simulate.csv_bytes"] / 1e6, m["simulate.to_csv_s"])
    m["kernels.ns_per_path_step"] = _ratio(m["kernels.chunk_s"] * 1e9, job.path_steps)
    m["stationary.residual_s_per_fn"] = _ratio(m["stationary.residual_s"],
                                               m["stationary.residual_calls"])
    return {name: value for name, value in m.items()
            if not missing.intersection(DEPENDS.get(name, ()))}


def run_jobs(workload, seconds, work_dir, trace):
    """Repeat the workload's job until ``seconds`` have passed.

    Returns (job, tracer) pairs; the tracer is None for untraced jobs.  With
    ``trace``, untraced and traced jobs alternate, starting untraced, and at
    least one of each runs.
    """
    from tracing import Tracer

    from workloads import digests

    jobs = []
    start = time.perf_counter()
    while len(jobs) < 1 + trace or time.perf_counter() - start < seconds:
        out_dir = os.path.join(work_dir, "job")
        os.makedirs(out_dir)
        tracer = None
        if trace and len(jobs) % 2:
            tracer = Tracer()
            install_spans(tracer)
            try:
                job = tracer.call("job", workload.job, out_dir, tracer)
            finally:
                tracer.restore()
        else:
            job = workload.job(out_dir)
        csv_path = os.path.join(out_dir, "trajectory.csv")
        if os.path.exists(csv_path):
            job.extra["csv_bytes"] = os.path.getsize(csv_path)
            job.extra["csv_rows"] = job.batch.n_paths * job.batch.n_snapshots
        shutil.rmtree(out_dir)
        if job.batch is not None:
            job.extra["digests"] = digests(job.batch)
            if jobs:
                jobs[-1][0].batch = None  # keep only the last batch alive
        jobs.append((job, tracer))
    return jobs


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "inertdrift", "__init__.py")):
        print("perfbench: no package sources at %s; run from the root of a "
              "checkout" % src, file=sys.stderr)
        return 2
    # Pin the BLAS pool to the usable CPUs before numpy loads; probes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    compileall.compile_dir(src, quiet=1)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    work_root = os.path.join(HERE, "_work")
    work_dir = os.path.join(work_root, "run-%d" % os.getpid())
    os.makedirs(work_dir)
    try:
        return run(args, src, work_root, work_dir, WORKLOADS[args.workload])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def run(args, src, work_root, work_dir, workload_cls):
    from workloads import BACKEND

    workload = workload_cls(args.seed, work_dir)
    setup = probe_setup(src, workload.config_path, SETUP_PROBES)
    machine = machine_block()
    workload.install()
    try:
        workload.prepare()
        runs = run_jobs(workload, args.seconds, work_dir, bool(args.trace))
        jobs = [job for job, _ in runs]
        self_checks = workload.self_checks(jobs[-1])
    finally:
        workload.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = [p for job in jobs for p in job.problems]
    first = jobs[0].extra.get("digests")
    if any(job.extra.get("digests") != first for job in jobs):
        problems.append("snapshot arrays differ between repeats of one config")
    attempted = failed = 0
    for job in jobs:
        attempted += job.paths + len(job.checks)
        failed += job.flagged + sum(1 for _, ok in job.checks if not ok)
    attempted += len(self_checks)
    failed += sum(1 for _, stat, thr in self_checks if not stat > thr)

    plain = [job for job, tracer in runs if tracer is None]
    traced = [(job, tracer) for job, tracer in runs if tracer is not None]
    walls = [job.wall_s for job in plain]
    if args.trace:
        per_job = [layer_metrics(job, tracer, workload) for job, tracer in traced]
        names = [n for n, _, _ in PER_LAYER if all(n in m for m in per_job)]
        values = {n: statistics.median(m[n] for m in per_job) for n in names}
        values["setup.import_s"] = setup["setup.import_s"]
        values["cli.load_config_s"] = setup["cli.load_config_s"]
        # The first job also pays for warming caches; leave it out of the base.
        values["trace.overhead_s"] = (statistics.median(job.wall_s for job, _ in traced)
                                      - statistics.median(walls[1:] or walls))
        metrics = {n: {"value": values[n], "unit": UNITS[n]}
                   for n, _, _ in PER_LAYER if n in values}
        trace_path = os.path.join(work_root, "trace-%s-seed%d.json" % (workload.name, args.seed))
        with open(trace_path, "w") as fh:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "missing": sorted(set().union(*(t.missing for _, t in traced))),
                       "jobs": [[{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in t.spans] for _, t in traced]}, fh)
    else:
        # Means over the run, not medians: the host's speed switches between
        # two levels for 10-30 s at a time, and a median of jobs picks one.
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
        }
        if workload.simulates:
            metrics["path_steps_per_s"] = {
                "value": (sum(job.path_steps for job in plain)
                          / sum(job.ensemble_s for job in plain)),
                "unit": "path-steps/s"}
            metrics["ess_per_s"] = {
                "value": sum(job.ess for job in plain) / sum(walls),
                "unit": "1/s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "backend": BACKEND,
        "config": workload.raw,
        "jobs": len(plain), "traced_jobs": len(traced),
        "wall_s_samples": walls,
        "setup_s_samples": setup["samples"],
        "ops": attempted, "ops_failed": failed,
        "checks": [[name, ok] for name, ok in jobs[-1].checks],
        "self_checks": [[name, stat, thr, "FAIL" if stat > thr else "PASS (expected FAIL)"]
                        for name, stat, thr in self_checks],
        "digests": first,
        "ess": jobs[-1].ess,
        "problems": problems,
    }
    print("machine: " + json.dumps(machine))
    for name, ok in jobs[-1].checks:
        print("check %-40s %s" % (name, "PASS" if ok else "FAIL"))
    for name, stat, thr, verdict in details["self_checks"]:
        print("self-check %-50s statistic=%.4g threshold=%.4g %s" % (name, stat, thr, verdict))
    for name, digest in (first or {}).items():
        print("sha256 %-12s %s" % (name, digest))
    for problem in problems:
        print("problem: %s" % problem)
    print("details: " + json.dumps(details))
    # A statistical FAIL counts as a failed operation; ``correct`` is about the
    # outputs themselves and the self-checks, which must hold on every seed.
    correct = not problems and all(stat > thr for _, stat, thr in self_checks)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
