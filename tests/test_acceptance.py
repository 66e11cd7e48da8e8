"""Desk-scale acceptance battery.

Ten end-to-end criteria, each printed as a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live):

1. product-form stationarity on the unit interval (the ``run`` battery:
   KS, K moments, independence; plus Var(K) and corr(X, K) bounds)
2. the shipped ``configs/disc_gamma21.json`` (anisotropic Gamma on the
   unit disc) passes its own ``run`` battery: KS on x1 and x2, the K
   moments including Cov(K) = Gamma / 2, independence, angular uniformity
3. generator-orthogonality residuals in d=1 and d=2, with a perturbed
   control that must exceed 10x the tolerance
4. constrained-path oracle on the half line + refinement order on the disc
5. reweighted driftless estimator agrees with the direct simulation
6. smooth-wall sweep: the exact W1(pi_n, pi_inf) falls with n, each
   gradient run lies nearest its own law pi_n, and the smoothed-density
   mass grows
7. no boundary-overflow flags; max|K| grows sub-exponentially
8. structural invariants (sandwich, gradients, local time, determinism)
9. the ``run`` battery on an ellipsoid, whose boundary curvature varies
10. the ``run`` battery on the disc with a position-dependent A(x)

Criteria 1, 2, 9 and 10 check through ``cli.product_law_battery``, the
function behind ``inertdrift run``.

Every simulation uses a fixed seed, so each criterion is a deterministic
reproduction, not a flaky statistical draw; margins were chosen with
slack against their thresholds.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from inertdrift import (
    Ball,
    CoefficientSet,
    Ellipsoid,
    Interval,
    SimConfig,
    make_coefficients,
    run_ensemble,
    solve_skorokhod,
)
from inertdrift.analysis import weak_convergence_sweep
from inertdrift.cli import load_run_config, product_law_battery
from inertdrift.coefficients import Potential
from inertdrift.geometry import SmoothDistance
from inertdrift.skorokhod import DrivingPath, measure_refinement_order
from inertdrift.stationary import (
    StationaryMeasure,
    bump_basis,
    stationarity_residual,
)


PRODUCT_LAW = ("ks", "moments", "independence")


def report(num, label, ok, detail):
    print("criterion %d (%s): %s  [%s]" % (num, label, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def verdict(reports):
    """(every report passed and conclusive, one summary line)."""
    ok = all(r.passed and not r.inconclusive for r in reports)
    return ok, "; ".join("%s %.4f<%.4f" % (r.name, r.statistic, r.threshold)
                         for r in reports)


@pytest.fixture(scope="module")
def unit_interval():
    return Interval(0.0, 1.0)


@pytest.fixture(scope="module")
def interval_cs(unit_interval):
    return make_coefficients("identity", unit_interval, gamma=[[1.0]])


@pytest.fixture(scope="module")
def interval_ensemble(interval_cs, unit_interval):
    """The 1d reference ensemble shared by criteria 1 and 7."""
    cfg = SimConfig(
        family="reflected",
        dt_base=1e-4,
        t_end=50.0,
        burn_in=10.0,
        n_paths=200,
        seed=2026,
        snap_every=100,
    )
    start = time.perf_counter()
    batch = run_ensemble(interval_cs, cfg, domain=unit_interval)
    elapsed = time.perf_counter() - start
    return batch, elapsed


@pytest.mark.slow
def test_criterion_1_product_form_stationarity_1d(
    interval_ensemble, interval_cs
):
    batch, elapsed = interval_ensemble
    passed, checks = verdict(
        product_law_battery(batch, StationaryMeasure(interval_cs), PRODUCT_LAW))
    x = batch.x[batch.ok][:, :, 0].ravel()
    k = batch.k[batch.ok][:, :, 0].ravel()
    var_k = float(k.var())
    corr = float(np.corrcoef(x, k)[0, 1])
    ok = (
        passed
        and 0.45 <= var_k <= 0.55
        and abs(corr) <= 0.02
        and elapsed <= 120.0
    )
    report(
        1,
        "product-form stationarity, 1d",
        ok,
        "%s; Var(K)=%.4f in 0.5+-0.05; |corr|=%.5f<=0.02; %.1fs"
        % (checks, var_k, abs(corr), elapsed),
    )


@pytest.mark.slow
def test_criterion_2_anisotropic_disc_covariance():
    cfg = load_run_config(os.path.join(
        os.path.dirname(__file__), os.pardir, "configs", "disc_gamma21.json"))
    start = time.perf_counter()
    batch = run_ensemble(cfg.cs, cfg.sim, domain=cfg.domain)
    elapsed = time.perf_counter() - start
    passed, checks = verdict(
        product_law_battery(batch, StationaryMeasure(cfg.cs), cfg.tests))
    report(
        2,
        "shipped disc_gamma21 config: anisotropic Cov(K), 2d disc",
        passed and elapsed <= 600.0,
        "%s; %.1fs" % (checks, elapsed),
    )


@pytest.mark.slow
def test_criterion_3_generator_orthogonality(interval_cs):
    disc_cs = make_coefficients(
        "identity", Ball([0.0, 0.0], 1.0), gamma=np.diag([2.0, 1.0])
    )
    start = time.perf_counter()
    worst = {}
    for tag, cs, tol, count, seed in [
        ("d=1", interval_cs, 1e-5, 6, 3),
        ("d=2", disc_cs, 1e-4, 5, 5),
    ]:
        wall = Potential(SmoothDistance(cs.domain), 2)
        fns = bump_basis(cs.domain, cs.gamma, count=count, seed=seed)
        sm = StationaryMeasure(cs, potential=wall)
        sm_bad = StationaryMeasure(cs, potential=wall, v_scale=1.1)
        worst[tag] = max(abs(stationarity_residual(sm, f)) for f in fns)
        worst[tag + " perturbed"] = max(
            abs(stationarity_residual(sm_bad, f)) for f in fns
        )
        assert worst[tag] <= tol
        assert worst[tag + " perturbed"] > 10.0 * tol
    elapsed = time.perf_counter() - start
    ok = (
        worst["d=1"] <= 1e-5
        and worst["d=2"] <= 1e-4
        and worst["d=1 perturbed"] > 1e-4
        and worst["d=2 perturbed"] > 1e-3
        and elapsed <= 60.0
    )
    report(
        3,
        "generator orthogonality, d=1 and d=2",
        ok,
        "residuals %.1e<=1e-5, %.1e<=1e-4; perturbed %.2e, %.2e; %.1fs"
        % (worst["d=1"], worst["d=2"], worst["d=1 perturbed"],
           worst["d=2 perturbed"], elapsed),
    )


def test_criterion_4_constrained_path_oracle():
    start = time.perf_counter()
    half_line = Interval(0.0, math.inf)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        steps = int(rng.integers(20, 60))
        t = np.linspace(0.0, 1.0, steps + 1)
        f = rng.uniform(0.1, 0.8) + np.concatenate(
            [[0.0], np.cumsum(rng.normal(0.0, 0.25, steps))]
        )
        sol = solve_skorokhod(half_line, DrivingPath(t, f[:, None]))
        ell_ref = np.maximum.accumulate(np.maximum(-f, 0.0))
        worst = max(
            worst,
            float(np.abs(sol.local_time - ell_ref).max()),
            float(np.abs(sol.values[:, 0] - (f + ell_ref)).max()),
        )

    def smooth_path(t):
        r = 0.95 * (1.0 + 0.35 * math.sin(2.6 * t))
        return np.array([r * math.cos(0.4 + 1.9 * t),
                         r * math.sin(0.4 + 1.9 * t)])

    rep = measure_refinement_order(Ball([0.0, 0.0], 1.0), smooth_path)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and rep["order"] >= 0.9 and elapsed <= 10.0
    report(
        4,
        "half-line oracle + refinement order",
        ok,
        "oracle err %.2e<=1e-12 over 100 paths; order %.2f>=0.9; %.1fs"
        % (worst, rep["order"], elapsed),
    )


@pytest.mark.slow
def test_criterion_5_reweighted_driftless_estimator(
    interval_cs, unit_interval
):
    kw = dict(
        dt_base=2e-4,
        t_end=0.5,
        burn_in=0.0,
        n_paths=20_000,
        seed=31,
        snap_every=2500,
        x0=(0.3,),
    )
    start = time.perf_counter()
    weighted = run_ensemble(
        interval_cs,
        SimConfig(family="driftless_weighted", **kw),
        domain=unit_interval,
    )
    direct = run_ensemble(
        interval_cs, SimConfig(family="reflected", **kw), domain=unit_interval
    )
    elapsed = time.perf_counter() - start
    w = weighted.weights
    se_w = w.std(ddof=1) / math.sqrt(len(w))
    z_weight = abs(float(w.mean()) - 1.0) / se_w

    def functionals(batch):
        x, k = batch.x[:, -1, 0], batch.k[:, -1, 0]
        return [x, k, np.cos(np.pi * x) * np.tanh(k)]

    z_est = []
    for fw, fd in zip(functionals(weighted), functionals(direct)):
        ew = float(np.mean(w * fw))
        se1 = np.std(w * fw, ddof=1) / math.sqrt(len(w))
        ed = float(np.mean(fd))
        se2 = np.std(fd, ddof=1) / math.sqrt(len(fd))
        z_est.append(abs(ew - ed) / math.hypot(se1, se2))
    ok = z_weight <= 3.0 and max(z_est) <= 3.0 and elapsed <= 120.0
    report(
        5,
        "reweighted driftless estimator, T=0.5",
        ok,
        "z(mean weight)=%.2f<=3; z(functionals)=%.2f/%.2f/%.2f<=3; %.1fs"
        % (z_weight, z_est[0], z_est[1], z_est[2], elapsed),
    )


def test_criterion_6_smooth_wall_sweep(interval_cs, unit_interval):
    # the design of configs/sweep_interval.json
    cfg = SimConfig(
        family="reflected",
        dt_base=1e-3,
        t_end=6.0,
        burn_in=2.0,
        n_paths=64,
        seed=7,
        snap_every=20,
    )
    n_list = [1, 2, 4, 8]
    start = time.perf_counter()
    rep = weak_convergence_sweep(unit_interval, interval_cs, n_list, cfg)
    masses = []
    for n in n_list:
        wall = Potential(SmoothDistance(unit_interval), n)
        masses.append(1.0 / StationaryMeasure(interval_cs, potential=wall).c_x)
    elapsed = time.perf_counter() - start
    ok = (
        rep.passed
        and not rep.inconclusive
        and np.allclose(rep.series, [0.2236, 0.1790, 0.1282, 0.0862], atol=5e-4)
        and all(a < b for a, b in zip(masses, masses[1:]))
        and elapsed <= 600.0
    )
    report(
        6,
        "smooth-wall sweep against exact laws, n=1,2,4,8",
        ok,
        "W1(pi_n, pi_inf) %s; statistic %.3f<=1; masses %s increasing; %.1fs"
        % ("->".join("%.4f" % v for v in rep.series), rep.statistic,
           "->".join("%.3g" % m for m in masses), elapsed),
    )


@pytest.mark.slow
def test_criterion_7_no_explosion_proxy(interval_ensemble):
    batch, _ = interval_ensemble
    overflow = batch.flag_counts()["boundary_overflow"]
    half = np.abs(batch.k[:, batch.times <= 25.0]).max()
    full = np.abs(batch.k).max()
    ratio = float(full / half)
    ok = (
        overflow == 0
        and int((batch.flags != 0).sum()) == 0
        and np.isfinite(full)
        and ratio <= 4.0
    )
    report(
        7,
        "no boundary overflow; sub-exponential max|K|",
        ok,
        "overflow paths=%d; max|K| %.2f@t<=25 -> %.2f@t<=50, ratio %.2f<=4"
        % (overflow, half, full, ratio),
    )


def test_criterion_8_structural_invariants(interval_cs, unit_interval):
    disc = Ball([0.0, 0.0], 1.0)
    rng = np.random.default_rng(17)
    sd = SmoothDistance(disc)

    # multiplicative sandwich on a 10^4-point interior sample
    pts = disc.sample_interior(10_000, rng)
    delta = sd.value(pts)
    dist = disc.signed_distance(pts)
    c1, c2 = sd.c1, sd.c2
    sandwich = bool(
        np.all(delta >= c1 * dist - 1e-12) and np.all(delta <= c2 * dist + 1e-12)
    )

    # analytic gradient vs central differences, <= 1e-6 relative
    h = 1e-5 * disc.diameter
    sample = pts[dist > 4 * h][:100]
    worst_rel = 0.0
    for x in sample:
        fd = np.array([
            (sd.value(x + h * e) - sd.value(x - h * e)) / (2 * h)
            for e in np.eye(2)
        ])
        worst_rel = max(
            worst_rel,
            float(np.linalg.norm(sd.grad(x) - fd) / np.linalg.norm(fd)),
        )

    # local time: nondecreasing, flat off the boundary
    t = np.linspace(0.0, 1.0, 201)
    chord = np.column_stack([-0.9 + 2.2 * t, np.full_like(t, 0.35)])
    sol = solve_skorokhod(disc, DrivingPath(t, chord))
    dl = np.diff(sol.local_time)
    bd = np.abs(disc.signed_distance(sol.values)) <= disc.tol_bd
    local_time_ok = bool(
        sol.local_time[0] == 0.0
        and np.all(dl >= 0.0)
        and sol.local_time[-1] > 0.0
        and np.all(np.minimum(~bd[:-1], ~bd[1:])[dl > 0.0] == 0)
    )

    # determinism under a fixed seed; a different seed decorrelates
    cfg = SimConfig(
        family="reflected", dt_base=1e-3, t_end=0.5, burn_in=0.1,
        n_paths=8, seed=21, snap_every=10,
    )
    b1 = run_ensemble(interval_cs, cfg, domain=unit_interval)
    b2 = run_ensemble(interval_cs, cfg, domain=unit_interval)
    b3 = run_ensemble(
        interval_cs, dataclasses.replace(cfg, seed=22), domain=unit_interval
    )
    deterministic = bool(
        np.array_equal(b1.x, b2.x)
        and np.array_equal(b1.k, b2.k)
        and np.array_equal(b1.ell, b2.ell)
        and not np.array_equal(b1.x, b3.x)
    )

    ok = sandwich and worst_rel <= 1e-6 and local_time_ok and deterministic
    report(
        8,
        "structural invariants",
        ok,
        "sandwich=%s; grad rel err %.1e<=1e-6; local-time ok=%s; "
        "deterministic=%s" % (sandwich, worst_rel, local_time_ok,
                              deterministic),
    )


@pytest.mark.slow
def test_criterion_9_ellipsoid_product_form():
    # the K feedback varies around a boundary of varying curvature, which
    # neither the interval nor the disc tests
    ellipse = Ellipsoid([0.0, 0.0], [1.0, 0.5])
    cs = make_coefficients("identity", ellipse, gamma=np.diag([2.0, 1.0]))
    cfg = SimConfig(family="reflected", dt_base=2.5e-4, t_end=16.0,
                    burn_in=4.0, n_paths=512, seed=2026, snap_every=100)
    start = time.perf_counter()
    batch = run_ensemble(cs, cfg, domain=ellipse)
    elapsed = time.perf_counter() - start
    passed, checks = verdict(
        product_law_battery(batch, StationaryMeasure(cs), PRODUCT_LAW))
    report(9, "product form on the ellipsoid (1, 0.5)",
           passed and not batch.flags.any(), "%s; %.1fs" % (checks, elapsed))


def _sigma_varying_x1(pts):
    """sigma(x) = diag(sqrt(1 + x_1^2), 1), so A(x) = diag(1 + x_1^2, 1)."""
    out = np.zeros((len(pts), 2, 2))
    out[:, 0, 0] = np.sqrt(1.0 + pts[:, 0] ** 2)
    out[:, 1, 1] = 1.0
    return out


@pytest.mark.slow
def test_criterion_10_varying_a_disc_product_form():
    # constant rho, so the position law stays uniform while u = A n and the
    # drift b = (x_1, 0) vary with x
    disc = Ball([0.0, 0.0], 1.0)
    cs = CoefficientSet(disc, gamma=np.diag([2.0, 1.0]),
                        sigma=_sigma_varying_x1)
    cfg = SimConfig(family="reflected", dt_base=2.5e-4, t_end=10.0,
                    burn_in=2.5, n_paths=512, seed=2026, snap_every=100)
    start = time.perf_counter()
    batch = run_ensemble(cs, cfg, domain=disc)
    elapsed = time.perf_counter() - start
    passed, checks = verdict(
        product_law_battery(batch, StationaryMeasure(cs), PRODUCT_LAW))
    report(10, "product form on the disc, A(x) varying",
           passed and not batch.flags.any(), "%s; %.1fs" % (checks, elapsed))
