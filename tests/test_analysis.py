"""Statistical test battery: effective sample size, KS, moments,
independence, angular uniformity, and the convergence sweep.

Analytic oracles
----------------
* AR(1) with coefficient 0.9 has an effective-sample-size factor
  (1 - 0.9)/(1 + 0.9) = 1/19 ~ 0.0526; the batch-means estimate must
  land nearby and inflate the naive standard error by ~sqrt(19).
* the uniform interval's marginal CDF is the identity; the unit disc's
  is (t sqrt(1-t^2) + arcsin t + pi/2)/pi.
* direct draws from sample_stationary are exact, so every
  distributional test must pass on them at its nominal level.
"""

import dataclasses

import numpy as np
import pytest

from inertdrift import (
    Ball,
    Box,
    Interval,
    Potential,
    SimConfig,
    make_coefficients,
    run_ensemble,
)
from inertdrift.simulate import TrajectoryBatch
from inertdrift.stationary import StationaryMeasure, sample_stationary
from inertdrift import analysis as an


@pytest.fixture(scope="module")
def unit_interval():
    return Interval(0.0, 1.0)


@pytest.fixture(scope="module")
def interval_cs(unit_interval):
    return make_coefficients("identity", unit_interval, gamma=[[1.0]])


@pytest.fixture(scope="module")
def interval_sm(interval_cs):
    return StationaryMeasure(interval_cs)


@pytest.fixture(scope="module")
def disc_cs():
    return make_coefficients(
        "identity", Ball([0.0, 0.0], 1.0), gamma=np.diag([2.0, 1.0])
    )


@pytest.fixture(scope="module")
def disc_sm(disc_cs):
    return StationaryMeasure(disc_cs)


def synthetic_batch(xs, ks, n_paths=None, log_weights=None):
    """Wrap draws as a snapshot batch of n_paths x (N // n_paths)."""
    total, d = xs.shape
    n_paths = n_paths or total
    n_snaps = total // n_paths
    cfg = SimConfig(
        family="reflected", dt_base=1e-3, t_end=1.0, n_paths=n_paths, seed=0
    )
    return TrajectoryBatch(
        times=np.arange(1, n_snaps + 1) * 1e-3,
        x=xs[: n_paths * n_snaps].reshape(n_paths, n_snaps, d),
        k=ks[: n_paths * n_snaps].reshape(n_paths, n_snaps, d),
        ell=np.zeros((n_paths, n_snaps)),
        flags=np.zeros(n_paths, dtype=np.int64),
        log_weights=log_weights,
        diagnostics={},
        config=cfg,
        backend="numpy",
        run_info={},
    )


@pytest.fixture(scope="module")
def disc_batch(disc_sm):
    xs, ks = sample_stationary(disc_sm, 20_000, seed=9)
    return synthetic_batch(xs, ks, n_paths=100)


# ---------------------------------------------------------------------------
# effective sample size
# ---------------------------------------------------------------------------


def test_ess_iid_is_near_total():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((8, 1000))
    ess = an.effective_sample_size(v)
    assert 0.75 * 8000 < ess <= 8000


def test_ess_ar1_matches_theory():
    rng = np.random.default_rng(1)
    phi, n_paths, n_snaps = 0.9, 4, 5000
    eps = rng.standard_normal((n_paths, n_snaps))
    v = np.empty_like(eps)
    v[:, 0] = eps[:, 0]
    for t in range(1, n_snaps):
        v[:, t] = phi * v[:, t - 1] + np.sqrt(1 - phi * phi) * eps[:, t]
    ratio = an.effective_sample_size(v) / (n_paths * n_snaps)
    assert 0.035 < ratio < 0.075  # theory: 1/19 ~ 0.0526
    _, se, _ = an.batch_means_error(v)
    naive = v.std() / np.sqrt(v.size)
    assert se > 3.0 * naive


def test_ess_edge_cases():
    assert an.effective_sample_size(np.zeros((17, 1))) == 17.0
    assert an.effective_sample_size(np.ones((3, 40))) == 120.0
    with pytest.raises(ValueError, match="nonempty"):
        an.effective_sample_size(np.zeros((0, 5)))


# ---------------------------------------------------------------------------
# marginal CDF quadrature
# ---------------------------------------------------------------------------


def test_marginal_cdf_uniform_is_identity(interval_sm):
    grid, cdf = an.marginal_cdf_grid(interval_sm)
    assert np.max(np.abs(cdf - np.clip(grid, 0.0, 1.0))) <= 1e-8


def test_marginal_cdf_disc_matches_analytic(disc_sm):
    grid, cdf = an.marginal_cdf_grid(disc_sm, axis=0)
    t = np.clip(grid, -1.0, 1.0)
    want = (t * np.sqrt(1.0 - t * t) + np.arcsin(t) + np.pi / 2) / np.pi
    assert np.max(np.abs(cdf - want)) <= 1e-5


def test_marginal_cdf_user_potential_is_symmetric(unit_interval, interval_cs):
    # a user potential has no smoothed distance to take cuts from
    def V(pts):
        return 4.0 * (pts[:, 0] - 0.5) ** 2

    def gV(pts):
        return 8.0 * (pts - 0.5)

    pot = Potential("user_supplied", domain=unit_interval, V=V, grad_V=gV,
                    vectorized=True)
    grid, cdf = an.marginal_cdf_grid(StationaryMeasure(interval_cs, potential=pot))
    assert np.interp(0.5, grid, cdf) == pytest.approx(0.5, abs=1e-8)
    assert cdf[0] == 0.0 and cdf[-1] == 1.0


def test_marginal_cdf_rejects_high_dimension():
    box = Box([0.0] * 3, [1.0] * 3)
    cs = make_coefficients("identity", box, gamma=np.eye(3))
    sm = StationaryMeasure(cs, mc_samples=20_000)
    with pytest.raises(ValueError, match="d <= 2"):
        an.marginal_cdf_grid(sm)


# ---------------------------------------------------------------------------
# KS uniformity
# ---------------------------------------------------------------------------


def test_ks_passes_on_direct_draws(interval_sm):
    passes = 0
    for s in range(20):
        xs, ks = sample_stationary(interval_sm, 1500, seed=100 + s)
        rep = an.ks_uniformity(synthetic_batch(xs, ks), interval_sm)
        assert not rep.inconclusive
        passes += rep.passed
    assert passes >= 19


def test_ks_passes_on_disc_coordinates(disc_batch, disc_sm):
    for coord in (0, 1):
        rep = an.ks_uniformity(disc_batch, disc_sm, coordinate=coord)
        assert rep.passed and not rep.inconclusive


def test_ks_detects_wrong_density(unit_interval, interval_sm):
    cs_exp = make_coefficients("exp_density", unit_interval, gamma=[[1.0]])
    xs, ks = sample_stationary(StationaryMeasure(cs_exp), 1500, seed=5)
    rep = an.ks_uniformity(synthetic_batch(xs, ks), interval_sm)
    assert not rep.passed


def test_ks_rejects_bad_batches(interval_sm):
    xs, ks = sample_stationary(interval_sm, 50, seed=1)
    batch = synthetic_batch(xs, ks)
    empty = dataclasses.replace(batch, flags=np.ones(50, dtype=np.int64))
    with pytest.raises(ValueError, match="usable"):
        an.ks_uniformity(empty, interval_sm)
    weighted = dataclasses.replace(batch, log_weights=np.full(50, 0.1))
    with pytest.raises(ValueError, match="weighted"):
        an.ks_uniformity(weighted, interval_sm)
    # all-zero log weights are genuinely unweighted
    flat = dataclasses.replace(batch, log_weights=np.zeros(50))
    an.ks_uniformity(flat, interval_sm)


def test_ks_small_sample_is_inconclusive(interval_sm):
    xs, ks = sample_stationary(interval_sm, 40, seed=2)
    rep = an.ks_uniformity(synthetic_batch(xs, ks), interval_sm)
    assert rep.inconclusive


# ---------------------------------------------------------------------------
# moments and independence
# ---------------------------------------------------------------------------


def test_k_moments_pass_on_direct_draws(disc_batch, disc_sm):
    rep = an.k_moment_tests(disc_batch, disc_sm)
    assert rep.passed and not rep.inconclusive


def test_k_moments_detect_shift_and_scale(disc_batch, disc_sm):
    xs = disc_batch.x.reshape(-1, 2)
    ks = disc_batch.k.reshape(-1, 2)
    shifted = an.k_moment_tests(
        synthetic_batch(xs, ks + 0.2, n_paths=100), disc_sm
    )
    assert not shifted.passed and "mean" in shifted.detail
    scaled = an.k_moment_tests(
        synthetic_batch(xs, 1.3 * ks, n_paths=100), disc_sm
    )
    assert not scaled.passed and "moment" in scaled.detail


def test_k_moments_tiny_sample_inconclusive(disc_sm):
    xs, ks = sample_stationary(disc_sm, 50, seed=3)
    rep = an.k_moment_tests(synthetic_batch(xs, ks), disc_sm)
    assert rep.inconclusive


def test_independence_passes_on_product_draws(disc_batch):
    rep = an.independence_test(disc_batch)
    assert rep.passed and not rep.inconclusive


def test_independence_detects_coupling(interval_sm):
    xs, _ = sample_stationary(interval_sm, 8000, seed=3)
    rep = an.independence_test(synthetic_batch(xs, xs - 0.5, n_paths=80))
    assert not rep.passed


def test_angular_uniformity(disc_batch):
    rep = an.angular_uniformity(disc_batch)
    assert rep.passed and not rep.inconclusive
    folded = synthetic_batch(
        np.abs(disc_batch.x.reshape(-1, 2)),
        disc_batch.k.reshape(-1, 2),
        n_paths=100,
    )
    assert not an.angular_uniformity(folded).passed


def test_angular_uniformity_needs_plane(interval_sm):
    xs, ks = sample_stationary(interval_sm, 200, seed=1)
    with pytest.raises(ValueError, match="2-dimensional"):
        an.angular_uniformity(synthetic_batch(xs, ks))


# ---------------------------------------------------------------------------
# full battery on a real simulation
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_reflected_run_passes_battery(unit_interval, interval_cs, interval_sm):
    cfg = SimConfig(
        family="reflected",
        dt_base=1e-4,
        t_end=20.0,
        n_paths=128,
        seed=42,
        burn_in=8.0,
        snap_every=100,
    )
    batch = run_ensemble(interval_cs, cfg, domain=unit_interval)
    ks = an.ks_uniformity(batch, interval_sm)
    mo = an.k_moment_tests(batch, interval_sm)
    ind = an.independence_test(batch)
    for rep in (ks, mo, ind):
        assert rep.passed and not rep.inconclusive
    # reproducible bit-for-bit from the same batch
    assert an.ks_uniformity(batch, interval_sm) == ks
    assert an.independence_test(batch) == ind


# ---------------------------------------------------------------------------
# weak-convergence sweep
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_weak_convergence_sweep(unit_interval, interval_cs):
    cfg = SimConfig(
        family="reflected",
        dt_base=1e-3,
        t_end=4.0,
        n_paths=48,
        seed=7,
        burn_in=1.0,
        snap_every=20,
    )
    rep = an.weak_convergence_sweep(unit_interval, interval_cs, [1, 2, 8], cfg)
    assert rep.passed and not rep.inconclusive
    assert len(rep.series) == 3
    assert all(a > b for a, b in zip(rep.series, rep.series[1:]))
    # split-seed noise floor is far below the sweep's travel
    assert rep.standard_error < rep.series[0] / 10.0
    # an unrealistically small declared margin is flagged, not failed
    tight = an.weak_convergence_sweep(
        unit_interval, interval_cs, [1, 2, 8], cfg, margin=1e-9
    )
    assert tight.inconclusive and "n_paths" in tight.detail


def test_weak_convergence_sweep_validates_n_list(unit_interval, interval_cs):
    cfg = SimConfig(
        family="reflected", dt_base=1e-3, t_end=1.0, n_paths=4, seed=0
    )
    for bad in ([4], [2, 2], [4, 2]):
        with pytest.raises(ValueError, match="increasing"):
            an.weak_convergence_sweep(unit_interval, interval_cs, bad, cfg)


# ---------------------------------------------------------------------------
# reports and files
# ---------------------------------------------------------------------------


def test_report_pass_flag_consistency(disc_batch, disc_sm):
    reports = [
        an.k_moment_tests(disc_batch, disc_sm),
        an.independence_test(disc_batch),
        an.angular_uniformity(disc_batch),
    ]
    for rep in reports:
        assert rep.passed == (rep.statistic <= rep.threshold)


def test_report_csv_roundtrip(tmp_path, disc_batch, disc_sm):
    reports = [
        an.k_moment_tests(disc_batch, disc_sm),
        an.angular_uniformity(disc_batch),
    ]
    path = tmp_path / "report.csv"
    an.write_report_csv(path, reports)
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("name,statistic,threshold,sample_size")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "k_moments"


def test_histogram_csv(tmp_path):
    rng = np.random.default_rng(0)
    counts, edges = an.write_histogram_csv(
        tmp_path / "h.csv", rng.random(1000), bins=10, value_range=(0.0, 1.0)
    )
    lines = (tmp_path / "h.csv").read_text().strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 11
    assert counts.sum() == 1000
    parsed = [int(line.split(",")[2]) for line in lines[1:]]
    assert parsed == list(counts)


def test_read_trajectory_csv_roundtrip(tmp_path, unit_interval, interval_cs):
    cfg = SimConfig(
        family="reflected",
        dt_base=1e-3,
        t_end=0.05,
        n_paths=3,
        seed=5,
        snap_every=10,
    )
    batch = run_ensemble(interval_cs, cfg, domain=unit_interval)
    path = tmp_path / "traj.csv"
    batch.to_csv(path)
    times, x, k, ell = an.read_trajectory_csv(path)
    assert np.array_equal(times, batch.times)
    assert np.array_equal(x, batch.x)
    assert np.array_equal(k, batch.k)
    assert np.array_equal(ell, batch.ell)
    # ungrouped rows are rejected
    lines = path.read_text().strip().split("\n")
    shuffled = [lines[0]] + lines[1:][::-1]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(shuffled) + "\n")
    with pytest.raises(ValueError, match="grouped|order"):
        an.read_trajectory_csv(bad)
