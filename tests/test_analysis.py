"""Statistical test battery: effective sample size, KS, moments,
independence, angular uniformity, and the smooth-wall sweep.

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
from xml.sax.saxutils import escape

import numpy as np
import pytest
from scipy import stats
from scipy.special import kolmogi

from inertdrift import (
    Ball,
    Box,
    Interval,
    Potential,
    SimConfig,
    SmoothDistance,
    make_coefficients,
    run_ensemble,
)
from inertdrift._svg import histogram_svg
from inertdrift.cli import TEST_NAMES, product_law_battery
from inertdrift.simulate import TrajectoryBatch
from inertdrift.stationary import StationaryMeasure, sample_stationary
from inertdrift import analysis as an
from inertdrift import stationary


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
    # exp(-V) for a symmetric V that no wall V_n gives
    class QuadraticWall(Potential):
        def boltzmann(self, x):
            pts = np.atleast_2d(np.asarray(x, dtype=float))
            return np.exp(-4.0 * (pts[:, 0] - 0.5) ** 2)

    pot = QuadraticWall(SmoothDistance(unit_interval), 1)
    grid, cdf = an.marginal_cdf_grid(StationaryMeasure(interval_cs, potential=pot))
    assert np.interp(0.5, grid, cdf) == pytest.approx(0.5, abs=1e-8)
    assert cdf[0] == 0.0 and cdf[-1] == 1.0


def test_marginal_cdf_rejects_high_dimension(monkeypatch):
    box = Box([0.0] * 3, [1.0] * 3)
    cs = make_coefficients("identity", box, gamma=np.eye(3))
    monkeypatch.setattr(stationary, "MC_SAMPLES", 20_000)
    sm = StationaryMeasure(cs)
    with pytest.raises(ValueError, match="d <= 2"):
        an.marginal_cdf_grid(sm)


# ---------------------------------------------------------------------------
# critical values and the KS statistic, against scipy
# ---------------------------------------------------------------------------

PARITY_LEVELS = np.concatenate([np.geomspace(1e-4, 0.5, 41), [0.01, 0.05]])


@pytest.mark.parametrize("u", [
    np.random.default_rng(4).random(2001),
    np.round(np.random.default_rng(5).random(3000), 2),  # many ties
    np.r_[0.0, 1.0, np.random.default_rng(6).random(97), 0.0, 1.0, 1.0],
    np.array([0.5]),
], ids=["random", "ties", "endpoints", "single"])
def test_ks_statistic_is_bit_equal_to_scipy(u):
    assert an._ks_statistic(u) == stats.kstest(u, "uniform").statistic


def test_kolmogorov_isf_matches_scipy():
    ours = np.array([an._kolmogorov_isf(level) for level in PARITY_LEVELS])
    np.testing.assert_allclose(ours, kolmogi(PARITY_LEVELS), rtol=1e-13, atol=0)


@pytest.mark.parametrize("df", range(1, 31))
def test_chi2_isf_matches_scipy(df):
    ours = np.array([an._chi2_isf(level, df) for level in PARITY_LEVELS])
    np.testing.assert_allclose(ours, stats.chi2.ppf(1.0 - PARITY_LEVELS, df),
                               rtol=1e-13, atol=0)


def test_svg_title_escapes_like_saxutils(tmp_path):
    title = "a&b<c>\"d'"
    path = histogram_svg(tmp_path / "h.svg", [0.0, 0.5, 1.0], [3, 4],
                         title=title, x_label=title)
    text = path.read_text(encoding="utf-8")
    assert text.count(">%s</text>" % escape(title)) == 2


@pytest.mark.parametrize("level", [0.0, 1.0, -0.01, 1.5, float("nan")])
def test_impossible_levels_are_refused(level):
    with pytest.raises(ValueError, match="level"):
        an._kolmogorov_isf(level)
    with pytest.raises(ValueError, match="level"):
        an._chi2_isf(level, 3)


@pytest.mark.parametrize("df", [0, -2, 2.5])
def test_chi2_isf_refuses_bad_degrees_of_freedom(df):
    with pytest.raises(ValueError, match="degrees of freedom"):
        an._chi2_isf(0.01, df)


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
# the product-law battery of ``inertdrift run``
# ---------------------------------------------------------------------------


def test_battery_passes_on_product_draws(disc_batch, disc_sm):
    reports = product_law_battery(disc_batch, disc_sm, TEST_NAMES)
    assert [r.name for r in reports] == [
        "ks_uniformity", "k_moments", "independence", "angular_uniformity"]
    for rep in reports:
        assert rep.passed and not rep.inconclusive
    # reproducible bit-for-bit from the same batch
    assert product_law_battery(disc_batch, disc_sm, TEST_NAMES) == reports


def test_battery_ks_names_the_failing_coordinate(disc_batch, disc_sm):
    x = disc_batch.x.copy()
    x[:, :, 1] = np.abs(x[:, :, 1])
    folded = dataclasses.replace(disc_batch, x=x)
    (ks,) = product_law_battery(folded, disc_sm, ["ks"])
    assert not ks.passed and not ks.inconclusive
    assert ks.detail.startswith("coordinate=1 ")
    # the first coordinate alone does not see the fold
    assert an.ks_uniformity(folded, disc_sm).passed


def test_battery_ks_is_inconclusive_if_any_coordinate_is(disc_sm):
    xs, ks = sample_stationary(disc_sm, 5000, seed=4)
    x = np.abs(xs.reshape(50, 100, 2))
    x[:, :, 1] = x[:, :1, 1]  # constant along each path: ESS of 50
    batch = dataclasses.replace(synthetic_batch(xs, ks, n_paths=50), x=x)
    (rep,) = product_law_battery(batch, disc_sm, ["ks"])
    assert rep.detail.startswith("coordinate=0 ")
    assert not rep.passed and rep.inconclusive


def test_battery_ks_in_one_dimension_is_ks_uniformity(interval_sm):
    xs, ks = sample_stationary(interval_sm, 4000, seed=6)
    batch = synthetic_batch(xs, ks, n_paths=40)
    assert product_law_battery(batch, interval_sm, ["ks"]) == [
        an.ks_uniformity(batch, interval_sm)]


# ---------------------------------------------------------------------------
# weak-convergence sweep
# ---------------------------------------------------------------------------


SWEEP_CFG = SimConfig(
    family="reflected",
    dt_base=1e-3,
    t_end=4.0,
    n_paths=48,
    seed=7,
    burn_in=1.0,
    snap_every=20,
)


def test_w1_to_law_is_exact_for_piecewise_linear_cdfs():
    uniform = (np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    # a point mass at 1/2: two triangles of area 1/8
    assert an._w1_to_law(uniform, np.array([0.5])) == pytest.approx(0.25, abs=1e-15)
    # U(0, 1) against U(0, 1/2): the means differ by 1/4, and the CDFs never cross
    half = (np.array([0.0, 0.5]), np.array([0.0, 1.0]))
    assert an._w1_to_law(uniform, half) == pytest.approx(0.25, abs=1e-15)
    assert an._w1_to_law(half, uniform) == pytest.approx(0.25, abs=1e-15)
    assert an._w1_to_law(uniform, uniform) == 0.0
    # a step function crossing a line inside one piece: |1/2 - t| over [0, 1]
    assert an._w1_to_law(uniform, np.array([0.0, 1.0])) == pytest.approx(
        0.25, abs=1e-15)


def test_w1_to_law_matches_scipy_on_a_finely_binned_law():
    # scipy sees the law as point masses at the cell midpoints of a fine
    # grid, which moves W1 by at most half a cell
    grid = np.linspace(-1.0, 2.0, 300_001)
    cdf = np.clip(grid, 0.0, 1.0) ** 2  # the density 2t on [0, 1]
    mids, masses = 0.5 * (grid[1:] + grid[:-1]), np.diff(cdf)
    rng = np.random.default_rng(3)
    for sample in (rng.random(7), rng.random(500) ** 0.5, np.array([0.3, 0.3])):
        want = stats.wasserstein_distance(sample, mids, v_weights=masses)
        assert an._w1_to_law((grid, cdf), sample) == pytest.approx(
            want, abs=1e-5)


def test_weak_convergence_sweep(unit_interval, interval_cs, monkeypatch):
    calls = []

    def recording(cs, cfg, domain=None, potential=None):
        calls.append((cfg.family, cfg.seed, potential.n))
        return run_ensemble(cs, cfg, domain=domain, potential=potential)

    monkeypatch.setattr(an, "run_ensemble", recording)
    rep = an.weak_convergence_sweep(unit_interval, interval_cs, [1, 2, 8],
                                    SWEEP_CFG)
    # only the gradient runs, with the seeds that keep their trajectories
    assert calls == [("gradient", 7 + 7919 * (i + 1), n)
                     for i, n in enumerate([1, 2, 8])]
    assert rep.passed and not rep.inconclusive
    assert rep.threshold == 1.0 and rep.standard_error is None
    assert rep.sample_size == 48 * 150  # 150 snapshots per path after burn-in
    # the exact law series W1(pi_n, pi_inf), which does not depend on the runs
    np.testing.assert_allclose(rep.series, [0.2236, 0.1790, 0.0862], atol=5e-4)
    run_ratios = [float(v) for v in
                  rep.detail.split("run_ratios=[")[1].split("]")[0]
                  .replace("'", "").split(",")]
    assert max(run_ratios) < 0.3


def test_weak_convergence_sweep_fails_a_wrong_wall(unit_interval, interval_cs,
                                                   monkeypatch):
    # the run labelled n steps V_2n, so it lies nearer pi_2n than pi_n
    def doubled(cs, cfg, domain=None, potential=None):
        wall = Potential(potential.distance, 2 * potential.n)
        return run_ensemble(cs, cfg, domain=domain, potential=wall)

    monkeypatch.setattr(an, "run_ensemble", doubled)
    rep = an.weak_convergence_sweep(unit_interval, interval_cs, [1, 2, 8],
                                    SWEEP_CFG)
    assert not rep.passed and rep.statistic > 1.0


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
        tmp_path / "h.csv", rng.random(1000), bins=10
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
