"""Statistical verification of simulated ensembles against the product law.

Snapshot series from a single trajectory are autocorrelated, so every
test here works with an *effective* sample size estimated by batch means
(``DEFAULT_BATCHES`` = 50 batches per path): the asymptotic variance of
a series mean is estimated as ``m * Var(batch means)`` — guarded by the
variance of the independent per-path means, which stays unbiased when
the batch length is shorter than the autocorrelation time — and the
effective size is ``n * marginal variance / asymptotic variance``,
capped at the raw count.  Tests report a :class:`TestReport`; the pass flag always means
``statistic <= threshold``, and reports with effective size below 100
are flagged inconclusive rather than failed.

Checks
------
* ``ks_uniformity`` — probability-integral transform of one position
  coordinate through the quadrature CDF of the stationary x-marginal
  (``stationary.marginal_cdf_grid``), then a one-sample
  Kolmogorov–Smirnov test whose asymptotic critical value is scaled by
  the effective sample size.
* ``k_moment_tests`` — inert-drift mean equal to zero, second moments
  equal to Gamma / 2 (each entry within 3 combined standard errors) and
  gaussian fourth moments (within 4).
* ``independence_test`` — cross-correlations corr(X_i, K_j) within 3
  standard errors of zero plus a 4x4 quartile-bin contingency
  chi-square on (X_1, K_1) at level ``LEVEL``.
* ``angular_uniformity`` — chi-square over ``SECTORS`` angular sectors
  for rotation-invariant planar ensembles.
* ``weak_convergence_sweep`` — simulates the smooth-wall gradient
  family for an increasing sequence of wall indices n and checks it
  against exact laws: the quadrature 1-Wasserstein distance of each
  smooth-wall position law to the reflected one must fall with n, and
  each run must lie nearer its own law than any other of these laws.

The critical values come from the limiting Kolmogorov distribution and
the chi-square distribution with integer degrees of freedom, computed
here in closed form, so every check loads numpy only.
"""

import csv
import dataclasses
import io
import math

import numpy as np

from .coefficients import Potential
from .geometry import SmoothDistance
from .simulate import run_ensemble
from .stationary import StationaryMeasure, marginal_cdf_grid

MIN_EFFECTIVE_SIZE = 100.0
DEFAULT_BATCHES = 50
LEVEL = 0.01  # the level of every distributional test
SECTORS = 8  # angular sectors of angular_uniformity


@dataclasses.dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check.

    ``passed`` always equals ``statistic <= threshold``; ``inconclusive``
    marks reports whose effective sample size was too small to mean
    anything either way.  ``series`` carries per-step values for
    sweep-style tests.
    """

    name: str
    statistic: float
    threshold: float
    sample_size: float
    passed: bool
    standard_error: float = None
    inconclusive: bool = False
    detail: str = ""
    series: tuple = ()


def _report(name, statistic, threshold, sample_size, standard_error=None,
            inconclusive=False, detail="", series=()):
    return TestReport(
        name=name,
        statistic=float(statistic),
        threshold=float(threshold),
        sample_size=float(sample_size),
        passed=bool(statistic <= threshold),
        standard_error=None if standard_error is None else float(standard_error),
        inconclusive=bool(inconclusive),
        detail=detail,
        series=tuple(float(v) for v in series),
    )


# ---------------------------------------------------------------------------
# effective sample size
# ---------------------------------------------------------------------------


def _asymptotic_variance(v):
    """Estimate of lim S * Var(series mean) for one path, from (P, S) data.

    Two estimators are combined conservatively: within-path batch means
    (prone to understating when the batch length is shorter than the
    autocorrelation time) and the variance of the independent per-path
    means (unbiased at any autocorrelation time, but noisy for few
    paths).  The larger of the two wins.
    """
    n_paths, n_snaps = v.shape
    estimates = []
    if n_snaps > 1:
        n_b = min(DEFAULT_BATCHES, n_snaps)
        m = n_snaps // n_b
        means = v[:, : n_b * m].reshape(n_paths, n_b, m).mean(axis=2)
        estimates.append(m * float(means.var(axis=1, ddof=1).mean()))
    if n_paths > 1:
        estimates.append(n_snaps * float(v.mean(axis=1).var(ddof=1)))
    return max(estimates) if estimates else 0.0


def effective_sample_size(values):
    """Batch-means effective sample size of a (paths, snapshots) series.

    Paths are independent; snapshots within a path are autocorrelated.
    A constant series, or one too short to batch, falls back to the
    count of independent units.
    """
    v = np.atleast_2d(np.asarray(values, float))
    n_paths, n_snaps = v.shape
    total = n_paths * n_snaps
    if total == 0:
        raise ValueError("effective_sample_size needs a nonempty series")
    s2 = float(v.var())
    if s2 == 0.0:
        return float(total)
    sigma2 = _asymptotic_variance(v)
    if sigma2 == 0.0:
        return float(total)
    return float(min(total * s2 / sigma2, total))


def batch_means_error(values):
    """Return (mean, standard error of the mean, effective sample size)."""
    v = np.atleast_2d(np.asarray(values, float))
    ess = effective_sample_size(v)
    s2 = float(v.var())
    return float(v.mean()), float(np.sqrt(s2 / ess)), ess


def _z_score(deviation, se):
    if se > 0.0:
        return abs(deviation) / se
    return 0.0 if deviation == 0.0 else np.inf


def _usable(batch):
    """Snapshot arrays of unflagged paths; refuses weighted ensembles."""
    if batch.log_weights is not None and np.any(batch.log_weights != 0.0):
        raise ValueError(
            "weighted ensembles are not supported by distributional tests; "
            "compare weighted expectations directly"
        )
    ok = batch.ok
    x, k = batch.x[ok], batch.k[ok]
    if x.size == 0:
        raise ValueError("batch has no usable snapshots")
    return x, k


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------


def _check_level(level):
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1, got %r" % (level,))


def _solve_decreasing(sf, level, hi):
    """The point of [0, hi] where the decreasing ``sf`` falls to ``level``.

    Bisection down to adjacent floats; ``sf(hi) <= level`` on entry.
    """
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if sf(mid) > level:
            lo = mid
        else:
            hi = mid


def _kolmogorov_sf(x):
    """Limiting Kolmogorov survival function, lim P(sqrt(n) D_n > x).

    The alternating series 2 sum (-1)^(k-1) exp(-2 k^2 x^2) for x >= 1,
    one minus the theta-function form of the CDF below that; eight terms
    reach double precision on each side.
    """
    if x >= 1.0:
        return 2.0 * sum((-1.0) ** (k - 1) * math.exp(-2.0 * k * k * x * x)
                         for k in range(1, 9))
    if x <= 0.0:
        return 1.0
    c = math.pi * math.pi / (8.0 * x * x)
    return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(
        math.exp(-(2 * k - 1) ** 2 * c) for k in range(1, 9))


def _kolmogorov_isf(level):
    """Asymptotic critical value x of the KS test: lim P(sqrt(n) D_n > x) = level."""
    _check_level(level)
    # the series is bounded by its first term, 2 exp(-2 x^2)
    return _solve_decreasing(_kolmogorov_sf, level,
                             1.0 + math.sqrt(0.5 * math.log(2.0 / level)))


def _chi2_sf(x, df):
    """Chi-square survival function for an integer number of degrees of freedom.

    With h = x / 2 it is the finite sum of exp(-h) h^a / Gamma(a + 1) over
    a = 0, 1, ... < df / 2 for even df, and erfc(sqrt(h)) plus the same sum
    over a = 1/2, 3/2, ... < df / 2 for odd df.
    """
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    total = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    a = 0.5 * (df % 2)
    while a < 0.5 * df:
        total += math.exp(a * math.log(h) - h - math.lgamma(a + 1.0))
        a += 1.0
    return total


def _chi2_isf(level, df):
    """Chi-square critical value x with P(chi2_df > x) = level."""
    _check_level(level)
    if df < 1 or int(df) != df:
        raise ValueError("degrees of freedom must be a positive integer, got %r"
                         % (df,))
    df = int(df)
    hi = float(df)
    while _chi2_sf(hi, df) > level:
        hi *= 2.0
    return _solve_decreasing(lambda x: _chi2_sf(x, df), level, hi)


def _ks_statistic(u):
    """One-sample KS distance of a sample of [0, 1] from U(0, 1).

    The same operations as ``scipy.stats.kstest(u, "uniform")``, so the
    statistic is bit-identical to it.
    """
    v = np.sort(np.asarray(u, float).ravel())
    n = v.size
    return float(max((np.arange(1.0, n + 1) / n - v).max(),
                     (v - np.arange(0.0, n) / n).max()))


# ---------------------------------------------------------------------------
# distributional tests
# ---------------------------------------------------------------------------


def ks_uniformity(batch, sm, coordinate=0):
    """KS test of one position coordinate against the stationary marginal.

    Snapshot values are mapped through the quadrature CDF; under the
    stationary law the result is uniform on (0, 1).  The critical value
    x / sqrt(ESS), where x is the level-``LEVEL`` point of the limiting
    Kolmogorov distribution, uses the batch-means effective sample size
    of the transformed series.
    """
    critical = _kolmogorov_isf(LEVEL)
    x, _ = _usable(batch)
    series = x[:, :, int(coordinate)]
    grid, cdf = marginal_cdf_grid(sm, axis=int(coordinate))
    u = np.interp(series, grid, cdf)
    statistic = _ks_statistic(u)
    ess = effective_sample_size(u)
    threshold = float(critical / np.sqrt(ess))
    inconclusive = ess < MIN_EFFECTIVE_SIZE
    detail = "coordinate=%d level=%g ess=%.1f" % (coordinate, LEVEL, ess)
    if inconclusive:
        detail += "; effective sample size below %d — lengthen the run" % int(
            MIN_EFFECTIVE_SIZE
        )
    return _report(
        "ks_uniformity",
        statistic,
        threshold,
        ess,
        standard_error=0.5 / np.sqrt(ess),
        inconclusive=inconclusive,
        detail=detail,
    )


def k_moment_tests(batch, sm):
    """Gaussian moment checks on the inert drift.

    Means within 3 standard errors of zero, second moments within 3 of
    Gamma / 2, fourth moments within 4 of their gaussian values.  The
    statistic is the worst z-score over checks, each normalized by its
    allowance, so the threshold is 1.
    """
    _, k = _usable(batch)
    d = k.shape[2]
    target = sm.y_cov
    worst, worst_label, min_ess = -np.inf, "", np.inf
    for i in range(d):
        checks = [
            (k[:, :, i], 0.0, 3.0, "mean[%d]" % i),
            (k[:, :, i] ** 4, 3.0 * target[i, i] ** 2, 4.0, "kurtosis[%d]" % i),
        ]
        for j in range(i, d):
            checks.append(
                (
                    k[:, :, i] * k[:, :, j],
                    target[i, j],
                    3.0,
                    "moment[%d,%d]" % (i, j),
                )
            )
        for series, want, allowance, label in checks:
            mean, se, ess = batch_means_error(series)
            z = _z_score(mean - want, se) / allowance
            min_ess = min(min_ess, ess)
            if z > worst:
                worst, worst_label = z, label
    inconclusive = min_ess < MIN_EFFECTIVE_SIZE
    detail = "worst=%s (z over allowance)" % worst_label
    if inconclusive:
        detail += "; effective sample size below %d" % int(MIN_EFFECTIVE_SIZE)
    return _report(
        "k_moments",
        worst,
        1.0,
        min_ess,
        inconclusive=inconclusive,
        detail=detail,
    )


def independence_test(batch):
    """Position/inert-drift independence under the stationary law.

    Cross-correlations corr(X_i, K_j) must stay within 3 standard
    errors of zero (1/sqrt(ESS) each), and a 4x4 quartile-binned
    contingency chi-square on (X_1, K_1), thinned to roughly independent
    snapshots, must stay below its level-``LEVEL`` critical value (9
    degrees of freedom).  Both parts are normalized by their own
    allowance; the statistic is the worse one.
    """
    crit = _chi2_isf(LEVEL, 9)
    x, k = _usable(batch)
    d = x.shape[2]
    worst, worst_label, min_ess = -np.inf, "", np.inf
    for i in range(d):
        xi = x[:, :, i] - x[:, :, i].mean()
        for j in range(d):
            kj = k[:, :, j] - k[:, :, j].mean()
            denom = np.sqrt(float((xi**2).mean() * (kj**2).mean()))
            if denom == 0.0:
                continue
            r = float((xi * kj).mean()) / denom
            ess = effective_sample_size(xi * kj)
            min_ess = min(min_ess, ess)
            z = abs(r) * np.sqrt(ess) / 3.0
            if z > worst:
                worst, worst_label = z, "corr(x%d,k%d)" % (i + 1, j + 1)

    n_paths, n_snaps = x.shape[:2]
    stride = max(1, int(np.ceil(n_paths * n_snaps / max(min_ess, 1.0))))
    xs = x[:, ::stride, 0].ravel()
    ks = k[:, ::stride, 0].ravel()
    edges_x = np.quantile(xs, [0.25, 0.5, 0.75])
    edges_k = np.quantile(ks, [0.25, 0.5, 0.75])
    ix = np.searchsorted(edges_x, xs)
    ik = np.searchsorted(edges_k, ks)
    counts = np.zeros((4, 4))
    np.add.at(counts, (ix, ik), 1.0)
    n_thin = xs.size
    expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / n_thin
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (counts - expected) ** 2 / expected, 0.0)
    chi2_stat = float(terms.sum())
    if chi2_stat / crit > worst:
        worst, worst_label = chi2_stat / crit, "chi2(4x4)"
    min_ess = min(min_ess, float(n_thin))

    inconclusive = min_ess < MIN_EFFECTIVE_SIZE
    detail = "worst=%s chi2=%.3f crit=%.3f thin_stride=%d" % (
        worst_label,
        chi2_stat,
        crit,
        stride,
    )
    if inconclusive:
        detail += "; effective sample size below %d" % int(MIN_EFFECTIVE_SIZE)
    return _report(
        "independence",
        worst,
        1.0,
        min_ess,
        inconclusive=inconclusive,
        detail=detail,
    )


def angular_uniformity(batch, center=(0.0, 0.0)):
    """Chi-square for rotational symmetry of planar position snapshots.

    Valid when the stationary x-marginal is rotation invariant about
    ``center`` (uniform density on a disc): counts of the snapshot angles
    in ``SECTORS`` equal sectors, thinned by the effective sample size of
    (cos, sin), against equal expectations, at level ``LEVEL``.
    """
    crit = _chi2_isf(LEVEL, SECTORS - 1)
    x, _ = _usable(batch)
    if x.shape[2] != 2:
        raise ValueError("angular_uniformity needs a 2-dimensional ensemble")
    c = np.asarray(center, float)
    theta = np.arctan2(x[:, :, 1] - c[1], x[:, :, 0] - c[0])
    ess = min(
        effective_sample_size(np.cos(theta)),
        effective_sample_size(np.sin(theta)),
    )
    n_paths, n_snaps = theta.shape
    stride = max(1, int(np.ceil(n_paths * n_snaps / max(ess, 1.0))))
    pooled = theta[:, ::stride].ravel()
    idx = np.clip(
        ((pooled + np.pi) / (2.0 * np.pi / SECTORS)).astype(int), 0, SECTORS - 1
    )
    counts = np.bincount(idx, minlength=SECTORS).astype(float)
    n = pooled.size
    expected = n / SECTORS
    chi2_stat = float(((counts - expected) ** 2 / expected).sum())
    inconclusive = n < MIN_EFFECTIVE_SIZE
    return _report(
        "angular_uniformity",
        chi2_stat,
        crit,
        n,
        inconclusive=inconclusive,
        detail="sectors=%d level=%g thin_stride=%d" % (SECTORS, LEVEL, stride),
    )


# ---------------------------------------------------------------------------
# weak-convergence sweep
# ---------------------------------------------------------------------------


def _w1_to_law(law, other):
    """1-Wasserstein distance, the integral of |F - G|, between the
    piecewise-linear CDF G of ``law``, a ``marginal_cdf_grid`` pair, and
    F: the CDF of another such pair, or the empirical CDF of a 1-D sample.

    F - G is linear between consecutive points of the merged grid, so
    each piece integrates exactly, also where it changes sign.
    """
    grid, cdf = law
    if isinstance(other, tuple):
        pts = np.union1d(grid, other[0])
        f = np.interp(pts, *other)
        f_left, f_right = f[:-1], f[1:]
    else:  # a step function, constant between consecutive points
        sample = np.sort(other)
        pts = np.union1d(grid, sample)
        f_left = f_right = sample.searchsorted(pts[:-1], "right") / sample.size
    g = np.interp(pts, grid, cdf)
    left, right = f_left - g[:-1], f_right - g[1:]
    a, b = np.abs(left), np.abs(right)
    cross = left * right < 0.0
    tent = np.where(cross, (a * a + b * b) / np.where(cross, a + b, 1.0), a + b)
    return 0.5 * float(np.dot(np.diff(pts), tent))


def weak_convergence_sweep(domain, cs, n_list, cfg):
    """Smooth-wall position laws against their exact limits.

    For each wall index n the gradient family with the wall V_n is
    simulated under ``cfg``.  A distance here is the larger per-axis W1,
    the integral of |F - G|, with each law's CDF from ``marginal_cdf_grid``.
    Two checks give ratios that must not exceed 1:

    * the law series W1(pi_n, pi_inf), stored as ``series``, must fall
      with n: each value over the one before;
    * the run at n must lie nearer pi_n than any other law of the sweep,
      pi_inf included: W1(run, pi_n) over the least W1(run, pi_m).

    The statistic is the largest ratio and the threshold is 1;
    ``sample_size`` is the smallest run's pooled snapshot count.
    """
    n_list = [int(v) for v in n_list]
    if len(n_list) < 2 or any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing with at least two entries")
    sd = SmoothDistance(domain)
    walls = [Potential(sd, n) for n in n_list]
    laws = [[marginal_cdf_grid(StationaryMeasure(cs, potential=wall), axis)
             for axis in range(domain.d)]
            for wall in walls + [None]]  # the last law is pi_inf

    def w1(law, other):  # the worst axis
        return max(_w1_to_law(law[a], other[a]) for a in range(domain.d))

    series = [w1(law, laws[-1]) for law in laws[:-1]]
    ratios = [b / a for a, b in zip(series, series[1:])]
    own, run_ratios, sizes = [], [], []
    for step, wall in enumerate(walls):
        g_cfg = dataclasses.replace(
            cfg, family="gradient", seed=cfg.seed + 7919 * (step + 1)
        )
        run = run_ensemble(cs, g_cfg, domain=domain, potential=wall)
        x = run.x[run.ok].reshape(-1, domain.d)
        if x.size == 0:
            raise ValueError("run produced no usable snapshots")
        dist = [w1(law, list(x.T)) for law in laws]
        own.append(dist[step])
        run_ratios.append(dist[step] / min(dist[:step] + dist[step + 1:]))
        sizes.append(x.shape[0])

    detail = "n=%s law_w1=%s run_w1=%s run_ratios=%s law_ratios=%s" % (
        n_list, *[["%.4g" % v for v in vals]
                  for vals in (series, own, run_ratios, ratios)])
    return _report("weak_convergence_sweep", max(run_ratios + ratios), 1.0,
                   min(sizes), detail=detail, series=series)


# ---------------------------------------------------------------------------
# file interfaces
# ---------------------------------------------------------------------------


def read_trajectory_csv(path):
    """Read a snapshot CSV (path_id,t,x*,k*,ell) back into arrays.

    Returns (times, x, k, ell) with shapes (S,), (P, S, d), (P, S, d),
    (P, S).  Rows must be grouped by path, paths must share snapshot
    times.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    d = sum(1 for name in header if name.startswith("x"))
    if header[: 2 + 2 * d] + ["ell"] != header or d == 0:
        raise ValueError("unrecognized snapshot CSV header: %r" % header)
    if not body.strip():
        raise ValueError("snapshot CSV %r has a header but no rows" % path)
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    pid = data[:, 0].astype(int)
    n_paths = pid.max() + 1
    if data.shape[0] % n_paths:
        raise ValueError("rows are not grouped into equal-length paths")
    n_snaps = data.shape[0] // n_paths
    if not np.array_equal(pid, np.repeat(np.arange(n_paths), n_snaps)):
        raise ValueError("rows must be grouped by path_id in order")
    times = data[:n_snaps, 1]
    if not np.allclose(data[:, 1].reshape(n_paths, n_snaps), times[None, :]):
        raise ValueError("paths disagree on snapshot times")
    x = data[:, 2 : 2 + d].reshape(n_paths, n_snaps, d)
    k = data[:, 2 + d : 2 + 2 * d].reshape(n_paths, n_snaps, d)
    ell = data[:, 2 + 2 * d].reshape(n_paths, n_snaps)
    return times, x, k, ell


def write_report_csv(path, reports):
    """Write TestReports to CSV, one row each, in the given order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "name",
                "statistic",
                "threshold",
                "sample_size",
                "standard_error",
                "passed",
                "inconclusive",
                "detail",
            ]
        )
        for r in reports:
            writer.writerow(
                [
                    r.name,
                    "%.17g" % r.statistic,
                    "%.17g" % r.threshold,
                    "%.17g" % r.sample_size,
                    "" if r.standard_error is None else "%.17g" % r.standard_error,
                    int(r.passed),
                    int(r.inconclusive),
                    r.detail,
                ]
            )


def write_histogram_csv(path, values, bins=50):
    """Histogram a sample to CSV rows of bin_lo,bin_hi,count."""
    counts, edges = np.histogram(np.asarray(values, float).ravel(), bins=bins)
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            fh.write("%.17g,%.17g,%d\n" % (lo, hi, c))
    return counts, edges
