"""Statistical verification of simulated ensembles against the product law.

Snapshot series from a single trajectory are autocorrelated, so every
test here works with an *effective* sample size estimated by batch means
(50 batches per path by default): the asymptotic variance of a series
mean is estimated as ``m * Var(batch means)`` — guarded by the variance
of the independent per-path means, which stays unbiased when the batch
length is shorter than the autocorrelation time — and the effective
size is ``n * marginal variance / asymptotic variance``, capped at the
raw count.  Tests report a :class:`TestReport`; the pass flag always means
``statistic <= threshold``, and reports with effective size below 100
are flagged inconclusive rather than failed.

Checks
------
* ``ks_uniformity`` — probability-integral transform of one position
  coordinate through the quadrature CDF of the stationary x-marginal,
  then a one-sample Kolmogorov–Smirnov test with the critical value
  scaled by the effective sample size.
* ``k_moment_tests`` — inert-drift mean equal to zero, second moments
  equal to Gamma / 2 (each entry within 3 combined standard errors) and
  gaussian fourth moments (within 4).
* ``independence_test`` — cross-correlations corr(X_i, K_j) within 3
  standard errors of zero plus a 4x4 quartile-bin contingency
  chi-square on (X_1, K_1) at level 0.01.
* ``angular_uniformity`` — chi-square over angular sectors for
  rotation-invariant planar ensembles.
* ``weak_convergence_sweep`` — simulates the smooth-wall gradient
  family for an increasing sequence of wall indices n and measures the
  1-Wasserstein distance of each position marginal to a reflected
  baseline (sliced over 32 fixed random projections above one
  dimension); the noise floor is the distance between two reflected
  runs with split seeds.
"""

import csv
import dataclasses
import io

import numpy as np
from scipy import stats
from scipy.special import kolmogi

from .coefficients import Potential
from .geometry import SmoothDistance
from .simulate import run_ensemble
from .stationary import _wall_refined_edges

MIN_EFFECTIVE_SIZE = 100.0
DEFAULT_BATCHES = 50


@dataclasses.dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check.

    ``passed`` always equals ``statistic <= threshold``; ``inconclusive``
    marks reports whose effective sample size was too small (or whose
    noise floor swamped the declared margin) to mean anything either
    way.  ``series`` carries per-step values for sweep-style tests.
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


def _asymptotic_variance(v, n_batches):
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
        n_b = min(int(n_batches), n_snaps)
        m = n_snaps // n_b
        means = v[:, : n_b * m].reshape(n_paths, n_b, m).mean(axis=2)
        estimates.append(m * float(means.var(axis=1, ddof=1).mean()))
    if n_paths > 1:
        estimates.append(n_snaps * float(v.mean(axis=1).var(ddof=1)))
    return max(estimates) if estimates else 0.0


def effective_sample_size(values, n_batches=DEFAULT_BATCHES):
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
    sigma2 = _asymptotic_variance(v, n_batches)
    if sigma2 == 0.0:
        return float(total)
    return float(min(total * s2 / sigma2, total))


def batch_means_error(values, n_batches=DEFAULT_BATCHES):
    """Return (mean, standard error of the mean, effective sample size)."""
    v = np.atleast_2d(np.asarray(values, float))
    ess = effective_sample_size(v, n_batches)
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
# marginal CDF by quadrature
# ---------------------------------------------------------------------------


def _chord_bounds(domain, axis, t_grid, n_scan=129):
    """Per-slice interval of the other axis inside a convex planar domain."""
    other = 1 - axis
    lo, hi = (np.asarray(b, float) for b in domain.bounding_box())
    scan = np.linspace(lo[other], hi[other], n_scan)
    pts = np.empty((t_grid.size, n_scan, 2))
    pts[:, :, axis] = t_grid[:, None]
    pts[:, :, other] = scan[None, :]
    mask = domain.inside(pts.reshape(-1, 2)).reshape(t_grid.size, n_scan)
    any_in = mask.any(axis=1)
    first = np.where(any_in, mask.argmax(axis=1), 0)
    last = np.where(any_in, n_scan - 1 - mask[:, ::-1].argmax(axis=1), 0)

    def bisect(a, b):
        # a strictly inside, b outside: shrink toward the crossing
        a, b = a.copy(), b.copy()
        probe = np.empty((t_grid.size, 2))
        probe[:, axis] = t_grid
        for _ in range(60):
            mid = 0.5 * (a + b)
            probe[:, other] = mid
            inside = domain.inside(probe)
            a = np.where(inside, mid, a)
            b = np.where(inside, b, mid)
        return a

    s_lo = bisect(scan[first], np.full(t_grid.size, lo[other]))
    s_hi = bisect(scan[last], np.full(t_grid.size, hi[other]))
    return s_lo, s_hi, any_in


def marginal_pdf(sm, axis, t_grid, chord_nodes=128):
    """Density of one position coordinate under the stationary x-marginal.

    Above one dimension the joint density is integrated over convex
    cross-sections by Gauss–Legendre quadrature on each chord.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, float))
    d = sm.domain.d
    if d == 1:
        return sm.x_pdf(t_grid[:, None])
    if d != 2:
        raise ValueError("marginal CDF quadrature is implemented for d <= 2")
    s_lo, s_hi, nonempty = _chord_bounds(sm.domain, axis, t_grid)
    g, w = np.polynomial.legendre.leggauss(chord_nodes)
    half = 0.5 * (s_hi - s_lo)
    nodes = 0.5 * (s_hi + s_lo)[:, None] + half[:, None] * g[None, :]
    pts = np.empty((t_grid.size, chord_nodes, 2))
    pts[:, :, axis] = t_grid[:, None]
    pts[:, :, 1 - axis] = nodes
    vals = sm.x_pdf(pts.reshape(-1, 2)).reshape(t_grid.size, chord_nodes)
    out = (vals @ w) * half
    out[~nonempty] = 0.0
    return out


def marginal_cdf_grid(sm, axis=0, n_grid=4097):
    """(grid, cdf) arrays for one position coordinate of the x-marginal.

    The grid spans the bounding box with dyadic refinement toward the
    walls; the CDF is a renormalized cumulative trapezoid rule.  Above
    one dimension the marginal density integrates the joint density over
    cross-sections (convex domains).
    """
    lo, hi = (np.atleast_1d(np.asarray(b, float)) for b in sm.domain.bounding_box())
    cuts = []
    if sm.domain.d == 1:
        cuts = [c for c in sm._radial_cuts() if lo[0] < c < hi[0]]
    grid = np.unique(
        np.concatenate(
            [
                np.linspace(lo[axis], hi[axis], int(n_grid)),
                _wall_refined_edges(lo[axis], hi[axis], cuts=cuts),
            ]
        )
    )
    pdf = marginal_pdf(sm, axis, grid)
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))]
    )
    if not cdf[-1] > 0.0:
        raise ValueError("marginal density integrated to zero")
    cdf = np.maximum.accumulate(cdf / cdf[-1])
    return grid, cdf


# ---------------------------------------------------------------------------
# distributional tests
# ---------------------------------------------------------------------------


def ks_uniformity(batch, sm, coordinate=0, level=0.01):
    """KS test of one position coordinate against the stationary marginal.

    Snapshot values are mapped through the quadrature CDF; under the
    stationary law the result is uniform on (0, 1).  The critical value
    kolmogi(level) / sqrt(ESS) uses the batch-means effective sample
    size of the transformed series.
    """
    x, _ = _usable(batch)
    series = x[:, :, int(coordinate)]
    grid, cdf = marginal_cdf_grid(sm, axis=int(coordinate))
    u = np.interp(series, grid, cdf)
    statistic = float(stats.kstest(u.ravel(), "uniform").statistic)
    ess = effective_sample_size(u)
    threshold = float(kolmogi(level) / np.sqrt(ess))
    inconclusive = ess < MIN_EFFECTIVE_SIZE
    detail = "coordinate=%d level=%g ess=%.1f" % (coordinate, level, ess)
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


def k_moment_tests(batch, sm, n_batches=DEFAULT_BATCHES):
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
            mean, se, ess = batch_means_error(series, n_batches)
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


def independence_test(batch, level=0.01, n_batches=DEFAULT_BATCHES):
    """Position/inert-drift independence under the stationary law.

    Cross-correlations corr(X_i, K_j) must stay within 3 standard
    errors of zero (1/sqrt(ESS) each), and a 4x4 quartile-binned
    contingency chi-square on (X_1, K_1), thinned to roughly independent
    snapshots, must stay below its level-``level`` critical value (9
    degrees of freedom).  Both parts are normalized by their own
    allowance; the statistic is the worse one.
    """
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
            ess = effective_sample_size(xi * kj, n_batches)
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
    crit = float(stats.chi2.ppf(1.0 - level, 9))
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


def angular_uniformity(batch, center=(0.0, 0.0), sectors=8, level=0.01):
    """Chi-square for rotational symmetry of planar position snapshots.

    Valid when the stationary x-marginal is rotation invariant about
    ``center`` (uniform density on a disc): sector counts of the
    snapshot angles, thinned by the effective sample size of
    (cos, sin), against equal expectations.
    """
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
        ((pooled + np.pi) / (2.0 * np.pi / sectors)).astype(int), 0, sectors - 1
    )
    counts = np.bincount(idx, minlength=sectors).astype(float)
    n = pooled.size
    expected = n / sectors
    chi2_stat = float(((counts - expected) ** 2 / expected).sum())
    crit = float(stats.chi2.ppf(1.0 - level, sectors - 1))
    inconclusive = n < MIN_EFFECTIVE_SIZE
    return _report(
        "angular_uniformity",
        chi2_stat,
        crit,
        n,
        inconclusive=inconclusive,
        detail="sectors=%d level=%g thin_stride=%d" % (sectors, level, stride),
    )


# ---------------------------------------------------------------------------
# weak-convergence sweep
# ---------------------------------------------------------------------------


def _wasserstein(a, b, directions):
    if directions is None:
        return float(stats.wasserstein_distance(a.ravel(), b.ravel()))
    return float(
        np.mean(
            [stats.wasserstein_distance(a @ u, b @ u) for u in directions]
        )
    )


def _pooled_positions(batch):
    x = batch.x[batch.ok]
    if x.size == 0:
        raise ValueError("run produced no usable snapshots")
    return x.reshape(-1, x.shape[2])


def weak_convergence_sweep(domain, cs, n_list, cfg, margin=None,
                           projections=32, projection_seed=2027):
    """Distance of smooth-wall position laws to the reflected baseline.

    For each wall index n the gradient family with the regularized wall
    potential V_n is simulated under ``cfg`` and the 1-Wasserstein
    distance between its pooled position snapshots and a reflected run
    is recorded (above one dimension: sliced over ``projections`` fixed
    random directions).  The report passes when the final distance drops
    below the first by at least ``margin`` (default: three times the
    noise floor, which is the distance between two reflected runs with
    split seeds and is stored as the report's standard error).  A
    declared margin below the noise floor makes the report inconclusive.
    """
    n_list = [int(v) for v in n_list]
    if len(n_list) < 2 or any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing with at least two entries")
    d = domain.d
    directions = None
    if d > 1:
        rng = np.random.default_rng(projection_seed)
        directions = rng.standard_normal((int(projections), d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    ref_cfg = dataclasses.replace(cfg, family="reflected")
    split_cfg = dataclasses.replace(ref_cfg, seed=ref_cfg.seed + 104729)
    baseline = _pooled_positions(run_ensemble(cs, ref_cfg, domain=domain))
    split = _pooled_positions(run_ensemble(cs, split_cfg, domain=domain))
    noise_floor = _wasserstein(baseline, split, directions)

    sd = SmoothDistance(domain)
    distances = []
    for step, n in enumerate(n_list):
        pot = Potential("regularized_vn", distance=sd, n=n)
        g_cfg = dataclasses.replace(
            cfg, family="gradient", seed=cfg.seed + 7919 * (step + 1)
        )
        run = run_ensemble(cs, g_cfg, domain=domain, potential=pot)
        distances.append(
            _wasserstein(_pooled_positions(run), baseline, directions)
        )

    declared = margin is not None
    if margin is None:
        margin = 3.0 * noise_floor
    inconclusive = declared and noise_floor > margin
    detail = "n=%s distances=%s noise_floor=%.6g margin=%.6g" % (
        n_list,
        ["%.6g" % v for v in distances],
        noise_floor,
        margin,
    )
    if inconclusive:
        detail += "; noise floor exceeds the margin — raise n_paths"
    return _report(
        "weak_convergence_sweep",
        distances[-1],
        distances[0] - margin,
        baseline.shape[0],
        standard_error=noise_floor,
        inconclusive=inconclusive,
        detail=detail,
        series=distances,
    )


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


def write_histogram_csv(path, values, bins=50, value_range=None):
    """Histogram a sample to CSV rows of bin_lo,bin_hi,count."""
    counts, edges = np.histogram(np.asarray(values, float).ravel(),
                                 bins=bins, range=value_range)
    with open(path, "w") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            fh.write("%.17g,%.17g,%d\n" % (lo, hi, c))
    return counts, edges
