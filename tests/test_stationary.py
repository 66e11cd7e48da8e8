"""Stationary-law, generator, and residual-check tests.

Analytic oracles
----------------
* uniform reference density on (0, 1): position mass exactly 1;
  rho = e^x gives e - 1; the disc of radius 0.7 gives pi * 0.49.
* inert factor exp(-(Gamma^{-1} y, y)): normalizer pi^(d/2) sqrt(det
  Gamma) and covariance Gamma / 2 (for Gamma = diag(2, 1): diag(1, 0.5)).
* generator point values: f = y_1 gives -(Gamma grad V)_1 / 2; f = x_1
  with sigma = I and constant rho gives -(grad V)_1 / 2 + y_1.
* smooth-wall position mass on (0, 1): independent adaptive quadrature
  (scipy) of exp(-V).
"""

import hashlib
import os

import numpy as np
import pytest
from scipy.integrate import quad

from inertdrift import (
    Ball,
    Box,
    CoefficientError,
    Ellipsoid,
    GeometryError,
    Interval,
    Potential,
    SmoothDistance,
    make_coefficients,
)
from inertdrift import stationary
from inertdrift.stationary import (
    BumpTestFunction,
    StationaryMeasure,
    _chord_bounds,
    _scan_grid,
    bump_basis,
    generator_apply,
    sample_stationary,
    stationarity_residual,
    write_residual_report,
)


@pytest.fixture(scope="module")
def unit_interval():
    return Interval(0.0, 1.0)


@pytest.fixture(scope="module")
def interval_cs(unit_interval):
    return make_coefficients("identity", unit_interval, gamma=[[1.0]])


@pytest.fixture(scope="module")
def wall_n2(unit_interval):
    return Potential(SmoothDistance(unit_interval), 2)


@pytest.fixture(scope="module")
def disc():
    return Ball([0.0, 0.0], 1.0)


@pytest.fixture(scope="module")
def disc_cs(disc):
    return make_coefficients("identity", disc, gamma=np.diag([2.0, 1.0]))


@pytest.fixture(scope="module")
def disc_wall_n2(disc):
    return Potential(SmoothDistance(disc), 2)


class _Coordinate:
    """f = x_i or y_i with analytic callbacks (unbounded, for point checks)."""

    def __init__(self, axis, in_y):
        self.axis, self.in_y = axis, in_y

    def value(self, x, y):
        t = np.atleast_2d(y if self.in_y else x)
        return t[:, self.axis]

    def grad_x(self, x, y):
        g = np.zeros_like(np.atleast_2d(x), dtype=float)
        if not self.in_y:
            g[:, self.axis] = 1.0
        return g

    def grad_y(self, x, y):
        g = np.zeros_like(np.atleast_2d(y), dtype=float)
        if self.in_y:
            g[:, self.axis] = 1.0
        return g

    def hess_x(self, x, y):
        m, d = np.atleast_2d(x).shape
        return np.zeros((m, d, d))


class _Constant:
    def __init__(self, c=3.7):
        self.c = c

    def value(self, x, y):
        return np.full(np.atleast_2d(x).shape[0], self.c)

    def grad_x(self, x, y):
        return np.zeros_like(np.atleast_2d(x), dtype=float)

    grad_y = grad_x

    def hess_x(self, x, y):
        m, d = np.atleast_2d(x).shape
        return np.zeros((m, d, d))


# ---------------------------------------------------------------------------
# normalizers
# ---------------------------------------------------------------------------


def test_position_normalizer_uniform_is_exact(interval_cs):
    sm = StationaryMeasure(interval_cs)
    assert sm.c_x == pytest.approx(1.0, abs=1e-12)
    assert sm.x_pdf(np.array([0.3])) == pytest.approx(1.0, abs=1e-12)
    assert sm.x_weight(np.array([-0.1])) == 0.0
    assert sm.x_weight(np.array([1.1])) == 0.0


def test_position_normalizer_exponential_density(unit_interval):
    cs = make_coefficients("exp_density", unit_interval, gamma=[[1.0]])
    sm = StationaryMeasure(cs)
    assert 1.0 / sm.c_x == pytest.approx(np.e - 1.0, rel=1e-12)


def test_position_normalizer_disc_area():
    ball = Ball([0.2, -0.1], 0.7)
    cs = make_coefficients("identity", ball, gamma=np.diag([2.0, 1.0]))
    sm = StationaryMeasure(cs)
    assert 1.0 / sm.c_x == pytest.approx(np.pi * 0.49, rel=1e-12)


def test_position_normalizer_box_volume():
    box = Box([0.0, 0.0], [1.0, 2.0])
    cs = make_coefficients("identity", box, gamma=np.diag([1.0, 1.0]))
    sm = StationaryMeasure(cs)
    assert 1.0 / sm.c_x == pytest.approx(2.0, rel=1e-12)


def test_position_normalizer_smooth_wall_matches_adaptive_quadrature(
    interval_cs, wall_n2, monkeypatch
):
    sm = StationaryMeasure(interval_cs, potential=wall_n2)
    ref, _ = quad(
        lambda t: wall_n2.boltzmann([t]),
        0.0,
        1.0,
        points=wall_n2.distance.breakpoints_1d,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    assert 1.0 / sm.c_x == pytest.approx(ref, rel=1e-11)
    # refinement stability
    monkeypatch.setattr(stationary, "NODES_PER_PANEL", 48)
    fine = StationaryMeasure(interval_cs, potential=wall_n2)
    assert fine.c_x == pytest.approx(sm.c_x, rel=1e-12)


def test_one_dimensional_ball_normalizer_equals_the_interval_one():
    # the same segment and wall: both integrate on [c - r, c + r] cut at the
    # cap edges c +- a, where delta is only C2
    masses = []
    for dom in (Ball([0.3], 1.0), Interval(-0.7, 1.3)):
        cs = make_coefficients("identity", dom, gamma=[[1.0]])
        pot = Potential(SmoothDistance(dom), 2)
        masses.append(1.0 / StationaryMeasure(cs, potential=pot).c_x)
    assert masses[0] == pytest.approx(masses[1], rel=1e-12, abs=0.0)


def test_smooth_wall_mass_increases_with_sharpness(interval_cs, unit_interval):
    masses = []
    for n in (1, 2, 4, 8):
        pot = Potential(SmoothDistance(unit_interval), n)
        masses.append(1.0 / StationaryMeasure(interval_cs, potential=pot).c_x)
    assert all(a < b for a, b in zip(masses, masses[1:]))
    assert masses[-1] < np.exp(-1.0)  # the pointwise ceiling


def test_smooth_wall_on_ellipsoid_has_no_radial_cut(monkeypatch):
    # the ellipsoid's delta has no centre cap (only the ball's has one)
    ell = Ellipsoid([0.0, 0.0], [1.0, 0.5])
    cs = make_coefficients("identity", ell, gamma=np.eye(2))
    pot = Potential(SmoothDistance(ell), 2)
    # coarse quadratures, to keep the test quick
    monkeypatch.setattr(stationary, "NODES_PER_PANEL", 8)
    monkeypatch.setattr(stationary, "N_ANGLES", 64)
    monkeypatch.setitem(stationary.RESIDUAL_NODES, 2, (16, 8))
    sm = StationaryMeasure(cs, potential=pot)
    # the mass at NODES_PER_PANEL = 24, N_ANGLES = 512
    assert 1.0 / sm.c_x == pytest.approx(1.38752032008e-4, rel=2e-9)
    f = bump_basis(ell, cs.gamma, count=1, seed=5)[0]
    assert abs(stationarity_residual(sm, f)) <= 1e-5
    off = StationaryMeasure(cs, potential=pot, v_scale=1.1)
    assert abs(stationarity_residual(off, f)) > 1e-2


def test_monte_carlo_normalizer_reports_standard_error(monkeypatch):
    box = Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    cs = make_coefficients("identity", box, gamma=np.eye(3))
    monkeypatch.setattr(stationary, "MC_SAMPLES", 100_000)
    sm = StationaryMeasure(cs)
    assert sm.c_x_standard_error is not None
    assert 1.0 / sm.c_x == pytest.approx(1.0, abs=4.0 * max(sm.c_x_standard_error, 1e-12))


def test_unbounded_domain_is_rejected():
    half = Interval(0.0, np.inf)
    cs = make_coefficients("identity", half, gamma=[[1.0]])
    with pytest.raises(CoefficientError, match="unbounded"):
        StationaryMeasure(cs)


def test_potential_on_another_domain_is_rejected(interval_cs):
    # a [0, 2] wall under [0, 1] coefficients would integrate to c_x = 13.26
    wide_wall = Potential(SmoothDistance(Interval(0.0, 2.0)), 2)
    with pytest.raises(CoefficientError, match="domain"):
        StationaryMeasure(interval_cs, potential=wide_wall)
    # an equal but distinct domain object is the same domain
    twin_wall = Potential(SmoothDistance(Interval(0.0, 1.0)), 2)
    assert twin_wall.domain is not interval_cs.domain
    assert StationaryMeasure(interval_cs, potential=twin_wall).c_x > 0.0


def test_inert_factor_normalizer_and_moments(disc_cs):
    sm = StationaryMeasure(disc_cs)
    assert sm.y_pdf(np.zeros(2)) == pytest.approx(1.0 / (np.pi * np.sqrt(2.0)),
                                                  rel=1e-14)
    assert np.allclose(sm.y_cov, np.diag([1.0, 0.5]))
    # per-axis quadrature of mass and second moment (diagonal Gamma factorizes)
    nodes, w = np.polynomial.legendre.leggauss(120)
    for g, expect in zip([2.0, 1.0], [1.0, 0.5]):
        span = 10.0 * np.sqrt(g / 2.0)
        t, ww = nodes * span, w * span
        dens = np.exp(-t * t / g) / np.sqrt(np.pi * g)
        assert np.sum(ww * dens) == pytest.approx(1.0, abs=1e-10)
        assert np.sum(ww * t * t * dens) == pytest.approx(expect, abs=1e-10)


def test_position_pdf_integrates_to_one(interval_cs, wall_n2):
    sm = StationaryMeasure(interval_cs, potential=wall_n2)
    val, _ = quad(
        lambda t: sm.x_pdf(np.array([[t]]))[0],
        0.0,
        1.0,
        points=wall_n2.distance.breakpoints_1d,
        limit=200,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    assert val == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def test_bump_vanishes_outside_support():
    f = BumpTestFunction(([0.2], [0.6]), ([-1.0], [1.0]))
    x = np.array([[0.1], [0.7], [0.2], [0.6]])
    y = np.array([[0.0], [0.0], [2.0], [-1.5]])
    assert np.all(f.value(x, y) == 0.0)
    assert np.all(f.grad_x(x, y) == 0.0)
    assert np.all(f.grad_y(x, y) == 0.0)
    assert np.all(f.hess_x(x, y) == 0.0)
    with pytest.raises(ValueError, match="lo < hi"):
        BumpTestFunction(([0.5], [0.5]), ([-1.0], [1.0]))


def test_bump_derivatives_match_finite_differences():
    f = BumpTestFunction(
        ([0.1, -0.3], [0.7, 0.5]), ([-1.2, -0.4], [0.8, 1.6])
    )
    rng = np.random.default_rng(9)
    x = rng.uniform([0.15, -0.25], [0.65, 0.45], size=(40, 2))
    y = rng.uniform([-1.1, -0.3], [0.7, 1.5], size=(40, 2))
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd_x = (f.value(x + e, y) - f.value(x - e, y)) / (2 * h)
        assert np.allclose(f.grad_x(x, y)[:, i], fd_x, atol=1e-7)
        fd_y = (f.value(x, y + e) - f.value(x, y - e)) / (2 * h)
        assert np.allclose(f.grad_y(x, y)[:, i], fd_y, atol=1e-7)
        for j in range(2):
            ej = np.zeros(2)
            ej[j] = h
            fd_h = (
                f.grad_x(x + ej, y)[:, i] - f.grad_x(x - ej, y)[:, i]
            ) / (2 * h)
            assert np.allclose(f.hess_x(x, y)[:, i, j], fd_h, atol=1e-5)


def test_bump_basis_is_deterministic_and_inside(disc):
    fns = bump_basis(disc, np.diag([2.0, 1.0]), count=6, seed=5)
    fns2 = bump_basis(disc, np.diag([2.0, 1.0]), count=6, seed=5)
    assert len(fns) == 6
    for f, f2 in zip(fns, fns2):
        (lo, hi), _ = f.support
        (lo2, hi2), _ = f2.support
        assert np.array_equal(lo, lo2) and np.array_equal(hi, hi2)
        corners = np.array(
            [[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]]
        )
        assert np.all(disc.signed_distance(corners) > 0.0)


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------


def test_generator_on_constants_is_zero(interval_cs, wall_n2):
    out = generator_apply(
        interval_cs, wall_n2, _Constant(), np.array([0.4]), np.array([0.3])
    )
    assert out == 0.0


def test_generator_coordinate_oracles(interval_cs, wall_n2):
    x = np.array([0.37])
    y = np.array([0.22])
    gv = wall_n2.grad(x)
    # f = y_1: only the inert-drift term survives
    got = generator_apply(interval_cs, wall_n2, _Coordinate(0, True), x, y)
    assert got == pytest.approx(-0.5 * (interval_cs.gamma @ gv)[0], rel=1e-14)
    # f = x_1 with sigma = I, constant rho: -(grad V)_1/2 + y_1
    got = generator_apply(interval_cs, wall_n2, _Coordinate(0, False), x, y)
    assert got == pytest.approx(-0.5 * gv[0] + y[0], rel=1e-14)
    # reflected family: no potential terms at interior points
    got = generator_apply(interval_cs, None, _Coordinate(0, True), x, y)
    assert got == 0.0
    got = generator_apply(interval_cs, None, _Coordinate(0, False), x, y)
    assert got == pytest.approx(y[0], rel=1e-14)


def test_generator_requires_hessian(interval_cs, wall_n2):
    class NoHess:
        def value(self, x, y):
            return np.zeros(1)

        grad_x = grad_y = value
        hess_x = None

    with pytest.raises(CoefficientError, match="hess"):
        generator_apply(
            interval_cs, wall_n2, NoHess(), np.array([0.4]), np.array([0.0])
        )


def test_generator_batch_matches_single(interval_cs, wall_n2):
    f = BumpTestFunction(([0.2], [0.8]), ([-1.5], [1.5]))
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.25, 0.75, size=(10, 1))
    ys = rng.uniform(-1.0, 1.0, size=(10, 1))
    batch = generator_apply(interval_cs, wall_n2, f, xs, ys)
    for i in range(10):
        one = generator_apply(interval_cs, wall_n2, f, xs[i], ys[i])
        assert one == pytest.approx(batch[i], rel=1e-14)


# ---------------------------------------------------------------------------
# the residual identity
# ---------------------------------------------------------------------------


def test_residual_vanishes_one_dimension(interval_cs, wall_n2):
    sm = StationaryMeasure(interval_cs, potential=wall_n2)
    for f in bump_basis(interval_cs.domain, interval_cs.gamma, count=6, seed=3):
        assert abs(stationarity_residual(sm, f)) <= 1e-6


def test_residual_vanishes_reflected_uniform(interval_cs):
    sm = StationaryMeasure(interval_cs)
    f = bump_basis(interval_cs.domain, interval_cs.gamma, count=1, seed=4)[0]
    assert abs(stationarity_residual(sm, f)) <= 1e-10


def test_residual_detects_perturbed_measure(interval_cs, wall_n2):
    sm = StationaryMeasure(interval_cs, potential=wall_n2, v_scale=1.1)
    res = [
        abs(stationarity_residual(sm, f))
        for f in bump_basis(interval_cs.domain, interval_cs.gamma, count=6, seed=3)
    ]
    assert max(res) > 10.0 * 1e-5


def test_residual_vanishes_two_dimensions(disc_cs, disc_wall_n2):
    sm = StationaryMeasure(disc_cs, potential=disc_wall_n2)
    for f in bump_basis(disc_cs.domain, disc_cs.gamma, count=3, seed=5):
        assert abs(stationarity_residual(sm, f)) <= 1e-4


def test_residual_rejects_bad_inputs(unit_interval, interval_cs, wall_n2):
    sm = StationaryMeasure(interval_cs, potential=wall_n2)
    crossing = BumpTestFunction(([0.5], [1.5]), ([-1.0], [1.0]))
    with pytest.raises(GeometryError, match="strictly inside"):
        stationarity_residual(sm, crossing)
    cs_var = make_coefficients("exp_density", unit_interval, gamma=[[1.0]])
    sm_var = StationaryMeasure(cs_var)
    f = BumpTestFunction(([0.2], [0.8]), ([-1.0], [1.0]))
    with pytest.raises(CoefficientError, match="constant rho"):
        stationarity_residual(sm_var, f)


def test_residual_refuses_three_dimensions(monkeypatch):
    # no node count was chosen above two dimensions
    box = Box([0.0] * 3, [1.0] * 3)
    cs = make_coefficients("identity", box, gamma=np.eye(3))
    monkeypatch.setattr(stationary, "MC_SAMPLES", 20_000)
    f = bump_basis(box, cs.gamma, count=1, seed=0)[0]
    with pytest.raises(ValueError, match="d <= 2"):
        stationarity_residual(StationaryMeasure(cs), f)


# ---------------------------------------------------------------------------
# sampling and reporting
# ---------------------------------------------------------------------------


def test_sampler_empty_and_negative(interval_cs):
    sm = StationaryMeasure(interval_cs)
    xs, ys = sample_stationary(sm, 0, seed=1)
    assert xs.shape == (0, 1) and ys.shape == (0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_stationary(sm, -3, seed=1)


def test_sampler_uniform_mean_hits_centroid(interval_cs):
    sm = StationaryMeasure(interval_cs)
    xs, _ = sample_stationary(sm, 20_000, seed=7)
    se = 1.0 / np.sqrt(12.0 * len(xs))
    assert abs(xs.mean() - 0.5) <= 3.0 * se
    assert np.all((xs > 0.0) & (xs < 1.0))


def test_sampler_inert_covariance(disc_cs):
    sm = StationaryMeasure(disc_cs)
    xs, ys = sample_stationary(sm, 40_000, seed=11)
    assert np.all(np.linalg.norm(xs, axis=1) < 1.0)
    cov = np.cov(ys.T)
    n = len(ys)
    for i, v in enumerate([1.0, 0.5]):
        assert abs(cov[i, i] - v) <= 3.0 * v * np.sqrt(2.0 / n)
    assert abs(cov[0, 1]) <= 3.0 * np.sqrt(0.5 / n)


def test_sampler_is_deterministic(disc_cs):
    sm = StationaryMeasure(disc_cs)
    xa, ya = sample_stationary(sm, 200, seed=3)
    xb, yb = sample_stationary(sm, 200, seed=3)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    xs, ys = sample_stationary(sm, 200, seed=np.random.SeedSequence(3))
    assert np.array_equal(xs, xa) and np.array_equal(ys, ya)


class _BoltzmannWall(Potential):
    """A wall whose Boltzmann factor is exp(-V) for a test's own batch
    callable V, for position laws no V_n gives."""

    def __init__(self, domain, V):
        super().__init__(SmoothDistance(domain), 1)
        self._V = V

    def boltzmann(self, x):
        return np.exp(-self._V(np.atleast_2d(np.asarray(x, dtype=float))))


def test_sampler_refuses_unresolvable_peak(unit_interval, interval_cs):
    # a 5e-5-wide spike hidden between envelope scan points, sitting on a
    # baseline the quadrature can integrate; proposals landing on the
    # spike must trip the envelope check rather than bias the draw
    c = 153.5 / 511.0

    def V(pts):
        peak = np.exp(-(((pts[:, 0] - c) / 5e-5) ** 2))
        return -np.log(1e-3 + peak)

    pot = _BoltzmannWall(unit_interval, V)
    sm = StationaryMeasure(interval_cs, potential=pot)
    with pytest.raises(CoefficientError, match="envelope"):
        sample_stationary(sm, 50_000, seed=2)


def test_sampler_refuses_hopeless_acceptance_rate(unit_interval, interval_cs):
    # wall-hugging exponential: resolvable by the wall-refined scan, but
    # carrying ~1e-5 of the proposal volume
    def V(pts):
        return pts[:, 0] / 1e-5

    pot = _BoltzmannWall(unit_interval, V)
    sm = StationaryMeasure(interval_cs, potential=pot)
    assert 1.0 / sm.c_x == pytest.approx(1e-5, rel=1e-10)
    with pytest.raises(CoefficientError, match="acceptance rate"):
        sample_stationary(sm, 50, seed=2)


def test_residual_report_roundtrip(tmp_path):
    path = tmp_path / "residuals.csv"
    write_residual_report(
        path,
        [("c1", "f0", 3e-7, 1e-5), ("c1", "f1", -2e-4, 1e-5)],
    )
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "config_id,f_id,residual,tolerance,pass"
    assert lines[1].startswith("c1,f0,") and lines[1].endswith(",1")
    assert lines[2].endswith(",0")
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# pinned quadrature and sampler outputs
# ---------------------------------------------------------------------------

GAMMA2 = [[2.0, 0.0], [0.0, 1.0]]
PINNED_DOMAINS = {
    "interval": (Interval(0.0, 1.0), [[1.0]]),
    "disc": (Ball([0.0, 0.0], 1.0), GAMMA2),
    "box": (Box([0.0, 0.0], [1.0, 2.0]), GAMMA2),
    "ellipsoid": (Ellipsoid([0.1, 0.0], [1.0, 0.5]), GAMMA2),
    "ball3": (Ball([0.0, 0.0, 0.0], 1.0), np.eye(3)),
}


def _pinned_measure(name, wall):
    dom, gamma = PINNED_DOMAINS[name]
    cs = make_coefficients("identity", dom, gamma=gamma)
    pot = None
    if wall:
        pot = Potential(SmoothDistance(dom), 2)
    return StationaryMeasure(cs, potential=pot)


# float.hex of c_x under the default settings, without and with the n = 2
# wall: the panel rule in 1-D and on the box, the polar rule on the disc and
# the ellipsoid, and Monte Carlo (with its standard error) on the 3-D ball
C_X_HEX = {
    ("interval", False): ("0x1.0000000000000p+0", None),
    ("interval", True): ("0x1.35a5980972da2p+6", None),
    ("disc", False): ("0x1.45f306dc9c884p-2", None),
    ("disc", True): ("0x1.153d78b06fe6bp+3", None),
    ("box", False): ("0x1.0000000000001p-1", None),
    ("box", True): ("0x1.0f29d0aa9d656p+6", None),
    ("ellipsoid", False): ("0x1.45f306dc9c884p-1", None),
    ("ellipsoid", True): ("0x1.c271a064a0641p+12", None),
    ("ball3", False): ("0x1.e99afe90c1ba3p-3", "0x1.9e0d820217614p-8"),
    ("ball3", True): ("0x1.8938cd6c9088cp+3", "0x1.75ff095c077bep-12"),
}


@pytest.mark.parametrize("name, wall", sorted(C_X_HEX))
def test_position_normalizer_is_pinned(name, wall):
    sm = _pinned_measure(name, wall)
    se = sm.c_x_standard_error
    assert (sm.c_x.hex(), None if se is None else se.hex()) == C_X_HEX[name, wall]


# float.hex of the five residuals of configs/residual_disc_n2.json
RESIDUAL_DISC_N2_HEX = [
    "0x1.8adfc4e478400p-26",
    "0x1.9601bfc6f5abcp-20",
    "-0x1.21fe6b86fc280p-23",
    "0x1.162ad4d3c7ba0p-23",
    "0x1.23580391c2040p-21",
]


@pytest.mark.slow
def test_residual_disc_n2_is_pinned():
    from inertdrift.cli import load_run_config

    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                        "residual_disc_n2.json")
    cfg = load_run_config(path)
    sm = StationaryMeasure(cfg.cs, potential=cfg.potential)
    fns = bump_basis(cfg.domain, cfg.cs.gamma, count=5, seed=3)
    got = [stationarity_residual(sm, f).hex() for f in fns]
    assert got == RESIDUAL_DISC_N2_HEX


def test_sampler_draw_is_pinned():
    x, y = sample_stationary(_pinned_measure("disc", True), 500, seed=17)
    assert (_sha256(x), _sha256(y)) == (
        "15ffa40f0c674aedc26b41315c6871dd96a80b8ee1e53d55260c91586179b8ea",
        "1486f3fefe8369a18221e8560908549e0493807b1b808b5866b475bceda045f0",
    )


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# chords of the marginal quadrature
# ---------------------------------------------------------------------------


def _exact_chord(name, axis, t):
    """Closed-form chord (lo, hi) of the slice x_axis = t, and whether the
    slice meets the open domain."""
    if name == "disc":
        h = np.sqrt(np.maximum(1.0 - t * t, 0.0))
        return -h, h, np.abs(t) < 1.0
    if name == "ellipsoid":  # center (0.1, 0), radii (1, 0.5)
        u = t - 0.1 if axis == 0 else t / 0.5
        h = np.sqrt(np.maximum(1.0 - u * u, 0.0))
        if axis == 0:
            return -0.5 * h, 0.5 * h, np.abs(u) < 1.0
        return 0.1 - h, 0.1 + h, np.abs(u) < 1.0
    side = (2.0, 1.0)[axis]  # box [0, 1] x [0, 2]
    return np.zeros_like(t), np.full_like(t, side), (t > 0.0) & (t < (1.0, 2.0)[axis])


CHORD_DOMAINS = {
    "disc": Ball([0.0, 0.0], 1.0),
    "ellipsoid": Ellipsoid([0.1, 0.0], [1.0, 0.5]),
    "box": Box([0.0, 0.0], [1.0, 2.0]),
}


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("name", sorted(CHORD_DOMAINS))
def test_chords_match_the_closed_form(name, axis):
    dom = CHORD_DOMAINS[name]
    lo, hi = (b[axis] for b in dom.bounding_box())
    # the marginal's own grid, which holds the tangent points (or the box
    # faces) lo and hi, plus slices outside the domain
    t = np.concatenate([_scan_grid(lo, hi, 4097), [lo - 0.1, hi + 0.3, lo - 1e-12]])
    s_lo, s_hi, ok = _chord_bounds(dom, axis, t)
    want_lo, want_hi, want_ok = _exact_chord(name, axis, t)
    if name == "box":
        # on a face the contact rule reports the whole side; the density is
        # zero there either way, off the open domain
        face = (t == lo) | (t == hi)
        assert np.all(ok[face]) and np.all(s_lo[face] == 0.0)
        assert np.all(s_hi[face] == want_hi[face])
        want_ok = want_ok | face
    else:
        assert not ok[np.isin(t, (lo, hi))].any()  # tangent lines are empty
    np.testing.assert_array_equal(ok, want_ok)
    np.testing.assert_allclose(s_lo[ok], want_lo[ok], rtol=0, atol=1e-12)
    np.testing.assert_allclose(s_hi[ok], want_hi[ok], rtol=0, atol=1e-12)
