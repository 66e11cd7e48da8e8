"""Tests for diffusion coefficients, inert-drift data, and wall potentials.

Oracles used here:
  * drift values are checked against hand-differentiated closed forms
    (for rho = e^x:  b = (log rho)'/2 = 1/2;  for A = diag(1+x1^2, 1):
    b = (x1, 0));
  * wall-potential values and slopes are frozen from the chain rule on
    V(x) = exp(1/(n*delta)) with delta(x) = x on the half-line;
  * analytic gradients are cross-checked with central finite differences
    computed inside the test, never with the module's own FD code.
"""

import math

import numpy as np
import pytest

from inertdrift.coefficients import (
    CoefficientError,
    CoefficientSet,
    Potential,
    PotentialOverflowError,
    make_coefficients,
)
from inertdrift.geometry import Ball, Box, Ellipsoid, Interval, SmoothDistance

# Frozen oracle values for the wall potential on the half-line (delta(x) = x),
# n = 1, at x = 0.5:   V = exp(2),   V' = -exp(2)/(1 * 0.5^2) = -4 exp(2).
WALL_VALUE_AT_HALF = 7.38905609893065
WALL_SLOPE_AT_HALF = -29.5562243957226

GAMMA_2D = [[2.0, 0.3], [0.3, 1.0]]


def central_diff(f, x, h):
    """Second-order central difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------

def test_identity_preset_has_zero_drift():
    cs = make_coefficients("identity", Ball([0.0, 0.0], 1.0), gamma=np.eye(2))
    pts = np.array([[0.0, 0.0], [0.3, -0.2], [0.7, 0.1]])
    assert np.all(cs.drift_b(pts) == 0.0)
    assert cs.is_constant_sigma and cs.is_constant_rho
    np.testing.assert_allclose(cs.a_matrix([0.3, 0.1]), np.eye(2))


def test_exp_density_drift_matches_half_log_slope():
    # analytic preset path: b = (log rho)'/2 = 1/2 exactly
    cs = make_coefficients("exp_density", Interval(0.0, 1.0), gamma=[[1.0]])
    for x in (0.1, 0.5, 0.93):
        np.testing.assert_allclose(cs.drift_b(x), [0.5], rtol=0, atol=1e-15)
    # finite-difference path on the same density, checked against the
    # hand-derived constant 1/2
    fd = CoefficientSet(
        Interval(0.0, 1.0),
        gamma=[[1.0]],
        rho=lambda p: np.exp(p[:, 0]),
    )
    pts = np.array([[0.2], [0.5], [0.77]])
    np.testing.assert_allclose(fd.drift_b(pts), 0.5, rtol=1e-6)


def test_finite_difference_drift_recovers_quadratic_diffusion_gradient():
    # A = diag(1 + x1^2, 1), rho = 1  =>  b = (d_1 a_11 / 2, 0) = (x1, 0)
    dom = Box([-1.0, -1.0], [1.0, 1.0])
    cs = CoefficientSet(dom, gamma=GAMMA_2D, sigma=_sigma_diag_1x2)
    pts = np.array([[0.3, 0.1], [-0.5, 0.4], [0.0, 0.0], [0.62, -0.7]])
    b = cs.drift_b(pts)
    np.testing.assert_allclose(b[:, 0], pts[:, 0], rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(b[:, 1], 0.0, atol=1e-8)


def test_finite_difference_drift_on_the_circle():
    # the reflected kernel lands on the circle; there both tangential stencil
    # points leave the disc by about h^2 / 2, within the boundary tolerance
    cs = CoefficientSet(Ball([0.0, 0.0], 1.0), gamma=GAMMA_2D,
                        sigma=_sigma_diag_1x2)
    rim = np.array([[-6.98959332e-06, 1.0], [0.6, -0.8], [1.0, 0.0]])
    rim /= np.linalg.norm(rim, axis=1)[:, None]
    b = cs.drift_b(rim)
    # the normal stencil is one-sided: its error is about h / 2 = 1e-5
    np.testing.assert_allclose(b[:, 0], rim[:, 0], rtol=2e-5, atol=1e-9)
    np.testing.assert_allclose(b[:, 1], 0.0, atol=1e-8)


def test_one_sided_stencil_near_boundary_flagged():
    cs = CoefficientSet(
        Interval(0.0, 1.0),
        gamma=[[1.0]],
        rho=lambda p: np.exp(p[:, 0]),
    )
    assert cs.diagnostics["one_sided_stencil_points"] == 0
    b = cs.drift_b(4e-6)  # x - h falls outside (0, 1): one-sided difference
    assert cs.diagnostics["one_sided_stencil_points"] == 1
    np.testing.assert_allclose(b, 0.5, rtol=1e-3)


def _sigma_diag_1x2(pts):
    """sigma(x) = diag(sqrt(1 + x_1^2), 1) on (m, 2) points."""
    out = np.zeros((len(pts), 2, 2))
    out[:, 0, 0] = np.sqrt(1.0 + pts[:, 0] ** 2)
    out[:, 1, 1] = 1.0
    return out


def test_ellipsoid_drift_searches_only_outside_stencil_points(monkeypatch):
    # the drift at interior points and at boundary landing points (as the
    # reflected kernel makes them), whose +-h stencils leave the closure
    dom = Ellipsoid([0.1, 0.0], [1.0, 0.5])
    cs = CoefficientSet(dom, gamma=GAMMA_2D, sigma=_sigma_diag_1x2)
    rng = np.random.default_rng(8)
    interior = dom.sample_interior(40, rng)
    lo, hi = dom.bounding_box()
    far = lo + (hi - lo) * rng.uniform(-0.2, 1.2, size=(400, 2))
    far = far[dom._exit(far)[0]]
    land = dom._land(far, (dom.centroid - far) * 0.5)[0]
    pts = np.concatenate([interior, land])
    h = cs.fd_step
    stencil = np.concatenate([pts + s * h * e for s in (1.0, -1.0)
                              for e in np.eye(2)])
    out = dom._exit(stencil)[0]
    assert out.any() and not out.all()
    assert np.array_equal(dom._in_closure(stencil),
                          dom._sd(stencil) >= -dom.tol_bd)

    searched = []
    real_sd = Ellipsoid._sd
    monkeypatch.setattr(Ellipsoid, "_sd", lambda self, p: (
        searched.append(p.copy()), real_sd(self, p))[1])
    b_new = cs.drift_b(pts)
    monkeypatch.undo()
    # the distance sees the stencil points outside the closure, and no other
    seen = np.concatenate(searched)
    assert dom._exit(seen)[0].all()
    assert len(seen) == np.count_nonzero(out)

    # the rule before: the distance of every stencil point
    monkeypatch.setattr(Ellipsoid, "_in_closure",
                        lambda self, p: self._sd(p) >= -self.tol_bd)
    b_old = cs.drift_b(pts)
    assert np.array_equal(b_new, b_old)
    assert cs.diagnostics["one_sided_stencil_points"] > 0


# ---------------------------------------------------------------------------
# conormal and inert field
# ---------------------------------------------------------------------------

def test_conormal_directions_on_the_ball():
    dom = Ball([0.0, 0.0], 1.0)
    ident = make_coefficients("identity", dom, gamma=np.eye(2))
    np.testing.assert_allclose(ident.conormal_u([0.0, 1.0]), [0.0, -1.0], atol=1e-12)

    double = CoefficientSet(dom, gamma=np.eye(2), sigma=np.sqrt(2.0) * np.eye(2))
    np.testing.assert_allclose(double.conormal_u([0.0, 1.0]), [0.0, -2.0], atol=1e-12)

    aniso = make_coefficients("anisotropic", dom, gamma=np.eye(2), a_diag=[2.0, 1.0])
    np.testing.assert_allclose(aniso.conormal_u([1.0, 0.0]), [-2.0, 0.0], atol=1e-12)

    # uniform ellipticity: u . n >= lambda_min for the full convention
    th = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    bdry = np.column_stack([np.cos(th), np.sin(th)])
    u = aniso.conormal_u(bdry)
    n = dom.inward_normal(bdry)
    dots = np.sum(u * n, axis=1)
    assert dots.min() >= aniso.lambda_bounds[0] - 1e-12


def test_inert_field_variants():
    dom = Ball([0.0, 0.0], 1.0)
    gn = CoefficientSet(dom, gamma=GAMMA_2D, inert_field="gamma_normal")
    np.testing.assert_allclose(gn.inert_v([1.0, 0.0]), [-2.0, -0.3], atol=1e-12)

    ac = make_coefficients(
        "anisotropic", dom, gamma=np.eye(2), a_diag=[2.0, 1.0],
        inert_field="a0_conormal", a0=0.7,
    )
    np.testing.assert_allclose(ac.inert_v([1.0, 0.0]), [-1.4, 0.0], atol=1e-12)

    custom = CoefficientSet(
        dom, gamma=np.eye(2),
        inert_field=lambda p: np.broadcast_to([0.0, 1.0], p.shape)
    )
    np.testing.assert_allclose(custom.inert_v([1.0, 0.0]), [0.0, 1.0])
    # batched evaluation keeps shape
    two = custom.inert_v(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert two.shape == (2, 2)


# ---------------------------------------------------------------------------
# validation at construction
# ---------------------------------------------------------------------------

def test_gamma_must_be_symmetric_positive_definite():
    dom = Interval(0.0, 1.0)
    with pytest.raises(CoefficientError, match="gamma"):
        CoefficientSet(Ball([0.0, 0.0], 1.0), gamma=[[1.0, 0.2], [0.0, 1.0]])
    with pytest.raises(CoefficientError, match="gamma"):
        CoefficientSet(Ball([0.0, 0.0], 1.0), gamma=[[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(CoefficientError, match="gamma"):
        CoefficientSet(dom, gamma=[[-1.0]])


def test_gamma_shape_and_first_non_finite_entry_are_named():
    disc = Ball([0.0, 0.0], 1.0)
    with pytest.raises(CoefficientError,
                       match=r"^gamma must be a \(2, 2\) matrix, got shape \(1, 2\)$"):
        CoefficientSet(disc, gamma=[[1.0, 0.0]])
    for gamma, entry in (([[1.0, 0.0], [0.0, math.inf]], "(1, 1) is inf"),
                         ([[1.0, math.nan], [-math.inf, 1.0]], "(0, 1) is nan")):
        with pytest.raises(CoefficientError) as exc:
            CoefficientSet(disc, gamma=gamma)
        assert str(exc.value) == "gamma must be finite; entry %s" % entry


@pytest.mark.parametrize("a0", [float("inf"), -float("inf"), float("nan")])
def test_a0_must_be_a_finite_number(a0):
    with pytest.raises(CoefficientError, match="a0 must be a finite number"):
        CoefficientSet(Interval(0.0, 1.0), gamma=[[1.0]],
                       inert_field="a0_conormal", a0=a0)


def test_gamma_solve_matches_direct_inverse():
    cs = CoefficientSet(Ball([0.0, 0.0], 1.0), gamma=GAMMA_2D)
    rng = np.random.default_rng(7)
    ys = rng.normal(size=(5, 2))
    sol = cs.gamma_solve(ys)
    resid = ys - sol @ np.asarray(GAMMA_2D).T
    assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(ys)
    np.testing.assert_allclose(sol, ys @ np.linalg.inv(cs.gamma).T, atol=1e-13)
    one = cs.gamma_solve(ys[0])
    np.testing.assert_allclose(one, sol[0])


def test_rho_must_be_positive_on_grid():
    with pytest.raises(CoefficientError, match="rho"):
        CoefficientSet(
            Interval(0.0, 1.0), gamma=[[1.0]], rho=lambda p: p[:, 0] - 2.0
        )
    cs = make_coefficients("exp_density", Interval(0.0, 1.0), gamma=[[1.0]])
    rmin, rmax = cs.rho_bounds
    assert 1.0 <= rmin <= rmax <= math.e


def test_degenerate_sigma_rejected():
    with pytest.raises(CoefficientError, match="elliptic"):
        CoefficientSet(
            Ball([0.0, 0.0], 1.0),
            gamma=np.eye(2),
            sigma=np.array([[0.0, 0.0], [0.0, 1.0]]),
        )


def test_ellipticity_bounds_recorded():
    ident = make_coefficients("identity", Ball([0.0, 0.0], 1.0), gamma=np.eye(2))
    np.testing.assert_allclose(ident.lambda_bounds, (1.0, 1.0))
    aniso = make_coefficients(
        "anisotropic", Ball([0.0, 0.0], 1.0), gamma=np.eye(2), a_diag=[2.0, 0.5]
    )
    np.testing.assert_allclose(aniso.lambda_bounds, (0.5, 2.0))


def test_unknown_preset_and_bad_inert_field_raise():
    dom = Interval(0.0, 1.0)
    with pytest.raises(CoefficientError, match="preset"):
        make_coefficients("gaussian", dom, gamma=[[1.0]])
    with pytest.raises(CoefficientError, match="a_diag"):
        make_coefficients("anisotropic", dom, gamma=[[1.0]])
    # numbers only: strings, booleans and None are not read as numbers
    disc = Ball([0.0, 0.0], 1.0)
    for bad in (["1", "2"], [1.0, "2"], [True, True], [1.0, None], [[1.0], 2.0]):
        with pytest.raises(CoefficientError, match="a_diag"):
            make_coefficients("anisotropic", disc, gamma=np.eye(2), a_diag=bad)
    ints = make_coefficients("anisotropic", disc, gamma=np.eye(2), a_diag=[2, 1])
    np.testing.assert_array_equal(ints.sigma([0.0, 0.0]), np.diag([np.sqrt(2.0), 1.0]))
    with pytest.raises(CoefficientError, match="inert_field"):
        CoefficientSet(dom, gamma=[[1.0]], inert_field="mystery")


# ---------------------------------------------------------------------------
# wall potential
# ---------------------------------------------------------------------------

def half_line_potential(n=1):
    sd = SmoothDistance(Interval(0.0, math.inf))
    return Potential(sd, n)


def test_wall_potential_frozen_point_values():
    pot = half_line_potential(n=1)
    assert pot.value(0.5) == pytest.approx(WALL_VALUE_AT_HALF, rel=1e-13)
    assert pot.grad(0.5)[0] == pytest.approx(WALL_SLOPE_AT_HALF, rel=1e-13)
    # batched shapes
    vals = pot.value(np.array([[0.5], [1.0], [2.0]]))
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(math.e, rel=1e-13)


def test_wall_gradient_matches_central_differences():
    sd = SmoothDistance(Interval(0.0, 1.0))
    pot = Potential(sd, 2)
    h = 1e-5
    for x in (0.2, 0.35, 0.5, 0.65, 0.8):
        fd = central_diff(lambda p: pot.value(p), np.array([x]), h)
        an = pot.grad(x)
        assert abs(fd[0] - an[0]) <= 1e-6 * max(1.0, abs(an[0]))

    ball = SmoothDistance(Ball([0.0, 0.0], 1.0))
    pot2 = Potential(ball, 1)
    rng = np.random.default_rng(11)
    for _ in range(8):
        th = rng.uniform(0.0, 2.0 * np.pi)
        r = rng.uniform(0.25, 0.7)
        x = np.array([r * math.cos(th), r * math.sin(th)])
        fd = central_diff(lambda p: pot2.value(p), x, h)
        an = pot2.grad(x)
        denom = max(1.0, float(np.linalg.norm(an)))
        assert np.linalg.norm(fd - an) <= 1e-6 * denom


def test_boltzmann_factor_monotone_in_regularization():
    sd = SmoothDistance(Interval(0.0, 1.0))
    xs = np.linspace(0.05, 0.95, 19)[:, None]
    prev = Potential(sd, 1).boltzmann(xs)
    for n in (2, 4, 8):
        cur = Potential(sd, n).boltzmann(xs)
        assert np.all(cur >= prev)
        assert np.any(cur > prev)
        prev = cur
    assert np.all(prev <= math.exp(-1.0))


def test_boltzmann_factor_bounded_and_defined_up_to_boundary():
    sd = SmoothDistance(Ball([0.0, 0.0], 1.0))
    pot = Potential(sd, 3)
    # on and extremely near the boundary: defined, equal to zero
    assert pot.boltzmann([1.0, 0.0]) == 0.0
    assert pot.boltzmann([1.0 - 1e-9, 0.0]) == 0.0
    inside = pot.boltzmann([0.2, 0.1])
    assert 0.0 < inside <= math.exp(-1.0)


def test_wall_gradient_odd_symmetry_on_interval():
    sd = SmoothDistance(Interval(0.0, 1.0))
    pot = Potential(sd, 3)
    for x in (0.15, 0.3, 0.45, 0.5):
        left = pot.grad(x)[0]
        right = pot.grad(1.0 - x)[0]
        assert left == pytest.approx(-right, rel=1e-12, abs=1e-12)


def test_wall_gradient_vanishes_for_weak_regularization():
    slopes = [abs(half_line_potential(n=n).grad(0.5)[0]) for n in (10, 100, 10000)]
    assert slopes[0] > slopes[1] > slopes[2]
    assert abs(half_line_potential(n=10 ** 6).grad(0.5)[0]) <= 1e-5


def test_potential_overflow_raises_near_boundary():
    pot = half_line_potential(n=1)
    with pytest.raises(PotentialOverflowError, match="potential overflow"):
        pot.value(1e-4)  # exponent 1/(n*delta) = 1e4 overflows exp
    with pytest.raises(PotentialOverflowError, match="potential overflow"):
        pot.grad(1e-4)
    deep = half_line_potential(n=10 ** 16)
    with pytest.raises(PotentialOverflowError, match="potential overflow"):
        deep.value(5e-13)  # small exponent, but distance is under the floor


def test_wall_potential_refuses_a_bad_distance_or_index():
    sd = SmoothDistance(Interval(0.0, 1.0))
    with pytest.raises(CoefficientError, match="SmoothDistance"):
        Potential(Interval(0.0, 1.0), 2)
    for n in (0, 2.5):
        with pytest.raises(CoefficientError, match="positive integer"):
            Potential(sd, n)
    assert Potential(sd, 2.0).n == 2 and Potential.kind == "regularized_vn"


def test_per_point_and_batch_callables_agree_and_take_empty_batches():
    dom = Ball([0.0, 0.0], 1.0)
    calls = []

    def sigma_batch(pts):
        calls.append(pts.shape)
        s = np.zeros((pts.shape[0], 2, 2))
        s[:, 0, 0] = np.sqrt(1.0 + pts[:, 0] * pts[:, 0])
        s[:, 0, 1] = 0.1 * pts[:, 1]
        s[:, 1, 1] = 1.0
        return s

    def rho_batch(pts):
        return 1.0 + 0.5 * pts[:, 0] * pts[:, 0]

    def field_batch(pts):
        return np.column_stack([2.0 * pts[:, 0], pts[:, 1] - 0.25])

    cs = CoefficientSet(dom, gamma=GAMMA_2D, sigma=sigma_batch, rho=rho_batch,
                        inert_field=field_batch)
    pot = Potential(SmoothDistance(dom), 2)

    def evaluate(probe):
        return [cs.sigma(probe), cs.rho(probe), cs.inert_v(probe),
                pot.value(probe), pot.grad(probe)]

    pts = Ball([0.0, 0.0], 0.9).sample_interior(17, np.random.default_rng(3))
    empty = np.zeros((0, 2))
    for probe, shapes in ((pts, [(17, 2, 2), (17,), (17, 2), (17,), (17, 2)]),
                          (empty, [(0, 2, 2), (0,), (0, 2), (0,), (0, 2)])):
        vals = evaluate(probe)
        assert [v.shape for v in vals] == shapes
        assert all(v.dtype == np.float64 for v in vals)
    # one call per batch, none per point
    calls.clear()
    batch = evaluate(pts)
    assert calls == [(17, 2)]
    # a single point is a batch of one, with the batch's values
    for i, p in enumerate(pts):
        for one, many in zip(evaluate(p), batch):
            np.testing.assert_array_equal(one, many[i])
    # an int result comes back as float64 too
    ints = CoefficientSet(dom, gamma=GAMMA_2D, rho=lambda p: np.full(len(p), 2))
    assert ints.rho(pts[:3]).dtype == np.float64
