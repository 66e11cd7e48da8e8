"""Geometry tests: signed distance, normals, projection, smooth distance.

Oracles are independent of the implementation: brute-force face scans for the
box, level-function algebra for the ellipsoid, dense grid comparison against
the true distance for the sandwich constants, and central finite differences
for gradients.
"""

import numpy as np
import pytest

from inertdrift.geometry import (
    Ball,
    Box,
    Ellipsoid,
    GeometryError,
    Interval,
    SmoothDistance,
    make_domain,
)


def brute_force_box_distance(lo, hi, x):
    """Oracle: interior distance to a box boundary = min over the 2d faces."""
    lo, hi, x = map(np.asarray, (lo, hi, x))
    return min(np.min(x - lo), np.min(hi - x))


def fd_gradient(fn, x, h):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2 * h)
    return g


DOMAINS = [
    Interval(0.0, 1.0),
    Ball(np.array([0.0, 0.0]), 1.0),
    Box(np.array([0.0, -1.0]), np.array([1.0, 2.0])),
    Ellipsoid(np.array([0.5, 0.0]), np.array([2.0, 1.0])),
]


# ---------------------------------------------------------------------------
# signed distance
# ---------------------------------------------------------------------------

def test_signed_distance_examples():
    assert Ball([0.0, 0.0], 1.0).signed_distance([0.6, 0.0]) == pytest.approx(0.4, abs=1e-15)
    assert Interval(0, 1).signed_distance(0.25) == pytest.approx(0.25, abs=1e-15)
    box = Box([0.0, 0.0], [1.0, 1.0])
    x = np.array([0.5, 0.9])
    assert box.signed_distance(x) == pytest.approx(
        brute_force_box_distance([0, 0], [1, 1], x), abs=1e-14
    )


def test_box_signed_distance_matches_face_scan():
    box = Box([0.0, -1.0], [2.0, 1.0])
    rng = np.random.default_rng(7)
    pts = rng.uniform([0.0, -1.0], [2.0, 1.0], size=(200, 2))
    for x in pts:
        assert box.signed_distance(x) == pytest.approx(
            brute_force_box_distance([0, -1], [2, 1], x), abs=1e-13
        )


def test_box_signed_distance_outside_is_euclidean():
    box = Box([0.0, 0.0], [1.0, 1.0])
    # corner region: nearest point is the corner itself
    assert box.signed_distance([2.0, 2.0]) == pytest.approx(-np.sqrt(2.0), abs=1e-14)
    assert box.signed_distance([0.5, -0.3]) == pytest.approx(-0.3, abs=1e-14)


def test_ellipsoid_signed_distance_against_boundary_minimization():
    from scipy.optimize import minimize_scalar

    ell = Ellipsoid([0.0, 0.0], [2.0, 1.0])
    theta = np.linspace(0, 2 * np.pi, 20001)[:-1]
    bd = np.stack([2.0 * np.cos(theta), np.sin(theta)], axis=1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform([-2.5, -1.5], [2.5, 1.5])
        # oracle: coarse scan for the nearest parameter, then 1D refinement
        j = int(np.argmin(np.linalg.norm(bd - x, axis=1)))
        t0 = theta[j]

        def dist(t):
            return np.hypot(2.0 * np.cos(t) - x[0], np.sin(t) - x[1])

        res = minimize_scalar(
            dist, bounds=(t0 - 2e-3, t0 + 2e-3), method="bounded",
            options={"xatol": 1e-14},
        )
        oracle = float(res.fun)
        inside = (x[0] / 2.0) ** 2 + x[1] ** 2 < 1.0
        want = oracle if inside else -oracle
        assert ell.signed_distance(x) == pytest.approx(want, abs=1e-10)


def test_inside_consistent_with_signed_distance():
    rng = np.random.default_rng(11)
    for dom in DOMAINS:
        lo, hi = dom.bounding_box()
        pts = rng.uniform(lo - 0.3, hi + 0.3, size=(500, dom.d))
        sd = dom.signed_distance(pts)
        assert np.array_equal(dom.inside(pts), sd > 0)


def test_non_finite_point_rejected():
    with pytest.raises(GeometryError):
        Ball([0.0, 0.0], 1.0).signed_distance([np.nan, 0.0])


# ---------------------------------------------------------------------------
# inward normals
# ---------------------------------------------------------------------------

def test_inward_normal_examples():
    assert np.allclose(Ball([0.0, 0.0], 1.0).inward_normal([1.0, 0.0]), [-1.0, 0.0])
    assert Interval(0, 1).inward_normal(0.0) == pytest.approx(1.0)
    assert Interval(0, 1).inward_normal(1.0) == pytest.approx(-1.0)
    # oracle: normalized gradient of the level function at (2, 0) is (1, 0) outward
    ell = Ellipsoid([0.0, 0.0], [2.0, 1.0])
    assert np.allclose(ell.inward_normal([2.0, 0.0]), [-1.0, 0.0])


def test_inward_normal_points_inward_and_unit():
    rng = np.random.default_rng(5)
    for dom in DOMAINS:
        pts = dom.sample_interior(40, rng)
        bd = dom.project_to_boundary(pts)
        n = dom.inward_normal(bd)
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)
        eps = 1e-6 * dom.reference_length
        sd_in = dom.signed_distance(bd + eps * n)
        sd_on = dom.signed_distance(bd)
        assert np.all(sd_in > sd_on)


def test_inward_normal_far_point_errors():
    with pytest.raises(GeometryError):
        Ball([0.0, 0.0], 1.0).inward_normal([0.5, 0.0])


def test_box_corner_normal_is_averaged():
    box = Box([0.0, 0.0], [1.0, 1.0])
    n = box.inward_normal([0.0, 0.0])
    assert np.allclose(n, [1.0 / np.sqrt(2), 1.0 / np.sqrt(2)])
    n = box.inward_normal([1.0, 0.5])
    assert np.allclose(n, [-1.0, 0.0])


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_projection_lands_on_boundary_and_is_idempotent():
    rng = np.random.default_rng(13)
    for dom in DOMAINS:
        lo, hi = dom.bounding_box()
        pts = np.vstack(
            [dom.sample_interior(30, rng), rng.uniform(lo - 0.4, hi + 0.4, size=(30, dom.d))]
        )
        bd = dom.project_to_boundary(pts)
        assert np.all(np.abs(dom.signed_distance(bd)) <= 10 * dom.tol_bd)
        bd2 = dom.project_to_boundary(bd)
        assert np.all(np.linalg.norm(bd2 - bd, axis=-1) <= 10 * dom.tol_bd)


def test_ball_projection_is_radial():
    ball = Ball([1.0, -2.0], 1.5)
    x = np.array([1.9, -2.0])
    assert np.allclose(ball.project_to_boundary(x), [2.5, -2.0])


# ---------------------------------------------------------------------------
# smooth distance: sandwich, gradient, constants
# ---------------------------------------------------------------------------

def test_smooth_distance_interval_examples():
    rd = SmoothDistance(Interval(0.0, 1.0))
    # outside the center cap the smooth distance equals the exact distance
    assert rd.value(0.3) == pytest.approx(0.3, abs=1e-15)
    assert rd.grad(0.3) == pytest.approx(1.0, abs=1e-15)
    assert rd.value(0.8) == pytest.approx(0.2, abs=1e-15)
    assert rd.grad(0.8) == pytest.approx(-1.0, abs=1e-15)


def test_smooth_distance_ball_equals_distance_outside_cap():
    dom = Ball([0.0, 0.0], 1.0)
    rd = SmoothDistance(dom)
    rng = np.random.default_rng(2)
    pts = dom.sample_interior(2000, rng)
    r = np.linalg.norm(pts, axis=1)
    outside_cap = r >= rd.cap_fraction * dom.radius
    dd = dom.signed_distance(pts[outside_cap])
    assert np.allclose(rd.value(pts[outside_cap]), dd, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_smooth_distance_sandwich_10k_points(dom):
    rd = SmoothDistance(dom)
    rng = np.random.default_rng(17)
    pts = dom.sample_interior(10_000, rng)
    delta = rd.value(pts)
    dd = dom.signed_distance(pts)
    c1, c2 = rd.c1, rd.c2
    assert np.all(delta >= c1 * dd - 1e-12 * dom.reference_length)
    assert np.all(delta <= c2 * dd + 1e-12 * dom.reference_length)


def test_box_measured_constants_grid_scan():
    dom = Box([0.0, 0.0], [1.0, 2.0])
    rd = SmoothDistance(dom)
    rng = np.random.default_rng(23)
    pts = dom.sample_interior(10_000, rng)
    ratios = rd.value(pts) / dom.signed_distance(pts)
    c1, c2 = rd.c1, rd.c2
    assert c1 <= ratios.min() and ratios.max() <= c2
    # declared constants are meaningful, not vacuous
    assert c1 >= 0.5 and c2 <= 1.5


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_smooth_distance_gradient_matches_central_differences(dom):
    rd = SmoothDistance(dom)
    h = 1e-5 * dom.diameter
    rng = np.random.default_rng(29)
    pts = dom.sample_interior(300, rng)
    # stay outside a boundary collar so the FD stencil remains interior; the
    # box softmin's curvature scales like 1/(boundary distance), so its
    # certification collar is proportional to the diameter (documented)
    collar = 0.04 * dom.diameter if dom.kind == "box" else 4 * h
    keep = dom.signed_distance(pts) > collar
    pts = pts[keep]
    g = rd.grad(pts)
    for x, gx in zip(pts, g):
        fd = fd_gradient(lambda p: rd.value(p), x, h)
        denom = max(np.linalg.norm(fd), 1e-12)
        assert np.linalg.norm(gx - fd) / denom <= 1e-6


def test_smooth_distance_rejects_exterior_point():
    rd = SmoothDistance(Ball([0.0, 0.0], 1.0))
    with pytest.raises(GeometryError):
        rd.value([2.0, 0.0])
    with pytest.raises(GeometryError):
        rd.grad([2.0, 0.0])


def test_halfline_smooth_distance_is_exact():
    rd = SmoothDistance(Interval(0.0, np.inf))
    assert rd.value(3.7) == pytest.approx(3.7, abs=0)
    assert rd.grad(3.7) == pytest.approx(1.0, abs=0)
    assert (rd.c1, rd.c2) == (1.0, 1.0)


def _separate_formulas(rd, pts):
    """Reference: delta and grad delta of the interval, half-line and ball
    from separate cap functions, phi(s) and phi'(s)/s, each recomputing s;
    of the box from the power-mean soft minimum and its derivative; of the
    ellipsoid from phi / g and the quotient rule, each recomputing phi."""
    dom = rd.domain
    if dom.kind == "box":
        beta = rd.sharpness
        f = np.concatenate([pts - dom.lo, dom.hi - pts], axis=1)
        fmin = f.min(axis=1)
        val = fmin * np.sum((fmin[:, None] / f) ** beta, axis=1) ** (-1.0 / beta)
        grad = np.zeros_like(pts)
        for i in range(dom.d):
            grad[:, i] += (val / (pts[:, i] - dom.lo[i])) ** (beta + 1.0)
            grad[:, i] -= (val / (dom.hi[i] - pts[:, i])) ** (beta + 1.0)
        return val, grad
    if dom.kind == "ellipsoid":
        c, r, w = dom.center, dom.radii, rd._scale

        def phi_of(x):
            return 1.0 - np.sum(((x - c) / r) ** 2, axis=1)

        gphi = -2.0 * (pts - c) / r**2
        g = np.sqrt(np.sum(gphi**2, axis=1) + (2.0 * phi_of(pts) / w) ** 2)
        dg = (8.0 * (pts - c) / r**4
              + (8.0 / w**2) * phi_of(pts)[:, None] * gphi) / (2.0 * g[:, None])
        return (phi_of(pts) / g,
                gphi / g[:, None] - (phi_of(pts) / g**2)[:, None] * dg)
    if dom.kind == "interval" and dom.unbounded:
        return pts[:, 0] - dom.lo, np.ones_like(pts)
    a = rd.cap_fraction * dom.inradius

    def cap_phi(s):
        inside = s < a
        return np.where(inside, 3 * a / 8 + 3 * s**2 / (4 * a) - s**4 / (8 * a**3), s)

    def cap_dphi_over_s(s):
        inside = s < a
        with np.errstate(divide="ignore", invalid="ignore"):
            outer = np.where(s > 0, 1.0 / np.where(s > 0, s, 1.0), 0.0)
        return np.where(inside, 3.0 / (2 * a) - s**2 / (2 * a**3), outer)

    if dom.kind == "interval":
        u = pts[:, 0] - (dom.lo + dom.hi) / 2.0
        s = np.abs(u)
        return dom.inradius - cap_phi(s), (-cap_dphi_over_s(s) * u)[:, None]
    u = pts - dom.center
    s = np.linalg.norm(u, axis=1)
    return dom.radius - cap_phi(s), -cap_dphi_over_s(s)[:, None] * u


def _around(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


FUSED_CASES = [
    # centre -1 + 1 = 0, cap radius exactly 0.1, endpoints at -1 and 1
    (Interval(-1.0, 1.0),
     [0.0, -0.0] + _around(0.1) + _around(-0.1) + [0.5, -0.7]
     + [np.nextafter(-1.0, 0.0), np.nextafter(1.0, 0.0)]),
    (Interval(0.0, 1.0),
     [0.5, 0.55, 0.45, 0.3, 0.8, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]
     + _around(0.5 + 0.05) + _around(0.5 - 0.05)),
    (Interval(0.0, np.inf), [0.0, -0.0, np.nextafter(0.0, 1.0), 0.5, 3.7, 1e300]),
    (Ball([0.0, 0.0], 1.0),
     [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]]
     + [[v, 0.0] for v in _around(0.1)] + [[0.0, -v] for v in _around(0.1)]
     + [[np.nextafter(1.0, 0.0), 0.0], [0.0, -np.nextafter(1.0, 0.0)],
        [0.6, -0.7], [0.03, 0.04]]),
    (Ball([0.3, -0.2, 1.0], 2.5),
     [[0.3, -0.2, 1.0], [0.55, -0.2, 1.0], [0.3, -0.2, 1.0 + 0.25],
      [0.3, -0.2, np.nextafter(3.5, 0.0)], [1.0, 0.5, -0.5]]),
    # centre, next to faces, edges and corners, and a diagonal point
    (Box([0.0, 0.0], [1.0, 2.0]),
     [[0.5, 1.0], [np.nextafter(0.0, 1.0), 1.0], [0.5, np.nextafter(2.0, 0.0)],
      [1e-3, 1e-3], [np.nextafter(1.0, 0.0), np.nextafter(2.0, 0.0)],
      [0.25, 0.5], [0.9, 0.05], [0.5, 1.5]]),
    (Ellipsoid([0.1, 0.0], [1.0, 0.5]),
     [[0.1, 0.0], [0.1, np.nextafter(0.5, 0.0)], [1.0999, 0.0], [-0.5, 0.3],
      [0.6, -0.4], [0.1 + 1e-9, 1e-9], [0.1, -0.25]]),
]


@pytest.mark.parametrize("dom, pts", FUSED_CASES,
                         ids=["interval-sym", "interval", "halfline", "disc", "ball3",
                              "box", "ellipsoid"])
def test_fused_smooth_distance_matches_separate_formulas_bitwise(dom, pts):
    rd = SmoothDistance(dom)
    pts = np.asarray(pts, dtype=float).reshape(-1, dom.d)
    value, grad = rd._value_and_grad(pts)
    ref_value, ref_grad = _separate_formulas(rd, pts)
    # bit patterns, so that the sign of a zero counts too
    assert np.array_equal(value.view(np.int64), ref_value.view(np.int64))
    assert np.array_equal(grad.view(np.int64), ref_grad.view(np.int64))
    assert np.array_equal(rd._value(pts).view(np.int64), value.view(np.int64))
    assert np.array_equal(rd._grad(pts).view(np.int64), grad.view(np.int64))
    assert np.all(np.isfinite(grad))
    if dom.kind != "interval" or not dom.unbounded:
        centre = np.all(pts == dom.centroid, axis=1)
        assert centre.any() and np.all(grad[centre] == 0.0)


@pytest.mark.parametrize("dom, pts", FUSED_CASES,
                         ids=["interval-sym", "interval", "halfline", "disc", "ball3",
                              "box", "ellipsoid"])
def test_smooth_distance_checks_closure_without_the_distance_search(dom, pts):
    # value and grad ask the domain's closure test, not the signed distance
    # (the full nearest-point search on an ellipsoid): closure points give
    # the formulas' bits, and NaN or outside points are refused
    rd = SmoothDistance(dom)
    pts = np.asarray(pts, dtype=float).reshape(-1, dom.d)
    value = np.maximum(rd._value(pts), 0.0)
    assert np.array_equal(rd.value(pts).view(np.int64), value.view(np.int64))
    assert np.array_equal(rd.grad(pts).view(np.int64), rd._grad(pts).view(np.int64))
    nan = pts[:1].copy()
    nan[0, -1] = np.nan
    outside = np.full((1, dom.d), -1e3)
    for method in (rd.value, rd.grad):
        with pytest.raises(GeometryError, match="non-finite"):
            method(np.vstack([pts, nan]))
        with pytest.raises(GeometryError, match="outside the closure"):
            method(np.vstack([pts, outside]))


def _offsets():
    eps = np.array([1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.05])
    return np.concatenate([-eps, [0.0], eps])


def test_box_exit_agrees_with_signed_distance_near_faces_edges_corners():
    box = Box([0.0, 0.0], [1.0, 2.0])
    off = _offsets()
    pts = []
    for a in (0.0, 0.37, 1.0):  # lower face or corner, interior, upper
        for b in (0.0, 1.3, 2.0):
            if a == 0.37 and b == 1.3:
                continue
            pts += [[a + da, b + db] for da in off for db in off]
    y = np.array(pts)
    out, normal = box._exit(y)
    assert np.array_equal(out, box._sd(y) < 0.0)
    assert out.sum() > len(y) / 3 and (~out).sum() > len(y) / 3
    # the violated faces' inward normals, averaged at an edge or a corner
    yo = y[out]
    expect = (yo < box.lo) * 1.0 - (yo > box.hi)
    expect /= np.linalg.norm(expect, axis=1)[:, None]
    assert np.array_equal(normal, expect)
    assert np.any(np.all(normal != 0.0, axis=1))  # some corner overshoots


def _slab_land_reference(lo, hi, y, push):
    """The slab contact rule as first written, kept to pin the leaner
    ``geometry._slab_land`` bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - y) / push
        t_hi = (hi - y) / push
        enter = np.minimum(t_lo, t_hi)
        dl = np.fmax.reduce(enter, axis=1)
        ok = (dl < np.inf) & (dl <= np.fmin.reduce(np.maximum(t_lo, t_hi), axis=1))
        land = y + dl[:, None] * push
        bind = enter == dl[:, None]
        normal = np.where(bind, np.sign(push), 0.0)
        if y.shape[1] > 1:
            normal = normal / np.sqrt(np.sum(normal * normal, axis=1))[:, None]
    land = np.where(bind, np.where(push > 0.0, lo, hi), land)
    return np.minimum(np.maximum(land, lo), hi), dl, normal, ok


def _special_lines(d, rng):
    """Points and pushes in d coordinates: on, near and beyond the faces,
    edges and corners of [0, 1] x [0, 2] x ..., with random pushes and
    pushes holding zeros (0/0 on a face), +-inf and NaN."""
    hi = np.arange(1.0, d + 1.0)
    values = [0.0, -0.0, 1e-12, -0.05, 0.37, 1.0, 1.0 + 1e-12, 1.2, 2.0,
              2.5, -np.inf, np.inf, np.nan]
    pushes = [1.0, -1.0, 0.5, 0.0, -0.0, 3e-300, np.inf, -np.inf, np.nan]
    pts = rng.choice(values, (3000, d))
    push = rng.choice(pushes, (3000, d))
    pts[:1000] = rng.uniform(-0.5, hi + 0.5, (1000, d))  # generic lines
    push[:1000] = rng.standard_normal((1000, d))
    pts[1000:1100] = hi * (rng.random((100, d)) < 0.5)  # corners
    return np.vstack([pts, np.zeros((1, d))]), np.vstack([push, np.zeros((1, d))])


@pytest.mark.parametrize("dom", [Interval(0.0, 1.0), Interval(0.0, np.inf),
                                 Box([0.0, 0.0], [1.0, 2.0]),
                                 Box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])],
                         ids=["interval", "halfline", "box2", "box3"])
def test_slab_land_matches_reference_bitwise(dom):
    y, push = _special_lines(dom.d, np.random.default_rng(dom.d))
    if dom.kind == "interval" and dom.unbounded:
        y[y > 1.0] += 1e6  # far out on the half-line as well
    with np.errstate(divide="raise", invalid="raise"):  # it sets its own
        got = dom._land(y, push)
    expect = _slab_land_reference(dom.lo, dom.hi, y, push)
    for a, b in zip(got, expect):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()  # -0.0 and NaN bits included
    ok, normal = expect[3], expect[2]
    assert ok.any() and (~ok).any()
    assert np.isnan(expect[1]).any() and np.isinf(expect[1]).any()
    if dom.d > 1:  # some lines bind at an edge or a corner
        assert (np.count_nonzero(normal != 0.0, axis=1) > 1).any()


def test_ellipsoid_exit_agrees_with_signed_distance_near_the_boundary():
    ell = Ellipsoid([0.1, 0.0], [1.0, 0.5])
    angles = np.linspace(0.0, 2.0 * np.pi, 13)
    scale = 1.0 + np.array([-1e-3, -1e-6, -1e-9, -1e-12, 1e-12, 1e-9, 1e-6, 1e-3])
    y = np.array([ell.center + s * ell.radii * [np.cos(t), np.sin(t)]
                  for t in angles for s in scale])
    out, normal = ell._exit(y)
    sd = ell._sd(y)
    assert np.array_equal(out, sd < 0.0)
    assert out.sum() == (~out).sum()
    # the inward normal of the level set through the exit point
    np.testing.assert_allclose(normal, ell._normal_at(y[out]), rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(normal, axis=1), 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------

def test_make_domain_dispatch():
    assert make_domain("interval", bounds=[0, 1]).kind == "interval"
    assert make_domain("ball", center=[0, 0], radius=1.0).kind == "ball"
    assert make_domain("box", lo=[0, 0], hi=[1, 1]).kind == "box"
    assert make_domain("ellipsoid", center=[0, 0], radii=[2, 1]).kind == "ellipsoid"
    with pytest.raises(GeometryError):
        make_domain("torus")


def test_scale_properties():
    dom = Ball([0.0, 0.0], 2.0)
    assert dom.diameter == 4.0
    assert dom.inradius == 2.0
    assert dom.tol_bd == pytest.approx(4e-9)
    assert dom.feature_guard == pytest.approx(0.5)
    box = Box([0, 0], [3, 4])
    assert box.diameter == 5.0
    assert box.inradius == 1.5
