"""Tests for the reflection map: single steps, whole-path solves, local time.

Oracles used here:
  * half-line: the explicit solution ell(t) = max(0, max_{s<=t}(-f(s))),
    g = f + ell, computed directly from the sampled driving path;
  * ball with normal push: the constrained point is the Euclidean projection
    onto the closed ball and the local-time increment is the overshoot;
  * box and ellipsoid steps: the landing is on the boundary, equals
    y + push * dl, and is the first such point (y + push * dl * (1 - 1e-9)
    is still outside);
  * refinement stability: solves on dyadically refined grids are compared
    against a much finer reference solve of the same continuous path.
"""

import hashlib
import math

import numpy as np
import pytest

from inertdrift.geometry import Ball, Box, Ellipsoid, Interval
from inertdrift.skorokhod import (
    ConstrainedPath,
    DrivingPath,
    SkorokhodError,
    measure_refinement_order,
    read_path_csv,
    reflect_step,
    solve_skorokhod,
    write_path_csv,
)


def half_line_oracle(f):
    """Explicit reflection at 0: ell = running max of (-f)^+, g = f + ell."""
    ell = np.maximum.accumulate(np.maximum(-f, 0.0))
    return f + ell, ell


# ---------------------------------------------------------------------------
# single reflecting step
# ---------------------------------------------------------------------------

def test_interior_move_passes_through_unchanged():
    dom = Ball([0.0, 0.0], 1.0)
    x = np.array([0.1, 0.2])
    inc = np.array([0.05, -0.03])
    x_new, dl = reflect_step(dom, x, inc, lambda p: dom.inward_normal(p))
    np.testing.assert_array_equal(x_new, x + inc)
    assert dl == 0.0


def test_interval_step_lands_on_endpoint_with_minimal_push():
    x_new, dl = reflect_step(Interval(0.0, 1.0), 0.1, -0.3, 1.0)
    assert x_new[0] == 0.0
    assert dl == pytest.approx(0.2, abs=1e-15)


def test_ball_normal_push_equals_euclidean_projection():
    dom = Ball([0.0, 0.0], 1.0)
    x = np.array([0.9, 0.0])
    inc = np.array([0.19, 0.05])
    y = x + inc
    x_new, dl = reflect_step(dom, x, inc, lambda p: dom.inward_normal(p))
    r = np.linalg.norm(y)
    np.testing.assert_allclose(x_new, y / r, atol=1e-12)
    assert dl == pytest.approx(r - 1.0, abs=1e-12)


def test_oversized_increment_rejected():
    # the path solver enforces the domain's feature-size guard on every
    # increment
    dom = Ball([0.0, 0.0], 1.0)
    t = np.array([0.0, 1.0])
    f = np.array([[0.0, 0.0], [0.4, 0.0]])
    with pytest.raises(SkorokhodError, match="refine the time grid"):
        solve_skorokhod(dom, DrivingPath(t, f))


def test_outward_push_fails_with_diagnostics():
    dom = Ball([0.0, 0.0], 1.0)
    with pytest.raises(SkorokhodError, match="push"):
        reflect_step(dom, [0.9, 0.0], [0.2, 0.0], lambda p: np.array([1.0, 0.0]))
    # a NaN passes every exit test, so the step itself must refuse it
    with pytest.raises(SkorokhodError, match="not finite"):
        reflect_step(dom, [0.1, 0.0], [np.nan, 0.0], dom.inward_normal)


def _check_landing(dom, x, inc, push_dir):
    """reflect_step's landing, checked on the boundary, on the push line,
    and minimal; returns (x_new, dl)."""
    y = np.asarray(x, float) + inc
    push = push_dir(dom.project_to_boundary(y)) if callable(push_dir) else push_dir
    x_new, dl = reflect_step(dom, x, inc, push_dir)
    assert dl > 0.0
    assert abs(dom.signed_distance(x_new)) <= dom.tol_bd
    np.testing.assert_allclose(x_new, y + dl * np.asarray(push), rtol=0, atol=1e-14)
    assert dom.signed_distance(y + (1.0 - 1e-9) * dl * np.asarray(push)) < 0.0
    return x_new, dl


def test_box_steps_land_on_the_first_boundary_point():
    box = Box([0.0, 0.0], [1.0, 2.0])
    # a face hit along the face normal: the overshoot, onto the face exactly
    x_new, dl = _check_landing(box, [0.05, 1.0], np.array([-0.1, 0.02]),
                               box.inward_normal)
    assert x_new[0] == 0.0 and dl == pytest.approx(0.05, abs=1e-15)
    # a corner crossing pushed along the averaged corner normal: the lower
    # face binds, the left one was reached earlier
    x_new, dl = _check_landing(box, [0.05, 0.05], np.array([-0.1, -0.08]),
                               box.inward_normal)
    assert x_new[0] == 0.0 and x_new[1] == pytest.approx(0.02, abs=1e-15)
    assert dl == pytest.approx(0.05 * np.sqrt(2.0), abs=1e-15)
    # an oblique push with a zero component past the top face
    x_new, dl = _check_landing(box, [0.5, 1.95], np.array([0.1, 0.1]),
                               np.array([0.0, -2.0]))
    assert x_new[1] == 2.0 and x_new[0] == 0.6
    assert dl == pytest.approx(0.025, abs=1e-15)
    # a push that points outward, has no component across the face, or
    # leaves through the top face before it reaches the left one
    for x, push in (([0.05, 1.0], [-1.0, 0.0]), ([0.05, 1.0], [0.0, 1.0]),
                    ([0.05, 1.99], [1.0, 1.0])):
        with pytest.raises(SkorokhodError, match="push"):
            reflect_step(box, x, [-0.1, 0.0], np.array(push))


def test_ellipsoid_steps_land_on_the_first_boundary_point():
    ell = Ellipsoid([0.1, 0.0], [1.0, 0.5])
    A = np.diag([2.0, 0.5])
    for x, inc in (([0.1, 0.45], [0.05, 0.1]), ([1.0, 0.1], [0.15, -0.05])):
        _check_landing(ell, x, np.array(inc), ell.inward_normal)
        _check_landing(ell, x, np.array(inc), lambda p: A @ ell.inward_normal(p))
    with pytest.raises(SkorokhodError, match="push"):
        reflect_step(ell, [0.1, 0.45], [0.05, 0.1], lambda p: -ell.inward_normal(p))


# ---------------------------------------------------------------------------
# whole-path solves
# ---------------------------------------------------------------------------

def test_half_line_matches_explicit_formula_on_random_paths():
    dom = Interval(0.0, math.inf)
    rng = np.random.default_rng(42)
    worst_ell = 0.0
    worst_g = 0.0
    for _ in range(100):
        steps = rng.integers(20, 60)
        t = np.linspace(0.0, 1.0, steps + 1)
        f = rng.uniform(0.1, 0.8) + np.concatenate(
            [[0.0], np.cumsum(rng.normal(0.0, 0.25, steps))]
        )
        sol = solve_skorokhod(dom, DrivingPath(t, f[:, None]))
        g_ref, ell_ref = half_line_oracle(f)
        worst_ell = max(worst_ell, np.abs(sol.local_time - ell_ref).max())
        worst_g = max(worst_g, np.abs(sol.values[:, 0] - g_ref).max())
    assert worst_ell <= 1e-12
    assert worst_g <= 1e-12


def test_explicit_ramp_path_on_the_half_line():
    # f(t) = 1 - 2t on [0, 1]:  ell(t) = max(0, 2t - 1),  g(t) = max(1 - 2t, 0)
    dom = Interval(0.0, math.inf)
    t = np.linspace(0.0, 1.0, 101)
    f = 1.0 - 2.0 * t
    sol = solve_skorokhod(dom, DrivingPath(t, f[:, None]))
    np.testing.assert_allclose(sol.local_time, np.maximum(0.0, 2.0 * t - 1.0), atol=1e-14)
    np.testing.assert_allclose(sol.values[:, 0], np.maximum(f, 0.0), atol=1e-14)


def test_path_staying_inside_is_untouched():
    dom = Ball([0.0, 0.0], 1.0)
    t = np.linspace(0.0, 1.0, 33)
    f = np.column_stack([0.5 * np.cos(t), 0.5 * np.sin(t)])
    sol = solve_skorokhod(dom, DrivingPath(t, f))
    np.testing.assert_array_equal(sol.values, f)
    assert np.all(sol.local_time == 0.0)


def test_chord_through_disc_obeys_constraints():
    dom = Ball([0.0, 0.0], 1.0)
    t = np.linspace(0.0, 1.0, 201)
    f = np.column_stack([-0.9 + 2.2 * t, np.full_like(t, 0.35)])
    driving = DrivingPath(t, f)
    sol = solve_skorokhod(dom, driving)
    # constrained path never leaves the closure
    assert np.all(dom.signed_distance(sol.values) >= -dom.tol_bd)
    # local time is nondecreasing, zero at the start, positive by the end
    assert sol.local_time[0] == 0.0
    assert np.all(np.diff(sol.local_time) >= 0.0)
    assert sol.local_time[-1] > 0.0
    # flat off the boundary: dl > 0 only when the boundary was touched
    dl = np.diff(sol.local_time)
    sd = dom.signed_distance(sol.values)
    touched = np.minimum(np.abs(sd[:-1]), np.abs(sd[1:])) <= dom.tol_bd
    assert np.all(touched[dl > 0.0])
    # additive reconstruction from the recorded contact directions
    pushes = np.vstack([np.zeros((1, 2)), sol.contact_dirs * sol.dl[:, None]])
    rebuilt = driving.values + np.cumsum(pushes, axis=0)
    assert np.abs(rebuilt - sol.values).max() <= 1e-9 * dom.diameter


def test_starting_point_outside_closure_rejected():
    dom = Ball([0.0, 0.0], 1.0)
    t = np.linspace(0.0, 1.0, 11)
    f = np.column_stack([1.5 - t, np.zeros_like(t)])
    with pytest.raises(SkorokhodError, match="closure"):
        solve_skorokhod(dom, DrivingPath(t, f))


# sha256 of the values, local time and contact directions of a 400-step
# path on Ellipsoid([0.1, 0], [1, 0.5]) that drifts into the boundary
# (136 contact steps)
ELLIPSOID_PATH_SHA = (
    "c69ea6255fe0c20672db88b0f12b0f62d1547ceed8c59f34c05fd1bd0ef52947",
    "821051fb5d42af15fe66790d996c35acc328c983fb7785d6dcfe0559e7729423",
    "2110f452173b11e225269d806ca0b89bba2c9ee8d080253fb00058c4ce1278b2",
)


def test_ellipsoid_path_solve_is_pinned():
    dom = Ellipsoid([0.1, 0.0], [1.0, 0.5])
    rng = np.random.default_rng(5)
    inc = 0.03 * rng.standard_normal((400, 2)) + [0.01, 0.005]
    f = dom.centroid + np.cumsum(np.vstack([np.zeros((1, 2)), inc]), axis=0)
    sol = solve_skorokhod(dom, DrivingPath(np.linspace(0.0, 1.0, 401), f))
    assert int(np.count_nonzero(sol.dl)) == 136
    assert tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in (sol.values, sol.local_time, sol.contact_dirs)
    ) == ELLIPSOID_PATH_SHA


def test_refinement_order_on_smooth_disc_path():
    dom = Ball([0.0, 0.0], 1.0)

    def f(t):
        r = 0.95 * (1.0 + 0.35 * math.sin(2.6 * t))
        return np.array([r * math.cos(0.4 + 1.9 * t), r * math.sin(0.4 + 1.9 * t)])

    rep = measure_refinement_order(dom, f)
    assert np.all(np.diff(rep["errors"]) < 0.0)
    assert rep["order"] >= 0.9


# ---------------------------------------------------------------------------
# path containers and CSV round-trips
# ---------------------------------------------------------------------------

def test_driving_path_validation():
    with pytest.raises(SkorokhodError, match="increasing"):
        DrivingPath(np.array([0.0, 0.5, 0.5]), np.zeros((3, 1)))
    with pytest.raises(SkorokhodError, match="finite"):
        DrivingPath(np.array([0.0, 1.0]), np.array([[0.0], [math.nan]]))
    with pytest.raises(SkorokhodError, match="times"):
        DrivingPath(np.array([0.0, 1.0]), np.zeros((3, 1)))


def test_path_csv_round_trip(tmp_path):
    t = np.linspace(0.0, 1.0, 7)
    vals = np.column_stack([np.sin(t), np.cos(t)])
    fname = tmp_path / "drive.csv"
    write_path_csv(fname, t, vals)
    header = fname.read_text().splitlines()[0]
    assert header == "t,x1,x2"
    back = read_path_csv(fname)
    np.testing.assert_allclose(back.times, t, atol=1e-15)
    np.testing.assert_allclose(back.values, vals, atol=1e-15)


def test_constrained_path_csv_includes_local_time(tmp_path):
    dom = Interval(0.0, math.inf)
    t = np.linspace(0.0, 1.0, 21)
    f = 1.0 - 2.0 * t
    sol = solve_skorokhod(dom, DrivingPath(t, f[:, None]))
    fname = tmp_path / "constrained.csv"
    sol.to_csv(fname)
    header = fname.read_text().splitlines()[0]
    assert header == "t,x1,ell"
    data = np.loadtxt(fname, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 2], sol.local_time, atol=1e-15)


def test_malformed_csv_header_rejected(tmp_path):
    fname = tmp_path / "bad.csv"
    fname.write_text("time,a,b\n0.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        read_path_csv(fname)
