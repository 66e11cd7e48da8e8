"""Deterministic reflection map for continuous paths in a domain.

Given a sampled driving path f with f(t0) in the closure of the domain, the
solver produces the constrained path g and the nondecreasing local time ell
satisfying the additive decomposition

    g(t_i) = f(t_i) + sum_{j <= i} push(xi_j) * dl_j,

where each increment dl_j >= 0 is the smallest push that returns the step to
the closure and xi_j is the boundary contact point.  The path solver
pushes along the inward normal, which gives the classical reflected path
and its local time; a single step (``reflect_step``) takes any push field
with a positive inward component (e.g. a conormal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConstrainedPath",
    "DrivingPath",
    "SkorokhodError",
    "measure_refinement_order",
    "read_path_csv",
    "reflect_step",
    "solve_skorokhod",
    "write_path_csv",
]


class SkorokhodError(RuntimeError):
    """Raised when a reflection step or path solve cannot proceed."""


# ---------------------------------------------------------------------------
# path containers
# ---------------------------------------------------------------------------

@dataclass
class DrivingPath:
    """Piecewise-linear driving path: strictly increasing sample times and
    sampled values of shape (len(times), d)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.times.ndim != 1 or self.values.ndim != 2:
            raise SkorokhodError("times must be 1D and values 2D (steps, d)")
        if self.values.shape[0] != self.times.shape[0]:
            raise SkorokhodError(
                "times and values disagree: %d times for %d samples"
                % (self.times.shape[0], self.values.shape[0])
            )
        if self.times.shape[0] < 2:
            raise SkorokhodError("a path needs at least two sample times")
        if not np.all(np.isfinite(self.times)) or not np.all(np.isfinite(self.values)):
            raise SkorokhodError("path samples must be finite")
        if np.any(np.diff(self.times) <= 0.0):
            raise SkorokhodError("sample times must be strictly increasing")

    @property
    def d(self):
        return self.values.shape[1]

    def to_csv(self, filename):
        write_path_csv(filename, self.times, self.values)


@dataclass
class ConstrainedPath:
    """Reflected path with its local time and the applied push bookkeeping.

    ``dl`` holds the per-step local-time increments (len(times) - 1 of them)
    and ``contact_dirs`` the push direction used at the step's boundary
    contact (zero rows where the step stayed inside).
    """

    times: np.ndarray
    values: np.ndarray
    local_time: np.ndarray
    dl: np.ndarray = field(repr=False)
    contact_dirs: np.ndarray = field(repr=False)

    def to_csv(self, filename):
        d = self.values.shape[1]
        header = "t," + ",".join("x%d" % (i + 1) for i in range(d)) + ",ell"
        table = np.column_stack([self.times, self.values, self.local_time])
        np.savetxt(filename, table, delimiter=",", header=header, comments="")


def write_path_csv(filename, times, values):
    """Write a sampled path as CSV with header ``t,x1,...,xd``."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    header = "t," + ",".join("x%d" % (i + 1) for i in range(values.shape[1]))
    np.savetxt(filename, np.column_stack([times, values]), delimiter=",",
               header=header, comments="")


def read_path_csv(filename):
    """Read a CSV path file with header ``t,x1,...,xd`` (an extra trailing
    ``ell`` column, as written for constrained paths, is ignored)."""
    with open(filename, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
    cols = header.split(",")
    d = len(cols) - 1
    if cols and cols[-1] == "ell":
        d -= 1
    expected = ["t"] + ["x%d" % (i + 1) for i in range(d)]
    if d < 1 or cols[: 1 + d] != expected:
        raise ValueError(
            "unexpected path CSV header %r; expected 't,x1,...,xd'" % header
        )
    data = np.loadtxt(filename, delimiter=",", skiprows=1, ndmin=2)
    return DrivingPath(data[:, 0], data[:, 1 : 1 + d])


# ---------------------------------------------------------------------------
# single reflecting step
# ---------------------------------------------------------------------------

def _resolve_push(push_dir, contact, d):
    if callable(push_dir):
        push = np.asarray(push_dir(contact), dtype=float).reshape(d)
    else:
        push = np.atleast_1d(np.asarray(push_dir, dtype=float)).reshape(d)
    if not np.all(np.isfinite(push)) or np.linalg.norm(push) == 0.0:
        raise SkorokhodError("push direction at %s is degenerate: %s" % (contact, push))
    return push


def reflect_step(domain, x, increment, push_dir):
    """Advance one step and push back along ``push_dir`` if the move exits.

    Returns ``(x_new, dl)`` with ``x_new`` in the closure and ``dl >= 0``
    minimal: ``x_new = x + increment + push * dl`` where ``push`` is the
    push field evaluated at the boundary contact (the projection of the
    unconstrained point).  ``dl = 0`` exactly when the move stays inside.
    The exit test and the landing are the domain's contact rule (``_exit``
    and ``_land``), the one the numpy reflected kernel calls; raises
    SkorokhodError when the push cannot return the point to the closure.

    The push-back is only locally valid: the path solver refuses every
    increment longer than the domain's feature-size guard, while a single
    step takes the increment it is given.
    """
    x_new, dl, _ = _step(domain, x, increment, push_dir)
    if not np.all(np.isfinite(x_new)):  # a NaN passes the exit test
        raise SkorokhodError("step from %s by %s is not finite" % (x, increment))
    return x_new, dl


def _step(domain, x, increment, push_dir, max_step=np.inf):
    """``reflect_step``, also returning the push it used (None when the
    move stays in the closure); an increment longer than ``max_step``
    raises SkorokhodError."""
    d = domain.d
    x = np.atleast_1d(np.asarray(x, dtype=float)).reshape(d)
    inc = np.atleast_1d(np.asarray(increment, dtype=float)).reshape(d)
    step_len = float(np.linalg.norm(inc))
    if step_len > max_step:
        raise SkorokhodError(
            "step of length %.3g exceeds the guard %.3g; "
            "refine the time grid" % (step_len, max_step)
        )
    y = x + inc
    if not domain._exit(y[None, :])[0][0]:
        return y, 0.0, None
    contact = np.atleast_1d(domain.project_to_boundary(y)).reshape(d)
    push = _resolve_push(push_dir, contact, d)
    land, dl, _, ok = domain._land(y[None, :], push[None, :])
    if not ok[0] or dl[0] < 0.0:
        raise SkorokhodError(
            "push direction %s cannot return %s to the closure" % (push, y)
        )
    return land[0], float(dl[0]), push


# ---------------------------------------------------------------------------
# whole-path solve
# ---------------------------------------------------------------------------

def solve_skorokhod(domain, driving):
    """Constrain a sampled driving path to the domain, pushing along the
    inward normal: the classical reflected path and its local time.

    Every increment longer than the domain's feature-size guard raises
    SkorokhodError; refine the time grid then.
    """
    if driving.d != domain.d:
        raise SkorokhodError(
            "path dimension %d does not match domain dimension %d"
            % (driving.d, domain.d)
        )
    f = driving.values
    m = f.shape[0] - 1
    start_sd = float(domain.signed_distance(f[0]))
    if start_sd < -domain.tol_bd:
        raise SkorokhodError(
            "driving path starts outside the closure (signed distance %.3e)"
            % start_sd
        )

    g = np.empty_like(f)
    g[0] = f[0]
    ell = np.zeros(m + 1)
    dls = np.zeros(m)
    dirs = np.zeros((m, domain.d))
    guard = domain.feature_guard
    for i in range(m):
        g[i + 1], dl, push = _step(domain, g[i], f[i + 1] - f[i],
                                   domain.inward_normal, guard)
        dls[i] = dl
        ell[i + 1] = ell[i] + dl
        if dl > 0.0:
            dirs[i] = push
    return ConstrainedPath(driving.times.copy(), g, ell, dls, dirs)


def measure_refinement_order(domain, f):
    """Empirical convergence order of the discrete reflection map.

    Samples the continuous path ``f`` (a callable t -> point) on [0, 1]
    with 64, 128 and 256 steps, solves each with the normal push, and
    measures sup-norm errors against a 4-times-finer reference solve at
    shared sample times.  Returns a dict with the step counts, the errors,
    and the fitted order.
    """
    t_end = 1.0
    step_counts = [64, 128, 256]
    m_ref = 4 * step_counts[-1]
    solutions = {}
    for m in step_counts + [m_ref]:
        t = np.linspace(0.0, t_end, m + 1)
        vals = np.array([np.atleast_1d(f(ti)) for ti in t], dtype=float)
        solutions[m] = solve_skorokhod(domain, DrivingPath(t, vals))
    g_ref = solutions[m_ref].values
    errors = []
    for m in step_counts:
        stride = m_ref // m
        diff = solutions[m].values - g_ref[::stride]
        errors.append(float(np.linalg.norm(diff, axis=1).max()))
    errors = np.asarray(errors)
    widths = t_end / np.asarray(step_counts, dtype=float)
    order = float(np.polyfit(np.log(widths), np.log(errors), 1)[0])
    return {"steps": step_counts, "errors": errors, "order": order}
