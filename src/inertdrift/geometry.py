"""Domain geometry: signed distance, inward normals, boundary projection,
and smooth interior distance functions.

Every domain exposes a signed distance (positive inside, zero on the
boundary, negative outside), inward unit normals on the boundary, a
projection onto the boundary, and the contact rule of the reflected
steppers (``_land``; intervals and balls add ``_exit`` for the numpy
kernel).  ``SmoothDistance`` supplies the smooth
interior distance used by the wall-potential family, together with its
gradient and the multiplicative sandwich constants relating it to the true
distance.

Point arguments accept a single point of shape ``(d,)`` (a bare scalar is
fine when ``d == 1``) or a batch of shape ``(m, d)``; results keep the
matching leading shape.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Domain",
    "Interval",
    "Ball",
    "Box",
    "Ellipsoid",
    "SmoothDistance",
    "GeometryError",
    "make_domain",
]


class GeometryError(ValueError):
    """Raised for invalid geometric queries (bad points, unsupported domains)."""


def _as_batch(x, d):
    """Normalize ``x`` to shape ``(m, d)``; also return True when a single point."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        if d != 1:
            raise GeometryError(f"scalar point given but dimension is {d}")
        return a.reshape(1, 1), True
    if a.ndim == 1:
        if a.shape[0] != d:
            raise GeometryError(f"point has {a.shape[0]} components, expected {d}")
        return a.reshape(1, d), True
    if a.ndim == 2 and a.shape[1] == d:
        return a, False
    raise GeometryError(f"cannot interpret array of shape {a.shape} as points in d={d}")


def _unbatch(values, single):
    return values[0] if single else values


def _rowsum(a):
    """a[:, 0] + a[:, 1] + ..., summed left to right from +0.0."""
    out = a[:, 0] + 0.0
    for j in range(1, a.shape[1]):
        out = out + a[:, j]
    return out


def _unit_rows(v):
    """Each row of ``v`` divided by its length."""
    return v / np.sqrt(_rowsum(v * v))[:, None]


def _slab_land(lo, hi, y, push):
    """The contact rule of intervals and boxes: where each line y + s push
    enters the closed slab product [lo_i, hi_i].

    Coordinate i lies in [lo_i, hi_i] for s between the times at which it
    crosses lo_i and hi_i; dl is the latest entry time, and the line meets
    the closure (``ok``) when that comes before every exit time.  A
    coordinate on a face with a zero push component gives 0/0 and never
    leaves, so the reductions skip NaN.  The binding coordinates, those
    that enter at dl, land exactly on their faces, whose inward normals,
    averaged as ``Box`` has them at edges, are returned; the others are
    clipped into the closure against rounding.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - y) / push
        t_hi = (hi - y) / push
        enter = np.minimum(t_lo, t_hi)
        dl = np.fmax.reduce(enter, axis=1)
        ok = (dl < np.inf) & (dl <= np.fmin.reduce(np.maximum(t_lo, t_hi), axis=1))
        land = y + dl[:, None] * push
        bind = enter == dl[:, None]
        normal = np.where(bind, np.sign(push), 0.0)
        if y.shape[1] > 1:  # several faces bind at an edge or a corner
            normal = _unit_rows(normal)
    land = np.where(bind, np.where(push > 0.0, lo, hi), land)
    return np.minimum(np.maximum(land, lo), hi), dl, normal, ok


def _ray_sphere(off, push, r2):
    """Smaller root s of |off + s push|^2 = r2, and whether the line meets
    the sphere: (-b - sqrt(b^2 - a c)) / a with a = |push|^2,
    b = off . push and c = |off|^2 - r2."""
    a = _rowsum(push * push)
    b = _rowsum(off * push)
    disc = b * b - a * (_rowsum(off * off) - r2)
    ok = disc > 0.0
    return (-b - np.sqrt(np.where(ok, disc, 0.0))) / a, ok


class Domain:
    """Base class for bounded open domains (plus the 1D half-line special case)."""

    kind = "abstract"

    def __init__(self, d):
        self.d = int(d)

    # -- subclasses implement these on (m, d) batches -------------------------
    def _sd(self, pts):
        raise NotImplementedError

    def _project(self, pts):
        raise NotImplementedError

    def _normal_at(self, pts):
        """Inward unit normal for points assumed on (or very near) the boundary."""
        raise NotImplementedError

    def _land(self, y, push):
        """The contact rule: push each point of ``y`` outside the closure
        back along its row of ``push`` to the point where the line
        y + s push enters the closure.  Returns the landing points, s (the
        local-time increment dL, negative where the push points away from
        the domain), the inward normals there, and ``ok``, False where the
        line misses the closure."""
        raise NotImplementedError

    # -- shared API ------------------------------------------------------------
    def signed_distance(self, x):
        pts, single = _as_batch(x, self.d)
        if not np.all(np.isfinite(pts)):
            raise GeometryError("signed_distance: point has non-finite components")
        return _unbatch(self._sd(pts), single)

    def inside(self, x):
        return self.signed_distance(x) > 0.0

    def in_closure(self, x, tol=0.0):
        return self.signed_distance(x) >= -tol

    def project_to_boundary(self, x):
        pts, single = _as_batch(x, self.d)
        return _unbatch(self._project(pts), single)

    def inward_normal(self, x):
        pts, single = _as_batch(x, self.d)
        dist = np.abs(self._sd(pts))
        bad = dist > self.tol_bd
        if np.any(bad):
            i = int(np.argmax(bad))
            raise GeometryError(
                "inward_normal: point %s is %.3e from the boundary "
                "(tolerance %.3e)" % (pts[i], float(dist[i]), self.tol_bd)
            )
        return _unbatch(self._normal_at(pts), single)

    @property
    def diameter(self):
        raise NotImplementedError

    @property
    def inradius(self):
        raise NotImplementedError

    @property
    def reference_length(self):
        """Finite length scale used for tolerances (equals diameter when bounded)."""
        return self.diameter

    @property
    def tol_bd(self):
        """Boundary-proximity tolerance: 1e-9 of the domain length scale."""
        return 1e-9 * self.reference_length

    @property
    def feature_guard(self):
        """Largest single-step increment allowed by the reflection map."""
        return 0.25 * self.inradius

    @property
    def centroid(self):
        raise NotImplementedError

    def bounding_box(self):
        """Return (lo, hi) arrays enclosing the closure of the domain."""
        raise NotImplementedError

    def sample_interior(self, n, rng):
        """Draw ``n`` uniform interior points by rejection from the bounding box."""
        lo, hi = self.bounding_box()
        if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
            raise GeometryError("sample_interior requires a bounded domain")
        out = np.empty((n, self.d))
        have = 0
        while have < n:
            cand = rng.uniform(lo, hi, size=(max(n, 256), self.d))
            keep = cand[self._sd(cand) > 0.0]
            take = min(n - have, keep.shape[0])
            out[have : have + take] = keep[:take]
            have += take
        return out

    def __repr__(self):
        return f"{type(self).__name__}(d={self.d})"


class Interval(Domain):
    """Open interval (lo, hi) in d=1.  ``hi = inf`` gives the half-line (lo, inf),
    supported only for the 1D reflection-map tests; such a domain is unbounded
    and cannot be sampled or used where a bounding box is required."""

    kind = "interval"

    def __init__(self, lo, hi):
        super().__init__(1)
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise GeometryError(f"interval requires lo < hi, got ({lo}, {hi})")
        if not np.isfinite(lo):
            raise GeometryError("interval lower endpoint must be finite")
        self.lo = lo
        self.hi = hi

    @property
    def unbounded(self):
        return not np.isfinite(self.hi)

    def _sd(self, pts):
        x = pts[:, 0]
        if self.unbounded:
            return x - self.lo
        return np.minimum(x - self.lo, self.hi - x)

    def _project(self, pts):
        x = pts[:, 0]
        if self.unbounded:
            return np.full_like(pts, self.lo)
        nearer_lo = (x - self.lo) <= (self.hi - x)
        return np.where(nearer_lo, self.lo, self.hi)[:, None]

    def _normal_at(self, pts):
        x = pts[:, 0]
        if self.unbounded:
            return np.ones_like(pts)
        nearer_lo = (x - self.lo) <= (self.hi - x)
        return np.where(nearer_lo, 1.0, -1.0)[:, None]

    def _exit(self, y):
        """Which points of ``y`` lie outside [lo, hi], and the inward normal
        at the endpoint each one crossed."""
        below = y[:, 0] < self.lo
        out = below | (y[:, 0] > self.hi)
        return out, np.where(below[out], 1.0, -1.0)[:, None]

    def _land(self, y, push):
        return _slab_land(self.lo, self.hi, y, push)

    @property
    def diameter(self):
        return self.hi - self.lo

    @property
    def reference_length(self):
        if self.unbounded:
            return max(1.0, abs(self.lo))
        return self.hi - self.lo

    @property
    def inradius(self):
        return (self.hi - self.lo) / 2.0

    @property
    def centroid(self):
        if self.unbounded:
            raise GeometryError("half-line has no centroid")
        return np.array([(self.lo + self.hi) / 2.0])

    def bounding_box(self):
        return np.array([self.lo]), np.array([self.hi])


class Ball(Domain):
    """Open ball of given center and radius in any dimension."""

    kind = "ball"

    def __init__(self, center, radius):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        super().__init__(center.shape[0])
        if radius <= 0:
            raise GeometryError("ball radius must be positive")
        self.center = center
        self.radius = float(radius)

    def _sd(self, pts):
        return self.radius - np.linalg.norm(pts - self.center, axis=1)

    def _project(self, pts):
        w = pts - self.center
        r = np.linalg.norm(w, axis=1)
        deg = r < 1e-300
        if np.any(deg):
            w = w.copy()
            w[deg] = 0.0
            w[deg, 0] = 1.0
            r = np.linalg.norm(w, axis=1)
        return self.center + w * (self.radius / r)[:, None]

    def _normal_at(self, pts):
        w = pts - self.center
        r = np.linalg.norm(w, axis=1)
        return -w / r[:, None]

    def _exit(self, y):
        """Which points of ``y`` lie outside the closed ball, and the inward
        normal at their radial projection onto the sphere."""
        off = y - self.center
        r = np.sqrt(_rowsum(off * off))
        out = r > self.radius
        return out, -(off[out] / r[out, None])

    def _land(self, y, push):
        dl, ok = _ray_sphere(y - self.center, push, self.radius * self.radius)
        unit = _unit_rows((y + dl[:, None] * push) - self.center)
        return self.center + self.radius * unit, dl, -unit, ok

    @property
    def diameter(self):
        return 2.0 * self.radius

    @property
    def inradius(self):
        return self.radius

    @property
    def centroid(self):
        return self.center.copy()

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius


class Box(Domain):
    """Open axis-aligned box Prod_i (lo_i, hi_i).

    The boundary is Lipschitz rather than C2.  Normals are face normals away
    from edges; within ``tol_bd`` of two or more faces the face normals are
    averaged and renormalized (the documented edge/corner convention).
    """

    kind = "box"

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape:
            raise GeometryError("box lo/hi shape mismatch")
        if not np.all(lo < hi):
            raise GeometryError("box requires lo < hi componentwise")
        super().__init__(lo.shape[0])
        self.lo = lo
        self.hi = hi

    def _face_margins(self, pts):
        """Distances to each face plane: (m, d) to lower faces, (m, d) to upper."""
        return pts - self.lo, self.hi - pts

    def _sd(self, pts):
        q = np.maximum(self.lo - pts, pts - self.hi)  # positive components => outside
        mmax = q.max(axis=1)
        inside_sd = -mmax
        outside_sd = -np.linalg.norm(np.maximum(q, 0.0), axis=1)
        return np.where(mmax <= 0.0, inside_sd, outside_sd)

    def _project(self, pts):
        out = np.clip(pts, self.lo, self.hi)
        q = np.maximum(self.lo - pts, pts - self.hi)
        interior = q.max(axis=1) < 0.0
        if np.any(interior):
            idx = np.where(interior)[0]
            sub = out[idx]
            fl, fu = self._face_margins(sub)
            both = np.concatenate([fl, fu], axis=1)  # (k, 2d)
            j = np.argmin(both, axis=1)
            for row, face in zip(range(sub.shape[0]), j):
                axis = face % self.d
                sub[row, axis] = self.lo[axis] if face < self.d else self.hi[axis]
            out[idx] = sub
        return out

    def _normal_at(self, pts):
        fl, fu = self._face_margins(pts)
        tol = self.tol_bd
        n = np.zeros_like(pts)
        for i in range(self.d):
            n[:, i] += (np.abs(fl[:, i]) <= tol) * 1.0
            n[:, i] -= (np.abs(fu[:, i]) <= tol) * 1.0
        norms = np.linalg.norm(n, axis=1)
        if np.any(norms == 0.0):
            # boundary point not within tol of any face plane can only happen
            # for an exterior point, which inward_normal's guard already rejects
            raise GeometryError("normal: point not matched to any face")
        return n / norms[:, None]

    def _land(self, y, push):
        return _slab_land(self.lo, self.hi, y, push)

    @property
    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    @property
    def inradius(self):
        return float(np.min(self.hi - self.lo) / 2.0)

    @property
    def centroid(self):
        return (self.lo + self.hi) / 2.0

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()


class Ellipsoid(Domain):
    """Open ellipsoid sum_i ((x_i - c_i)/r_i)^2 < 1 with C2 boundary.

    The signed distance is computed from the nearest boundary point, found by
    isolating the root of the Lagrange-multiplier equation
    ``F(t) = sum_i (p_i r_i / (r_i^2 + t))^2 - 1`` by bisection (tolerance
    ~1e-14 of the squared radii scale); the degenerate on-axis case (smallest
    semi-axis component zero, nearest point off the multiplier branch) is
    handled explicitly.
    """

    kind = "ellipsoid"

    def __init__(self, center, radii):
        center = np.atleast_1d(np.asarray(center, dtype=float))
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if center.shape != radii.shape:
            raise GeometryError("ellipsoid center/radii shape mismatch")
        if not np.all(radii > 0):
            raise GeometryError("ellipsoid radii must be positive")
        super().__init__(center.shape[0])
        self.center = center
        self.radii = radii

    def _nearest_on_boundary(self, pts):
        """Nearest boundary points for a batch; returns (q, distance)."""
        p = pts - self.center
        r = self.radii
        r2 = r**2
        rmin2 = float(np.min(r2))
        m = p.shape[0]

        def F(t):
            return np.sum((p * r[None, :] / (r2[None, :] + t[:, None])) ** 2, axis=1) - 1.0

        inside = np.sum((p / r) ** 2, axis=1) < 1.0
        t_lo = np.empty(m)
        t_hi = np.empty(m)
        # outside: root in (0, inf); expand upper bracket by doubling
        t_lo[~inside] = 0.0
        guess = np.maximum(np.linalg.norm(p, axis=1) * np.max(r), rmin2)
        t_hi[:] = guess
        for _ in range(200):
            need = (~inside) & (F(t_hi) > 0.0)
            if not np.any(need):
                break
            t_hi[need] *= 2.0
        # inside: root in (-rmin2, 0]
        eta = rmin2 * 1e-14
        t_lo[inside] = -rmin2 + eta
        t_hi[inside] = 0.0

        degenerate = inside & (F(t_lo) < 0.0)
        ok = ~degenerate
        lo = t_lo.copy()
        hi = t_hi.copy()
        for _ in range(110):
            mid = 0.5 * (lo + hi)
            pos = F(mid) > 0.0
            lo = np.where(ok & pos, mid, lo)
            hi = np.where(ok & ~pos, mid, hi)
        t = 0.5 * (lo + hi)
        q = p * r2[None, :] / (r2[None, :] + t[:, None])

        if np.any(degenerate):
            jmin = int(np.argmin(r2))
            for i in np.where(degenerate)[0]:
                qi = np.zeros(self.d)
                s = 0.0
                for j in range(self.d):
                    if r2[j] - rmin2 > 1e-300:
                        qi[j] = p[i, j] * r2[j] / (r2[j] - rmin2)
                        s += (qi[j] / r[j]) ** 2
                s = min(s, 1.0)
                qi[jmin] = r[jmin] * np.sqrt(max(1.0 - s, 0.0))
                q[i] = qi
        dist = np.linalg.norm(q - p, axis=1)
        return q + self.center, dist

    def _sd(self, pts):
        inside = 1.0 - np.sum(((pts - self.center) / self.radii) ** 2, axis=1) > 0.0
        _, dist = self._nearest_on_boundary(pts)
        return np.where(inside, dist, -dist)

    def _project(self, pts):
        q, _ = self._nearest_on_boundary(pts)
        return q

    def _normal_at(self, pts):
        g = -2.0 * (pts - self.center) / self.radii**2
        norms = np.linalg.norm(g, axis=1)
        return g / norms[:, None]

    def _land(self, y, push):
        """The ball's landing quadratic in radius-scaled coordinates, where
        the ellipsoid is the unit sphere."""
        r = self.radii
        dl, ok = _ray_sphere((y - self.center) / r, push / r, 1.0)
        unit = _unit_rows(((y + dl[:, None] * push) - self.center) / r)
        return self.center + r * unit, dl, _unit_rows(-unit / r), ok

    @property
    def diameter(self):
        return float(2.0 * np.max(self.radii))

    @property
    def inradius(self):
        return float(np.min(self.radii))

    @property
    def centroid(self):
        return self.center.copy()

    def bounding_box(self):
        return self.center - self.radii, self.center + self.radii


def make_domain(kind, **params):
    """Construct a domain by kind name and numeric parameters (config entry point)."""
    kind = str(kind)
    if kind == "interval":
        return Interval(*params["bounds"])
    if kind == "ball":
        return Ball(params["center"], params["radius"])
    if kind == "box":
        return Box(params["lo"], params["hi"])
    if kind == "ellipsoid":
        return Ellipsoid(params["center"], params["radii"])
    raise GeometryError(f"unknown domain kind {kind!r}")


# ---------------------------------------------------------------------------
# Smooth interior distance
# ---------------------------------------------------------------------------

class SmoothDistance:
    """Smooth interior distance delta with multiplicative sandwich constants.

    For every interior x:  ``c1 * d(x, boundary) <= delta(x) <= c2 * d(x, boundary)``
    with the instance's declared ``c1``, ``c2``.  Construction per domain kind:

    * interval / ball: exact distance away from the center ridge, replaced by a
      C2 even quartic inside a center cap of radius ``cap_fraction * inradius``
      so the gradient exists everywhere.  Outside the cap ``delta`` equals the
      exact distance (c1 = 1 - 3a/(8w) with cap radius a and inradius w, c2 = 1).
      The half-line (interval with infinite right end) needs no cap: delta is
      exactly ``x - lo``.
    * box: power-mean soft minimum of the 2d face distances with
      ``beta = sharpness``:  ``delta = (sum_i f_i^-beta)^(-1/beta)``, smooth in
      the open box, with c1 = (2d)^(-1/beta), c2 = 1.  The softmin's curvature
      grows like beta^2 / (boundary distance)^2, so finite-difference gradient
      certification at step 1e-5 * diameter holds outside a collar of
      ~4% of the diameter (the analytic gradient itself is exact everywhere
      in the open box).
    * ellipsoid: the level function rescaled by a regularized gradient norm,
      ``delta = phi / sqrt(|grad phi|^2 + (2 phi / scale)^2)`` with scale the
      smallest semi-axis; sandwich constants are measured on
      ``scan_points`` interior points and declared with a safety margin.

    ``breakpoints_1d`` lists interior points where delta is only C2 (used to
    split 1D quadrature panels).  ``cap_fraction`` (0.1), ``sharpness`` (8)
    and ``scan_points`` (4096) are class constants.
    """

    cap_fraction = 0.1
    sharpness = 8.0
    scan_points = 4096

    def __init__(self, domain):
        self.domain = domain
        d = domain.d

        self._half_line = domain.kind == "interval" and domain.unbounded
        if self._half_line:
            self.c1 = self.c2 = 1.0
            self.breakpoints_1d = []
        elif domain.kind in ("interval", "ball"):
            w = domain.inradius
            a = self.cap_fraction * w
            self._cap = a
            self.c1 = 1.0 - 3.0 * a / (8.0 * w)
            self.c2 = 1.0
            self._w = w
            self._mid = np.asarray(domain.centroid, dtype=float)
            # phi(s) = phi0 + 3 s^2 / phi2 - s^4 / phi4 and
            # phi'(s) / s = dphi0 - s^2 / dphi2 inside the cap
            self._phi0, self._phi2, self._phi4 = 3 * a / 8, 4 * a, 8 * a**3
            self._dphi0, self._dphi2 = 3.0 / (2 * a), 2 * a**3
            if d == 1:
                mid = float(self._mid[0])
                self.breakpoints_1d = [mid - a, mid + a]
            else:
                self.breakpoints_1d = []
        elif domain.kind == "box":
            self.c1 = float((2 * d) ** (-1.0 / self.sharpness))
            self.c2 = 1.0
            self.breakpoints_1d = []
        elif domain.kind == "ellipsoid":
            self._scale = float(np.min(domain.radii))
            rng = np.random.default_rng(1234)
            pts = domain.sample_interior(self.scan_points, rng)
            ratios = self._value(pts) / domain.signed_distance(pts)
            self.c1 = float(np.min(ratios)) * 0.8
            self.c2 = float(np.max(ratios)) * 1.25
            self.breakpoints_1d = []
        else:
            raise GeometryError(f"no smooth distance for domain kind {domain.kind!r}")

    def _centre_offset(self, pts):
        """x - centre and its length s, for a bounded interval or a ball."""
        u = pts - self._mid
        if self.domain.kind == "interval":
            return u, np.abs(u[:, 0])
        return u, np.linalg.norm(u, axis=1)

    def _capped_delta(self, s, s2, inside):
        """delta = w - phi(s), with phi the quartic cap where ``inside``."""
        # s**4 is one correctly rounded pow, not s2 * s2
        return self._w - np.where(
            inside, self._phi0 + 3 * s2 / self._phi2 - s**4 / self._phi4, s)

    def _value_and_grad(self, pts):
        """delta and grad delta at (m, d) points of an interval, a half-line
        or a ball, from one distance s to the centre.

        delta = w - phi(s) with the quartic cap
        phi(s) = 3a/8 + 3 s^2/(4a) - s^4/(8 a^3) for s < a and phi(s) = s
        beyond; phi is C2 at s = a (phi(a)=a, phi'(a)=1, phi''(a)=0) and
        smooth at s = 0.  grad delta = -(phi'(s)/s) (x - centre), where
        phi'(s)/s stays finite through s = 0.  On the half-line delta is
        x - lo.  The gradient kernel and ``_grad`` evaluate this method;
        ``_value`` shares its offset and delta steps without the gradient.
        """
        if self._half_line:
            return pts[:, 0] - self.domain.lo, np.ones_like(pts)
        a = self._cap
        u, s = self._centre_offset(pts)
        s2 = s**2
        inside = s < a
        # beyond the cap s >= a, and the maximum keeps 1/s finite where unused
        dphi_over_s = np.where(inside, self._dphi0 - s2 / self._dphi2,
                               1.0 / np.maximum(s, a))
        return self._capped_delta(s, s2, inside), -dphi_over_s[:, None] * u

    def _value(self, pts):
        dom = self.domain
        if self._half_line:
            return pts[:, 0] - dom.lo
        if dom.kind in ("interval", "ball"):
            s = self._centre_offset(pts)[1]
            return self._capped_delta(s, s**2, s < self._cap)
        if dom.kind == "box":
            beta = self.sharpness
            f = np.concatenate([pts - dom.lo, dom.hi - pts], axis=1)  # (m, 2d)
            fmin = f.min(axis=1)
            out = np.empty(pts.shape[0])
            pos = fmin > 0
            if np.any(pos):
                fp = f[pos]
                mn = fmin[pos][:, None]
                out[pos] = fmin[pos] * np.sum((mn / fp) ** beta, axis=1) ** (-1.0 / beta)
            out[~pos] = fmin[~pos]
            return out
        # ellipsoid: phi / sqrt(|grad phi|^2 + (2 phi / scale)^2)
        phi = 1.0 - np.sum(((pts - dom.center) / dom.radii) ** 2, axis=1)
        gphi = -2.0 * (pts - dom.center) / dom.radii**2
        g = np.sqrt(np.sum(gphi**2, axis=1) + (2.0 * phi / self._scale) ** 2)
        return phi / g

    def _grad(self, pts):
        dom = self.domain
        if dom.kind in ("interval", "ball"):
            return self._value_and_grad(pts)[1]
        if dom.kind == "box":
            beta = self.sharpness
            val = self._value(pts)
            grad = np.zeros_like(pts)
            for i in range(dom.d):
                flo = pts[:, i] - dom.lo[i]
                fhi = dom.hi[i] - pts[:, i]
                grad[:, i] += (val / flo) ** (beta + 1.0)
                grad[:, i] -= (val / fhi) ** (beta + 1.0)
            return grad
        # ellipsoid: analytic quotient rule for delta = phi/g
        c, r = dom.center, dom.radii
        p = pts - c
        phi = 1.0 - np.sum((p / r) ** 2, axis=1)
        gphi = -2.0 * p / r**2
        u = np.sum(gphi**2, axis=1)
        du = 8.0 * p / r**4
        v = (2.0 * phi / self._scale) ** 2
        dv = (8.0 / self._scale**2) * phi[:, None] * gphi
        g = np.sqrt(u + v)
        dg = (du + dv) / (2.0 * g[:, None])
        return gphi / g[:, None] - (phi / g**2)[:, None] * dg

    def value(self, x):
        pts, single = _as_batch(x, self.domain.d)
        sd = self.domain._sd(pts)
        if np.any(sd < -self.domain.tol_bd):
            i = int(np.argmax(sd < -self.domain.tol_bd))
            raise GeometryError(f"smooth distance: point {pts[i]} outside the closure")
        return _unbatch(np.maximum(self._value(pts), 0.0), single)

    def grad(self, x):
        pts, single = _as_batch(x, self.domain.d)
        sd = self.domain._sd(pts)
        if np.any(sd < -self.domain.tol_bd):
            i = int(np.argmax(sd < -self.domain.tol_bd))
            raise GeometryError(f"smooth distance: point {pts[i]} outside the closure")
        return _unbatch(self._grad(pts), single)

    @property
    def declared_constants(self):
        return self.c1, self.c2
