"""Closed-form stationary product laws and the generator residual check.

Both simulated families share a product-form invariant law.  The
position factor is proportional to rho(x) for the reflected families
and to rho(x) * exp(-V(x)) for the smooth-wall family; the inert-drift
factor is proportional to exp(-(Gamma^{-1} y, y)), a centered Gaussian
with covariance Gamma / 2.  This module evaluates those densities,
computes the position normalizer by composite quadrature (Monte Carlo
above two dimensions) and the density and CDF of one position
coordinate (in the plane by quadrature along the chords that the
domain's contact rule finds), applies the extended generator

    G f = 1/2 tr(A Hess_x f) + (b - 1/2 A grad V + y) . grad_x f
          - 1/2 (Gamma grad V) . grad_y f

to test functions, and integrates the stationarity identity
"integral of G f d pi = 0" numerically.  The identity holds exactly for
compactly supported f only when rho is constant (integration by parts
leaves a remainder -E_pi[f (y . grad log rho)] otherwise), so the
residual routine insists on constant rho.
"""

import csv

import numpy as np

from .coefficients import CoefficientError
from .geometry import GeometryError, domain_info

__all__ = [
    "BumpTestFunction",
    "StationaryMeasure",
    "bump_basis",
    "generator_apply",
    "marginal_cdf_grid",
    "marginal_pdf",
    "sample_stationary",
    "stationarity_residual",
    "write_residual_report",
]

# rejection sampling gives up below this acceptance rate
MIN_ACCEPT_RATE = 1e-4
MC_SEED = 20210501  # the Monte Carlo normalizer's stream, above two dimensions
CHORD_NODES = 128  # Gauss-Legendre nodes per chord of a planar marginal
CDF_GRID = 4097  # uniform points of a marginal CDF grid, before refinement
MAX_BLOCK = 200_000  # generator evaluations per residual quadrature block
NODES_PER_PANEL = 24  # Gauss-Legendre nodes per panel of a position normalizer
N_ANGLES = 512  # trapezoid angles of a normalizer on a disc or an ellipse
MC_SAMPLES = 400_000  # Monte Carlo points of a normalizer above two dimensions
# residual quadrature nodes per position and per inert-drift axis, by dimension:
# the residual resolves to well below 1e-6 (d = 1) and 1e-4 (d = 2)
RESIDUAL_NODES = {1: (400, 80), 2: (48, 24)}


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def _wall_refined_edges(lo, hi, cuts=(), levels=30):
    """Panel edges on [lo, hi]: interior cuts plus dyadic refinement
    toward both endpoints (the position density may vary fastest there)."""
    span = hi - lo
    offs = span * 2.0 ** -np.arange(1, levels + 1)
    edges = {lo, hi}
    edges.update(lo + o for o in offs)
    edges.update(hi - o for o in offs)
    edges.update(c for c in cuts if lo < c < hi)
    return np.array(sorted(edges))


def _panel_quadrature(edges, nodes_per_panel):
    """Gauss-Legendre nodes and weights compounded over adjacent panels,
    with ``nodes_per_panel`` nodes on each (one count, or one per panel)."""
    counts = np.broadcast_to(nodes_per_panel, (len(edges) - 1,))
    rules = {n: np.polynomial.legendre.leggauss(n) for n in set(counts.tolist())}
    nodes, weights = [], []
    for lo, hi, n in zip(edges[:-1], edges[1:], counts.tolist()):
        xs, ws = rules[n]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        nodes.append(mid + half * xs)
        weights.append(half * ws)
    return np.concatenate(nodes), np.concatenate(weights)


def _split_axis_quadrature(lo, hi, cuts, n_total):
    """Composite Gauss-Legendre on [lo, hi] split at interior cuts, with
    roughly ``n_total`` nodes distributed proportionally to panel length."""
    edges = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    counts = [max(8, int(round(n_total * (b - a) / (hi - lo))))
              for a, b in zip(edges[:-1], edges[1:])]
    return _panel_quadrature(edges, counts)


def _scan_grid(lo, hi, n, cuts=()):
    """``n`` uniform points on [lo, hi] merged with the wall-refined edges,
    so a density that peaks next to a wall or a cut is seen too."""
    return np.unique(
        np.concatenate([np.linspace(lo, hi, n), _wall_refined_edges(lo, hi, cuts)])
    )


def _chord_bounds(domain, axis, t_grid):
    """Per-slice interval of the other axis inside a convex planar domain.

    The line {x_axis = t} is started on each edge of the bounding box
    along the other axis and pushed inward along that axis; the domain's
    contact rule ``_land`` gives where it enters the closure.  Returns the
    two ends and ``ok``, False on the slices the line misses.  A line
    along a box face gets the whole side, where the density is zero.
    """
    other = 1 - axis
    ends, nonempty = [], True
    for edge, sign in zip(domain.bounding_box(), (1.0, -1.0)):
        start = np.empty((t_grid.size, 2))
        start[:, axis] = t_grid
        start[:, other] = edge[other]
        push = np.zeros((t_grid.size, 2))
        push[:, other] = sign
        land, _, _, ok = domain._land(start, push)
        ends.append(land[:, other])
        nonempty = nonempty & ok
    return ends[0], ends[1], nonempty


# ---------------------------------------------------------------------------
# the stationary measure
# ---------------------------------------------------------------------------


def _require_bounded(domain):
    """CoefficientError unless ``domain`` is bounded, the one kind of domain
    on which the position factor is normalizable."""
    if not (np.isfinite(domain.inradius) and np.isfinite(domain.diameter)):
        raise CoefficientError(
            "the position factor is not normalizable on an unbounded domain"
        )


class StationaryMeasure:
    """Product stationary law: position factor times Gaussian inert factor.

    The unnormalized position weight is rho(x) (no potential) or
    rho(x) * exp(-V(x))**v_scale; ``v_scale`` is 1 for the true law and
    can be varied to build deliberately perturbed measures for
    sensitivity checks.  The inert factor exp(-(Gamma^{-1} y, y)) is a
    Gaussian with covariance Gamma / 2; its normalizer is analytic,
    pi^(d/2) sqrt(det Gamma).

    Position normalizers are computed by composite Gauss-Legendre
    quadrature (``NODES_PER_PANEL`` nodes per panel) on the bounding
    segment of any 1-D domain and on 2-D boxes, polar quadrature on discs
    (``N_ANGLES`` angles; an ellipsoid is mapped to the unit disc first),
    and antithetic Monte Carlo (``MC_SAMPLES`` points) above two dimensions
    (the standard error is stored on ``c_x_standard_error``).
    """

    def __init__(self, cs, potential=None, v_scale=1.0):
        ours = domain_info(cs.domain)
        wall = ours if potential is None else domain_info(potential.domain)
        if wall != ours:  # equal-but-distinct domains are allowed
            raise CoefficientError(
                "the potential's domain %s is not the coefficients' %s"
                % (wall, ours))
        self.cs = cs
        self.domain = cs.domain
        self.potential = potential
        self.v_scale = float(v_scale)
        self.c_x_standard_error = None
        _require_bounded(self.domain)
        self._cy = 1.0 / (
            np.pi ** (self.domain.d / 2.0)
            * np.sqrt(np.linalg.det(cs.gamma))
        )
        mass = self._x_mass()
        if not (mass > 0.0 and np.isfinite(mass)):
            raise CoefficientError(
                "position weight integrated to %r; not a usable density" % mass
            )
        self._cx = 1.0 / mass

    # -- densities -------------------------------------------------------------

    def x_weight(self, x):
        """Unnormalized position density; zero outside the open domain."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(pts.shape[0])
        ok = np.atleast_1d(self.domain.inside(pts))
        if np.any(ok):
            w = np.atleast_1d(self.cs.rho(pts[ok]))
            if self.potential is not None:
                w = w * np.atleast_1d(
                    self.potential.boltzmann(pts[ok])
                ) ** self.v_scale
            out[ok] = w
        if np.asarray(x).ndim == 1:
            return float(out[0])
        return out

    def x_pdf(self, x):
        return self._cx * self.x_weight(x)

    def y_weight(self, y):
        """Unnormalized inert-drift density exp(-(Gamma^{-1} y, y))."""
        ys = np.atleast_2d(np.asarray(y, dtype=float))
        q = np.einsum("mi,mi->m", ys, self.cs.gamma_solve(ys))
        out = np.exp(-q)
        if np.asarray(y).ndim == 1:
            return float(out[0])
        return out

    def y_pdf(self, y):
        return self._cy * self.y_weight(y)

    @property
    def c_x(self):
        return self._cx

    @property
    def y_cov(self):
        """Covariance of the inert factor: Gamma / 2."""
        return 0.5 * self.cs.gamma

    # -- the position normalizer -------------------------------------------------

    def _x_mass(self):
        dom = self.domain
        cuts = self._radial_cuts()
        if dom.d == 1:  # the bounding segment, cut where delta is only C2
            lo, hi = dom.bounding_box()
            edges = _wall_refined_edges(float(lo[0]), float(hi[0]), cuts)
            nodes, weights = _panel_quadrature(edges, NODES_PER_PANEL)
            return float(np.sum(weights * self.x_weight(nodes[:, None])))
        if dom.kind == "box" and dom.d == 2:
            axes = [_panel_quadrature(_wall_refined_edges(dom.lo[i], dom.hi[i], cuts),
                                      NODES_PER_PANEL) for i in range(dom.d)]
            nx, wx = axes[0]
            ny, wy = axes[1]
            xx, yy = np.meshgrid(nx, ny, indexing="ij")
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            vals = self.x_weight(pts).reshape(len(nx), len(ny))
            return float(wx @ vals @ wy)
        if dom.kind in ("ball", "ellipsoid") and dom.d == 2:
            return self._mass_radial(cuts)
        return self._mass_monte_carlo()

    def _radial_cuts(self):
        """Interior points where the smoothed wall distance is only C2."""
        if self.potential is None:
            return []
        sd = self.potential.distance
        # a disc's cap is a radius; the ellipsoid's delta has no cap
        if self.domain.kind == "ball" and self.domain.d > 1:
            return [sd._cap]
        return list(sd.breakpoints_1d)

    def _mass_radial(self, cuts):
        dom = self.domain
        if dom.kind == "ball":
            center, radii, jac = dom.center, np.full(2, dom.radius), 1.0
            rmax = dom.radius
        else:
            center, radii = dom.center, dom.radii
            jac = float(np.prod(radii)) / float(np.min(radii)) ** 2
            rmax = float(np.min(radii))
        # map to the round disc of radius rmax, then integrate in polar
        # coordinates: trapezoid in the (periodic, analytic) angle,
        # wall-refined panels in the radius
        edges = _wall_refined_edges(0.0, rmax, cuts)
        rr, rw = _panel_quadrature(edges, NODES_PER_PANEL)
        th = np.linspace(0.0, 2.0 * np.pi, N_ANGLES, endpoint=False)
        dirs = np.column_stack([np.cos(th), np.sin(th)])  # (M, 2)
        scale = radii / rmax
        pts = center + (rr[:, None, None] * dirs[None, :, :]) * scale
        vals = self.x_weight(pts.reshape(-1, 2)).reshape(len(rr), len(th))
        ang = vals.mean(axis=1) * (2.0 * np.pi)
        return jac * float(np.sum(rw * rr * ang))

    def _mass_monte_carlo(self):
        lo, hi = self.domain.bounding_box()
        lo = np.atleast_1d(np.asarray(lo, float))
        hi = np.atleast_1d(np.asarray(hi, float))
        vol = float(np.prod(hi - lo))
        rng = np.random.default_rng(MC_SEED)
        half = MC_SAMPLES // 2
        u = rng.random((half, self.domain.d))
        pts = np.concatenate([lo + u * (hi - lo), hi - u * (hi - lo)])
        vals = self.x_weight(pts) * vol
        self.c_x_standard_error = float(
            np.std(vals, ddof=1) / np.sqrt(len(vals))
        )
        return float(np.mean(vals))


# ---------------------------------------------------------------------------
# one-coordinate marginals
# ---------------------------------------------------------------------------


def marginal_pdf(sm, axis, t_grid):
    """Density of one position coordinate under the stationary x-marginal.

    Above one dimension the joint density is integrated over convex
    cross-sections by ``CHORD_NODES``-point Gauss–Legendre quadrature on
    each chord.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, float))
    d = sm.domain.d
    if d == 1:
        return sm.x_pdf(t_grid[:, None])
    if d != 2:
        raise ValueError("marginal CDF quadrature is implemented for d <= 2")
    s_lo, s_hi, nonempty = _chord_bounds(sm.domain, axis, t_grid)
    g, w = _panel_quadrature([-1.0, 1.0], CHORD_NODES)  # the rule on [-1, 1]
    half = 0.5 * (s_hi - s_lo)
    nodes = 0.5 * (s_hi + s_lo)[:, None] + half[:, None] * g[None, :]
    pts = np.empty((t_grid.size, CHORD_NODES, 2))
    pts[:, :, axis] = t_grid[:, None]
    pts[:, :, 1 - axis] = nodes
    vals = sm.x_pdf(pts.reshape(-1, 2)).reshape(t_grid.size, CHORD_NODES)
    out = (vals @ w) * half
    out[~nonempty] = 0.0
    return out


def marginal_cdf_grid(sm, axis=0):
    """(grid, cdf) arrays for one position coordinate of the x-marginal.

    The grid, ``CDF_GRID`` uniform points, spans the bounding box with
    dyadic refinement toward the walls; the CDF is a renormalized
    cumulative trapezoid rule.  Above one dimension the marginal density
    integrates the joint density over cross-sections (convex domains).
    """
    lo, hi = (np.atleast_1d(np.asarray(b, float)) for b in sm.domain.bounding_box())
    cuts = sm._radial_cuts() if sm.domain.d == 1 else ()
    grid = _scan_grid(lo[axis], hi[axis], CDF_GRID, cuts)
    pdf = marginal_pdf(sm, axis, grid)
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))]
    )
    if not cdf[-1] > 0.0:
        raise ValueError("marginal density integrated to zero")
    cdf = np.maximum.accumulate(cdf / cdf[-1])
    return grid, cdf


# ---------------------------------------------------------------------------
# test functions and the generator
# ---------------------------------------------------------------------------


def _axis_bump(t, center, half):
    """(1-s^2)^3 bump on one axis with first and second derivatives in t."""
    s = (t - center) / half
    live = np.abs(s) < 1.0
    one = np.where(live, 1.0 - s * s, 0.0)
    g = one**3
    dg = np.where(live, -6.0 * s * one**2 / half, 0.0)
    d2g = np.where(live, (30.0 * s * s - 6.0) * one / (half * half), 0.0)
    return g, dg, d2g


class BumpTestFunction:
    """Compactly supported C2 product bump on a position box times an
    inert-drift box: f(x, y) = prod_i g(s_i) prod_j g(t_j) with
    g(s) = (1 - s^2)^3 and s, t the box-normalized coordinates.  Exposes
    the value, both gradients, and the position Hessian analytically."""

    def __init__(self, x_box, y_box):
        self.x_lo, self.x_hi = (np.atleast_1d(np.asarray(b, float)) for b in x_box)
        self.y_lo, self.y_hi = (np.atleast_1d(np.asarray(b, float)) for b in y_box)
        if self.x_lo.shape != self.x_hi.shape or self.y_lo.shape != self.y_hi.shape:
            raise ValueError("box corners must have matching shapes")
        if np.any(self.x_hi <= self.x_lo) or np.any(self.y_hi <= self.y_lo):
            raise ValueError("box corners must satisfy lo < hi per axis")
        self.x_center = 0.5 * (self.x_lo + self.x_hi)
        self.x_half = 0.5 * (self.x_hi - self.x_lo)
        self.y_center = 0.5 * (self.y_lo + self.y_hi)
        self.y_half = 0.5 * (self.y_hi - self.y_lo)
        self.d = self.x_lo.shape[0]

    @property
    def support(self):
        return (self.x_lo, self.x_hi), (self.y_lo, self.y_hi)

    def _parts(self, x, y):
        xs = np.atleast_2d(np.asarray(x, float))
        ys = np.atleast_2d(np.asarray(y, float))
        gx = [
            _axis_bump(xs[:, i], self.x_center[i], self.x_half[i])
            for i in range(self.d)
        ]
        gy = [
            _axis_bump(ys[:, j], self.y_center[j], self.y_half[j])
            for j in range(self.d)
        ]
        return xs, ys, gx, gy

    @staticmethod
    def _product_excluding(parts, skip):
        out = 1.0
        for k, (g, _, _) in enumerate(parts):
            if k not in skip:
                out = out * g
        return out

    def value(self, x, y):
        _, _, gx, gy = self._parts(x, y)
        return self._product_excluding(gx, ()) * self._product_excluding(gy, ())

    def grad_x(self, x, y):
        xs, _, gx, gy = self._parts(x, y)
        fy = self._product_excluding(gy, ())
        out = np.empty_like(xs)
        for i in range(self.d):
            out[:, i] = gx[i][1] * self._product_excluding(gx, (i,)) * fy
        return out

    def grad_y(self, x, y):
        _, ys, gx, gy = self._parts(x, y)
        fx = self._product_excluding(gx, ())
        out = np.empty_like(ys)
        for j in range(self.d):
            out[:, j] = gy[j][1] * self._product_excluding(gy, (j,)) * fx
        return out

    def hess_x(self, x, y):
        xs, _, gx, gy = self._parts(x, y)
        fy = self._product_excluding(gy, ())
        m = xs.shape[0]
        out = np.empty((m, self.d, self.d))
        for i in range(self.d):
            out[:, i, i] = gx[i][2] * self._product_excluding(gx, (i,)) * fy
            for j in range(i + 1, self.d):
                cross = (
                    gx[i][1]
                    * gx[j][1]
                    * self._product_excluding(gx, (i, j))
                    * fy
                )
                out[:, i, j] = cross
                out[:, j, i] = cross
        return out


def bump_basis(domain, gamma, count=6, seed=0):
    """A deterministic family of ``count`` product bumps with varied
    position windows strictly inside the domain and inert-drift windows
    sized by the Gaussian factor's scales sqrt(diag(Gamma) / 2)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    d = domain.d
    lo, hi = (np.atleast_1d(np.asarray(b, float)) for b in domain.bounding_box())
    center = 0.5 * (lo + hi)
    # base box strictly inside: corners of a box inscribed in the bounding
    # box shrink by 1/sqrt(d) for curved domains so every corner stays in
    base_half = 0.85 * 0.5 * (hi - lo)
    if domain.kind not in ("interval", "box"):
        base_half = base_half / np.sqrt(d)
    sig = np.sqrt(np.diag(np.asarray(gamma, float)) / 2.0)
    rng = np.random.default_rng(seed)
    fns = []
    for _ in range(count):
        half = base_half * rng.uniform(0.35, 0.6, size=d)
        slack = base_half - half
        c = center + rng.uniform(-1.0, 1.0, size=d) * slack
        yc = rng.uniform(-1.0, 1.0, size=d) * sig
        yh = rng.uniform(1.5, 2.5, size=d) * sig
        fns.append(
            BumpTestFunction((c - half, c + half), (yc - yh, yc + yh))
        )
    return fns


def generator_apply(cs, potential, f, x, y):
    """Apply the extended generator of the coupled system to f at (x, y).

    G f = 1/2 tr(A Hess_x f) + (b - 1/2 A grad V + y) . grad_x f
          - 1/2 (Gamma grad V) . grad_y f

    where b is the divergence-form drift of the coefficient set.  With
    ``potential=None`` the grad-V terms are dropped (the reflected
    families' inert drift changes only at the boundary, which compactly
    supported test functions never see).  Accepts single points or
    batches; requires value/grad_x/grad_y/hess_x callbacks on f.
    """
    for attr in ("grad_x", "grad_y", "hess_x"):
        if getattr(f, attr, None) is None:
            raise CoefficientError(
                "generator_apply needs a %s callback on the test function"
                % attr
            )
    xs = np.atleast_2d(np.asarray(x, dtype=float))
    ys = np.atleast_2d(np.asarray(y, dtype=float))
    if xs.shape != ys.shape:
        raise ValueError("x and y batches must have matching shapes")
    A = cs.a_matrix(xs)
    H = f.hess_x(xs, ys)
    gx = f.grad_x(xs, ys)
    gy = f.grad_y(xs, ys)
    drift = np.atleast_2d(cs.drift_b(xs)) + ys
    out = 0.5 * np.einsum("mij,mij->m", A, H)
    if potential is not None:
        gV = np.atleast_2d(potential.grad(xs))
        drift = drift - 0.5 * np.einsum("mij,mj->mi", A, gV)
        out = out - 0.5 * np.einsum("mi,mi->m", gV @ cs.gamma.T, gy)
    out = out + np.einsum("mi,mi->m", drift, gx)
    if np.asarray(x).ndim == 1:
        return float(out[0])
    return out


def _residual_preflight(cs):
    """CoefficientError for a varying rho or an unbounded domain, ValueError
    above two dimensions: the coefficients whose residual
    :func:`stationarity_residual` refuses."""
    _require_bounded(cs.domain)
    if not cs.is_constant_rho:
        raise CoefficientError(
            "the stationarity identity holds for constant rho only "
            "(a varying reference density leaves a y.grad(log rho) remainder)"
        )
    if cs.domain.d not in RESIDUAL_NODES:
        raise ValueError("the residual quadrature is implemented for d <= 2")


def stationarity_residual(sm, f):
    """Integrate G f against the stationary measure over the support of f.

    Tensor quadrature: composite Gauss-Legendre per position axis (split
    where the smoothed wall distance is only C2) times Gauss-Legendre per
    inert-drift axis, with the node counts per axis of ``RESIDUAL_NODES``
    (400 and 80 in one dimension, 48 and 24 in two).  The support of f
    must lie strictly inside the domain, the identity requires a constant
    reference density rho, and the domain has one or two dimensions.
    """
    cs, potential, domain = sm.cs, sm.potential, sm.domain
    _residual_preflight(cs)
    (x_lo, x_hi), (y_lo, y_hi) = f.support
    d = domain.d
    if x_lo.shape[0] != d:
        raise ValueError("test function dimension disagrees with the domain")
    corners = np.stack(
        np.meshgrid(*[(x_lo[i], x_hi[i]) for i in range(d)], indexing="ij"),
        axis=-1,
    ).reshape(-1, d)
    if np.any(np.atleast_1d(domain.signed_distance(corners)) <= 0.0):
        raise GeometryError(
            "the support of the test function must lie strictly inside "
            "the domain"
        )

    x_nodes, y_nodes = RESIDUAL_NODES[d]
    cuts = sm._radial_cuts() if d == 1 else []
    ax_x = [
        _split_axis_quadrature(x_lo[i], x_hi[i], cuts, x_nodes)
        for i in range(d)
    ]
    ax_y = [
        _split_axis_quadrature(y_lo[j], y_hi[j], (), y_nodes)
        for j in range(d)
    ]

    def mesh(axes):
        nodes = np.stack(
            np.meshgrid(*[a[0] for a in axes], indexing="ij"), axis=-1
        ).reshape(-1, d)
        weights = axes[0][1]
        for a in axes[1:]:
            weights = np.multiply.outer(weights, a[1]).ravel()
        return nodes, weights

    x_pts, x_w = mesh(ax_x)
    y_pts, y_w = mesh(ax_y)
    x_w = x_w * sm.x_pdf(x_pts)
    y_w = y_w * sm.y_pdf(y_pts)

    block = max(1, MAX_BLOCK // max(1, x_pts.shape[0]))
    total = 0.0
    for start in range(0, y_pts.shape[0], block):
        yb = y_pts[start : start + block]
        wb = y_w[start : start + block]
        xx = np.repeat(x_pts, yb.shape[0], axis=0)
        yy = np.tile(yb, (x_pts.shape[0], 1))
        vals = generator_apply(cs, potential, f, xx, yy).reshape(
            x_pts.shape[0], yb.shape[0]
        )
        total += float(x_w @ vals @ wb)
    return total


# ---------------------------------------------------------------------------
# sampling and reporting
# ---------------------------------------------------------------------------


def sample_stationary(sm, n, seed=None):
    """Draw n independent points from the stationary law.

    Positions come from rejection sampling against the bounding box with
    a grid-estimated envelope (1.25 safety margin); inert drifts are a
    linear transform of standard normals realizing covariance Gamma / 2.
    ``seed`` is anything ``numpy.random.default_rng`` takes, a
    ``SeedSequence`` included.  Raises when the acceptance rate falls
    below 1e-4.
    """
    rng = np.random.default_rng(seed)
    d = sm.domain.d
    n = int(n)
    if n == 0:
        return np.zeros((0, d)), np.zeros((0, d))
    if n < 0:
        raise ValueError("n must be nonnegative")
    lo, hi = (np.atleast_1d(np.asarray(b, float)) for b in sm.domain.bounding_box())

    # grid-scan the envelope height
    grid_axes = [_scan_grid(lo[i], hi[i], 512 if d == 1 else 128) for i in range(d)]
    grid = np.stack(np.meshgrid(*grid_axes, indexing="ij"), axis=-1).reshape(-1, d)
    env = 1.25 * float(np.max(sm.x_weight(grid)))
    if not env > 0.0:
        raise CoefficientError("position weight vanishes on the scan grid")

    out = np.empty((n, d))
    got = 0
    proposed = 0
    while got < n:
        m = max(4 * (n - got), 1024)
        pts = lo + rng.random((m, d)) * (hi - lo)
        u = rng.random(m)
        w = sm.x_weight(pts)
        if np.any(w > env):
            # the scan grid undershot the true peak; clipping would bias
            # the draw, so refuse instead
            raise CoefficientError(
                "position weight exceeds the scanned envelope; the density "
                "is too sharply peaked for bounding-box rejection — supply "
                "a tighter domain or sample by quadrature inversion"
            )
        keep = pts[u * env < w]
        take = min(n - got, keep.shape[0])
        out[got : got + take] = keep[:take]
        got += take
        proposed += m
        if proposed >= 200_000 and got / proposed < MIN_ACCEPT_RATE:
            raise CoefficientError(
                "rejection acceptance rate %.2e is below %.0e; the bounding-"
                "box proposal is too loose for this density — supply a "
                "tighter domain or sample by quadrature inversion"
                % (got / proposed, MIN_ACCEPT_RATE)
            )
    ys = rng.standard_normal((n, d)) @ (sm.cs.gamma_cholesky / np.sqrt(2.0)).T
    return out, ys


def write_residual_report(path, rows):
    """Write residual-check rows as CSV: config_id,f_id,residual,tolerance,pass."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config_id", "f_id", "residual", "tolerance", "pass"])
        for config_id, f_id, residual, tolerance in rows:
            writer.writerow(
                [
                    config_id,
                    f_id,
                    "%.17g" % residual,
                    "%.17g" % tolerance,
                    int(abs(residual) <= tolerance),
                ]
            )
