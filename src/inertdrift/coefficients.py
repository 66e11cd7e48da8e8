"""Diffusion coefficients, inert-drift data, and wall potentials.

Houses the x-dependent diffusion data (dispersion sigma, covariance
A = sigma^T sigma, density rho, and the divergence-form drift
b_k = (1/(2 rho)) * sum_i d_i(rho * a_ik)), the constant inert-drift data
(a symmetric positive-definite matrix Gamma and a boundary field v), and
the wall-potential family V(x) = exp(1/(n * delta(x))) built on a smooth
interior distance, together with the gradients of all of the above.
"""

from __future__ import annotations

import numpy as np

from .geometry import SmoothDistance, _as_batch, _unbatch

__all__ = [
    "CoefficientError",
    "CoefficientSet",
    "Potential",
    "PotentialOverflowError",
    "make_coefficients",
]

_VALIDATION_SEED = 20260817
# interior sample size of the construction-time ellipticity and density checks
_VALIDATION_POINTS = 256
# finite-difference step of ``drift_b``, as a fraction of the domain scale
_FD_STEP_FRACTION = 1e-5


class CoefficientError(ValueError):
    """Raised when coefficient data fails construction-time validation."""


class PotentialOverflowError(RuntimeError):
    """Raised when a wall potential is evaluated too close to the boundary for
    double precision; steppers must clamp or resample the point first."""


def _domain_scale(domain):
    """Finite length scale of a domain (diameter, or the reference length when
    the domain is unbounded)."""
    diam = domain.diameter
    return diam if np.isfinite(diam) else domain.reference_length


def _wrap_scalar(fn, vectorized):
    """Normalize a scalar-valued coefficient callable to act on (m, d) batches."""
    if vectorized:
        def batched(pts):
            return np.asarray(fn(pts), dtype=float).reshape(pts.shape[0])
    else:
        def batched(pts):
            return np.array([float(fn(p)) for p in pts])
    return batched


def _wrap_vector(fn, d, vectorized):
    if vectorized:
        def batched(pts):
            return np.asarray(fn(pts), dtype=float).reshape(pts.shape[0], d)
    else:
        def batched(pts):
            return np.stack([np.asarray(fn(p), dtype=float).reshape(d) for p in pts])
    return batched


def _wrap_matrix(fn, d, vectorized):
    if vectorized:
        def batched(pts):
            return np.asarray(fn(pts), dtype=float).reshape(pts.shape[0], d, d)
    else:
        def batched(pts):
            return np.stack(
                [np.asarray(fn(p), dtype=float).reshape(d, d) for p in pts]
            )
    return batched


class CoefficientSet:
    """Immutable bundle of diffusion and inert-drift coefficients on a domain.

    Parameters
    ----------
    domain : Domain
        Geometry the coefficients live on.
    gamma : array_like
        Symmetric positive-definite (d, d) matrix scaling the inert drift.
    sigma : array_like or callable, optional
        Dispersion matrix: a constant (d, d) array, or a callable mapping a
        point (length-d array) to a (d, d) matrix (with ``vectorized=True``
        the callable maps (m, d) batches to (m, d, d)).  Defaults to the
        identity.
    rho : float or callable, optional
        Strictly positive density, constant or a callable with the same
        batching convention.  Defaults to 1.
    inert_field : str or callable, optional
        Boundary field driving the inert component: ``"gamma_normal"``
        (v = Gamma n, the product-measure case, default), ``"a0_conormal"``
        (v = a0 * u), or a callable returning v at boundary points.
    a0 : float, optional
        Scale used by ``"a0_conormal"``.
    conormal_convention : {"full", "half"}, optional
        Whether the conormal is A n (default) or A n / 2.
    drift_const : array_like, optional
        Declares the drift to be this constant vector; enables the fast
        ensemble kernels.  (When sigma and rho are both constant the zero
        drift is inferred automatically.)  Otherwise ``drift_b``
        differentiates rho * A by central differences with step 1e-5 times
        the domain scale, falling back to one-sided stencils next to the
        boundary (counted in ``diagnostics``).
    vectorized : bool, optional
        Declare all supplied callables batch-aware.
    name : str, optional
        Label recorded in run manifests.

    Instances are immutable after construction and safe to share across
    trajectories; the ``diagnostics`` counters are advisory bookkeeping only.
    """

    def __init__(
        self,
        domain,
        *,
        gamma,
        sigma=None,
        rho=1.0,
        inert_field="gamma_normal",
        a0=1.0,
        conormal_convention="full",
        drift_const=None,
        vectorized=False,
        name="custom",
    ):
        self.domain = domain
        d = domain.d
        self.name = str(name)

        if conormal_convention not in ("full", "half"):
            raise CoefficientError(
                "conormal_convention must be 'full' or 'half', got %r"
                % (conormal_convention,)
            )
        self.conormal_convention = conormal_convention

        # --- gamma ----------------------------------------------------------
        G = np.asarray(gamma, dtype=float)
        if G.shape != (d, d) or not np.all(np.isfinite(G)):
            raise CoefficientError(
                "gamma must be a finite (%d, %d) matrix, got shape %s"
                % (d, d, G.shape)
            )
        scale = max(1.0, float(np.abs(G).max()))
        if np.abs(G - G.T).max() > 1e-12 * scale:
            raise CoefficientError("gamma must be symmetric")
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise CoefficientError(
                "gamma must be positive definite (factorization failed)"
            ) from exc
        self._gamma = G.copy()
        self._gamma.setflags(write=False)
        self._gamma_chol = L
        self._gamma_chol.setflags(write=False)
        self._gamma_inv_cache = None

        # --- sigma ----------------------------------------------------------
        if sigma is None:
            self._sigma_const = np.eye(d)
            self._sigma_fn = None
        elif callable(sigma):
            self._sigma_const = None
            self._sigma_fn = _wrap_matrix(sigma, d, vectorized)
        else:
            M = np.asarray(sigma, dtype=float)
            if M.shape != (d, d) or not np.all(np.isfinite(M)):
                raise CoefficientError(
                    "constant sigma must be a finite (%d, %d) matrix" % (d, d)
                )
            self._sigma_const = M.copy()
            self._sigma_fn = None
        if self._sigma_const is not None:
            self._sigma_const.setflags(write=False)
            self._a_const = self._sigma_const.T @ self._sigma_const
            self._a_const.setflags(write=False)
        else:
            self._a_const = None

        # --- rho --------------------------------------------------------------
        if callable(rho):
            self._rho_const = None
            self._rho_fn = _wrap_scalar(rho, vectorized)
        else:
            r = float(rho)
            if not np.isfinite(r) or r <= 0.0:
                raise CoefficientError("constant rho must be a positive number")
            self._rho_const = r
            self._rho_fn = None

        # --- inert field ------------------------------------------------------
        if callable(inert_field):
            self._inert_fn = _wrap_vector(inert_field, d, vectorized)
            self.inert_field = "custom"
        elif inert_field in ("gamma_normal", "a0_conormal"):
            self._inert_fn = None
            self.inert_field = inert_field
        else:
            raise CoefficientError(
                "inert_field must be 'gamma_normal', 'a0_conormal', or a "
                "callable, got %r" % (inert_field,)
            )
        self.a0 = float(a0)
        if not np.isfinite(self.a0):
            raise CoefficientError("a0 must be a finite number, got %r" % (a0,))

        # --- drift ------------------------------------------------------------
        if drift_const is not None:
            bc = np.asarray(drift_const, dtype=float)
            if bc.shape != (d,) or not np.all(np.isfinite(bc)):
                raise CoefficientError(
                    "drift_const must be a finite length-%d vector" % d
                )
            self._drift_const = bc.copy()
        elif self._sigma_const is not None and self._rho_const is not None:
            # constant sigma and rho make every divergence term vanish
            self._drift_const = np.zeros(d)
        else:
            self._drift_const = None
        if self._drift_const is not None:
            self._drift_const.setflags(write=False)

        self.fd_step = _FD_STEP_FRACTION * _domain_scale(domain)
        self._diagnostics = {"one_sided_stencil_points": 0}

        self._validate_on_grid(_VALIDATION_POINTS)

    # -- construction-time validation ------------------------------------------
    def _validation_grid(self, n):
        dom = self.domain
        if np.isfinite(dom.diameter):
            rng = np.random.default_rng(_VALIDATION_SEED)
            pts = dom.sample_interior(n, rng)
            return np.vstack([pts, np.asarray(dom.centroid)[None, :]])
        # half-line: deterministic ladder of interior points
        t = np.linspace(0.01, 4.0, n)
        return (dom.lo + t * dom.reference_length)[:, None]

    def _validate_on_grid(self, n):
        pts = self._validation_grid(n)
        amats = self._a_batch(pts)
        asym = np.abs(amats - np.swapaxes(amats, -1, -2)).max()
        amax = np.abs(amats).max()
        if not np.all(np.isfinite(amats)) or asym > 1e-10 * max(1.0, amax):
            raise CoefficientError(
                "A(x) = sigma^T sigma must be finite and symmetric on the "
                "validation grid"
            )
        eigs = np.linalg.eigvalsh(amats)
        lmin = float(eigs.min())
        lmax = float(eigs.max())
        if lmin <= 1e-12 * max(1.0, lmax):
            raise CoefficientError(
                "A(x) must be uniformly elliptic; smallest eigenvalue on the "
                "validation grid is %g" % lmin
            )
        self.lambda_bounds = (lmin, lmax)
        rv = self._rho_batch(pts)
        if not np.all(np.isfinite(rv)) or rv.min() <= 0.0:
            raise CoefficientError(
                "rho must be finite and strictly positive; minimum on the "
                "validation grid is %g" % float(rv.min())
            )
        self.rho_bounds = (float(rv.min()), float(rv.max()))

    # -- batched internal evaluation ---------------------------------------------
    def _sigma_batch(self, pts):
        if self._sigma_const is not None:
            return np.broadcast_to(
                self._sigma_const, (pts.shape[0],) + self._sigma_const.shape
            )
        return self._sigma_fn(pts)

    def _a_batch(self, pts):
        if self._a_const is not None:
            return np.broadcast_to(
                self._a_const, (pts.shape[0],) + self._a_const.shape
            )
        s = self._sigma_fn(pts)
        return np.einsum("mji,mjk->mik", s, s)

    def _rho_batch(self, pts):
        if self._rho_const is not None:
            return np.full(pts.shape[0], self._rho_const)
        return self._rho_fn(pts)

    def _g_row(self, pts, i):
        """Row i of rho(x) * A(x), the quantity the drift differentiates."""
        return self._rho_batch(pts)[:, None] * self._a_batch(pts)[:, i, :]

    # -- public evaluation ---------------------------------------------------------
    @property
    def is_constant_sigma(self):
        return self._sigma_const is not None

    @property
    def is_constant_rho(self):
        return self._rho_const is not None

    @property
    def constant_drift(self):
        """Constant drift vector when declared or inferable, else None."""
        return self._drift_const

    @property
    def gamma(self):
        return self._gamma

    @property
    def gamma_cholesky(self):
        """Lower-triangular factor L with L L^T = gamma."""
        return self._gamma_chol

    @property
    def gamma_inv(self):
        if self._gamma_inv_cache is None:
            inv = np.linalg.inv(self._gamma)
            inv.setflags(write=False)
            self._gamma_inv_cache = inv
        return self._gamma_inv_cache

    def gamma_solve(self, y):
        """Solve gamma @ z = y for z; accepts a (d,) vector or (m, d) batch."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            return np.linalg.solve(self._gamma, y)
        return np.linalg.solve(self._gamma, y.T).T

    @property
    def diagnostics(self):
        return dict(self._diagnostics)

    def sigma(self, x):
        pts, single = _as_batch(x, self.domain.d)
        return _unbatch(np.array(self._sigma_batch(pts)), single)

    def a_matrix(self, x):
        pts, single = _as_batch(x, self.domain.d)
        return _unbatch(np.array(self._a_batch(pts)), single)

    def rho(self, x):
        pts, single = _as_batch(x, self.domain.d)
        return _unbatch(self._rho_batch(pts), single)

    def drift_b(self, x):
        """Divergence-form drift b_k = (1/(2 rho)) sum_i d_i(rho a_ik)."""
        pts, single = _as_batch(x, self.domain.d)
        if self._drift_const is not None:
            vals = np.broadcast_to(self._drift_const, pts.shape).copy()
        else:
            vals = self._drift_fd(pts)
        return _unbatch(vals, single)

    def _drift_fd(self, pts):
        dom = self.domain
        m, d = pts.shape
        h = self.fd_step
        acc = np.zeros((m, d))
        one_sided = 0
        for i in range(d):
            shift = np.zeros(d)
            shift[i] = h
            plus = pts + shift
            minus = pts - shift
            okp = np.atleast_1d(dom.in_closure(plus))
            okm = np.atleast_1d(dom.in_closure(minus))
            stuck = ~(okp | okm)
            if np.any(stuck):
                j = int(np.argmax(stuck))
                raise CoefficientError(
                    "drift_b: no finite-difference stencil of step %.3e around "
                    "%s fits in the closure; evaluate the drift at points at "
                    "least one step inside the domain" % (h, pts[j])
                )
            gp = self._g_row(plus, i)
            gm = self._g_row(minus, i)
            row = np.empty((m, d))
            both = okp & okm
            row[both] = (gp[both] - gm[both]) / (2.0 * h)
            rest_idx = np.where(~both)[0]
            if rest_idx.size:
                g0 = self._g_row(pts[rest_idx], i)
                fwd = okp[rest_idx]  # the minus point left the closure
                row[rest_idx[fwd]] = (gp[rest_idx[fwd]] - g0[fwd]) / h
                row[rest_idx[~fwd]] = (g0[~fwd] - gm[rest_idx[~fwd]]) / h
                one_sided += int(rest_idx.size)
            acc += row
        if one_sided:
            self._diagnostics["one_sided_stencil_points"] += one_sided
        return acc / (2.0 * self._rho_batch(pts)[:, None])

    def conormal_u(self, x_boundary, convention=None):
        """Conormal direction at a boundary point: A n (full) or A n / 2 (half)."""
        conv = self.conormal_convention if convention is None else convention
        if conv not in ("full", "half"):
            raise CoefficientError(
                "convention must be 'full' or 'half', got %r" % (conv,)
            )
        pts, single = _as_batch(x_boundary, self.domain.d)
        nrm = np.atleast_2d(self.domain.inward_normal(pts))
        u = np.einsum("mik,mk->mi", self._a_batch(pts), nrm)
        if conv == "half":
            u = 0.5 * u
        return _unbatch(u, single)

    def inert_v(self, x_boundary):
        """Boundary field v feeding the inert component on boundary contact."""
        pts, single = _as_batch(x_boundary, self.domain.d)
        if self._inert_fn is not None:
            return _unbatch(self._inert_fn(pts), single)
        if self.inert_field == "gamma_normal":
            nrm = np.atleast_2d(self.domain.inward_normal(pts))
            return _unbatch(nrm @ self._gamma.T, single)
        u = np.atleast_2d(self.conormal_u(pts, self.conormal_convention))
        return _unbatch(self.a0 * u, single)

    def __repr__(self):
        return "CoefficientSet(name=%r, domain=%r, inert_field=%r)" % (
            self.name,
            self.domain,
            self.inert_field,
        )


def make_coefficients(preset, domain, gamma, *, a_diag=None, **kwargs):
    """Build one of the named coefficient presets on ``domain``.

    Presets
    -------
    ``identity``
        sigma = I, rho = 1 (zero drift).
    ``exp_density``
        sigma = I, rho(x) = exp(x_1), so the drift is (1/2, 0, ..., 0).
    ``anisotropic``
        sigma = diag(sqrt(a_diag)), rho = 1; requires ``a_diag``.

    Remaining keyword arguments (inert_field, a0, conormal_convention, ...)
    pass through to :class:`CoefficientSet`.
    """
    if preset == "identity":
        return CoefficientSet(domain, gamma=gamma, name="identity", **kwargs)
    if preset == "exp_density":
        def rho(pts):
            return np.exp(pts[:, 0])

        drift = np.zeros(domain.d)
        drift[0] = 0.5
        return CoefficientSet(
            domain,
            gamma=gamma,
            rho=rho,
            drift_const=drift,
            vectorized=True,
            name="exp_density",
            **kwargs,
        )
    if preset == "anisotropic":
        if a_diag is None:
            raise CoefficientError("preset 'anisotropic' requires a_diag")
        try:
            diag = np.asarray(a_diag, dtype=float)
        except (TypeError, ValueError):
            diag = None
        if diag is None or diag.shape != (domain.d,) or np.any(diag <= 0.0):
            raise CoefficientError(
                "a_diag must give %d positive diagonal entries" % domain.d
            )
        return CoefficientSet(
            domain,
            gamma=gamma,
            sigma=np.diag(np.sqrt(diag)),
            name="anisotropic",
            **kwargs,
        )
    raise CoefficientError(
        "unknown coefficient preset %r; expected 'identity', 'exp_density', "
        "or 'anisotropic'" % (preset,)
    )


class Potential:
    """Wall potential with gradient, in two kinds.

    ``regularized_vn``
        V(x) = exp(1 / (n * delta(x))) for a smooth interior distance delta
        and sharpness index n >= 1.  V >= 1 inside the domain, blows up at
        the boundary, and exp(-V) increases pointwise with n.
    ``user_supplied``
        Arbitrary callables V and grad_V on a given domain.

    Evaluation of ``value``/``grad`` near the boundary is guarded twice:
    when the distance falls below ``delta_floor`` (1e-12 of the domain
    scale), and whenever the exponent 1/(n*delta) would exceed
    ``EXPONENT_CAP`` so that exp overflows double precision.  Both raise
    :class:`PotentialOverflowError`; steppers are expected to clamp or
    resample before evaluating.  ``boltzmann`` (the factor exp(-V)) needs
    no guard: it decays to zero at the boundary and is defined on the whole
    closure.
    """

    EXPONENT_CAP = 700.0

    def __init__(
        self,
        kind,
        *,
        distance=None,
        n=None,
        domain=None,
        V=None,
        grad_V=None,
        vectorized=False,
    ):
        if kind == "regularized_vn":
            if not isinstance(distance, SmoothDistance):
                raise CoefficientError(
                    "kind 'regularized_vn' needs a SmoothDistance instance"
                )
            if n is None or int(n) != n or int(n) < 1:
                raise CoefficientError(
                    "n must be a positive integer, got %r" % (n,)
                )
            self.kind = kind
            self.distance = distance
            self.domain = distance.domain
            self.n = int(n)
            self._v_fn = None
            self._dv_fn = None
        elif kind == "user_supplied":
            if domain is None or V is None or grad_V is None:
                raise CoefficientError(
                    "kind 'user_supplied' needs domain, V, and grad_V"
                )
            self.kind = kind
            self.distance = None
            self.domain = domain
            self.n = None
            self._v_fn = _wrap_scalar(V, vectorized)
            self._dv_fn = _wrap_vector(grad_V, domain.d, vectorized)
        else:
            raise CoefficientError(
                "unknown potential kind %r; expected 'regularized_vn' or "
                "'user_supplied'" % (kind,)
            )

    @property
    def delta_floor(self):
        """Hard floor on the boundary distance below which evaluation errors."""
        return 1e-12 * _domain_scale(self.domain)

    def _guarded_exponent(self, pts):
        dl = np.atleast_1d(self.distance.value(pts))
        floor = self.delta_floor
        if np.any(dl < floor):
            i = int(np.argmin(dl))
            raise PotentialOverflowError(
                "potential overflow: boundary distance %.3e at %s is below "
                "the floor %.3e" % (float(dl[i]), pts[i], floor)
            )
        expo = 1.0 / (self.n * dl)
        if np.any(expo > self.EXPONENT_CAP):
            i = int(np.argmax(expo))
            raise PotentialOverflowError(
                "potential overflow: exponent 1/(n*delta) = %.3e at %s "
                "exceeds %.0f; clamp or resample the step before evaluating"
                % (float(expo[i]), pts[i], self.EXPONENT_CAP)
            )
        return dl, expo

    def value(self, x):
        """Potential value; raises PotentialOverflowError too near the wall."""
        pts, single = _as_batch(x, self.domain.d)
        if self.kind == "user_supplied":
            return _unbatch(self._v_fn(pts), single)
        _, expo = self._guarded_exponent(pts)
        return _unbatch(np.exp(expo), single)

    def grad(self, x):
        """Gradient of the potential (chain rule through the smooth distance)."""
        pts, single = _as_batch(x, self.domain.d)
        if self.kind == "user_supplied":
            return _unbatch(self._dv_fn(pts), single)
        dl, expo = self._guarded_exponent(pts)
        gd = np.atleast_2d(self.distance.grad(pts))
        pref = -np.exp(expo) / (self.n * dl**2)
        return _unbatch(pref[:, None] * gd, single)

    def boltzmann(self, x):
        """exp(-V(x)), defined on the whole closure (zero at the boundary)."""
        pts, single = _as_batch(x, self.domain.d)
        if self.kind == "user_supplied":
            return _unbatch(np.exp(-self._v_fn(pts)), single)
        dl = np.atleast_1d(self.distance.value(pts))
        out = np.zeros(pts.shape[0])
        pos = dl > 0.0
        if np.any(pos):
            expo = 1.0 / (self.n * dl[pos])
            live = expo < self.EXPONENT_CAP
            vals = np.zeros(expo.shape[0])
            vals[live] = np.exp(-np.exp(expo[live]))
            out[pos] = vals
        return _unbatch(out, single)

    def __repr__(self):
        if self.kind == "regularized_vn":
            return "Potential(kind='regularized_vn', n=%d)" % self.n
        return "Potential(kind='user_supplied')"
