"""Ensemble integrators for the constrained-diffusion families.

Three stepping families share one ensemble driver:

``reflected``
    dX = sigma dB + (b + K) dt + u dL at the boundary, dK = v dL, where L
    is boundary local time, u is the conormal push, and v is the inert
    coupling field.

``driftless_weighted``
    The same reflected chain with the inert drift K removed from the
    x-update but still accumulated through dK = v dL, together with the
    multiplicative reweighting factor whose expectation reproduces the
    reflected family's law (discrete Girsanov identity; exact for the
    Euler chain because K enters the drift linearly).

``gradient``
    dX = sigma dB + (b - (1/2) A grad(V) + K) dt and
    dK = -(1/2) Gamma grad(V) dt for a smooth confining potential V; no
    reflection happens because the potential wall is impassable.  Steps
    near the wall are sub-divided so no single move exceeds a fixed
    fraction of the inradius, and proposals that would land beyond the
    resolvable wall layer are redrawn.

Noise protocol, one for every backend: path p draws from its own PCG64
stream, spawned as child p of ``SeedSequence(seed)``.  Per chunk the host
loop :func:`_run` draws each stream's base normals (one d-vector per step)
and calls the chunk stepper (a numpy kernel of :mod:`._kernels`, or a
generic per-path stepper built on the single-step operations below) once.
The gradient stepper then draws each stream's reserve pool, consumed by
sub-steps and redraws; a path that exhausts its pool goes back to the
start of its step, gets a fresh pool from its stream through one shared
``refill`` (:func:`_gradient_step`, which holds the refill budget), and
redoes that step at once.  Both backends report one diagnostics schema
(:func:`_diagnostics`).
Results are reproducible for a fixed (seed, backend) pair.  The two
backends are bit-identical on the interval and, for the gradient family,
on the disc.  Both reflected steppers land with the domain's contact rule
(``_land`` in :mod:`.geometry`); on the disc they agree to rounding,
because the generic stepper evaluates the push and v at projected points
(all tested).
"""

import dataclasses
import functools
import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import (
    FLAG_BOUNDARY_OVERFLOW,
    FLAG_NAMES,
    FLAG_OK,
    FLAG_REFLECT_FAILURE,
    FLAG_WEIGHT_OVERFLOW,
    LOG_WEIGHT_CAP,
)
from .coefficients import Potential, PotentialOverflowError
from .skorokhod import SkorokhodError, reflect_step

FAMILIES = ("reflected", "gradient", "driftless_weighted")

MAX_SUBSTEPS = 200
RESAMPLE_CAP = 50


def _as_int(value, name, low):
    """``value`` as an int; ValueError unless an integer >= ``low`` (0 or 1)."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral or value < low:
        raise ValueError("%s must be a %s integer, got %r" % (
            name, "positive" if low else "non-negative", value))
    return int(value)


def _check_positive(value, name):
    """ValueError unless ``value`` is a positive finite number."""
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (number and 0.0 < value < np.inf):
        raise ValueError("%s must be a positive finite number, got %r" % (name, value))


def _as_vector(value, d, name):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.shape != (d,) or not np.all(np.isfinite(v)):
        raise ValueError("%s must be a finite length-%d vector" % (name, d))
    return v


@dataclass(frozen=True)
class SystemState:
    """One path's instantaneous state: position, inert drift, local time."""

    x: np.ndarray
    k: np.ndarray
    ell: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, float)))
        object.__setattr__(self, "k", np.atleast_1d(np.asarray(self.k, float)))
        if self.x.shape != self.k.shape:
            raise ValueError("state x and k must have matching shapes")


@dataclass(frozen=True)
class GirsanovWeight:
    """Multiplicative reweighting factor, tracked in log space."""

    log_weight: float = 0.0

    @property
    def weight(self):
        return float(np.exp(self.log_weight))


@dataclass(frozen=True)
class SimConfig:
    """Ensemble run description.

    ``dt_base`` is the outer step; the gradient family may sub-divide it
    adaptively (``adaptive``) so that no sub-move exceeds
    ``h_max_fraction`` of the domain inradius, and redraws proposals whose
    smoothed distance falls below ``delta_guard`` (None: the potential's
    resolvable wall layer).  Snapshots are recorded at every
    ``snap_every``-th step whose time exceeds ``burn_in``.
    """

    family: str
    dt_base: float
    t_end: float
    n_paths: int
    seed: int
    burn_in: float = 0.0
    snap_every: int = 1
    x0: tuple = None
    k0: tuple = None
    chunk_size: int = 4096
    adaptive: bool = True
    h_max_fraction: float = 0.05
    delta_guard: float = None
    max_substeps: int = MAX_SUBSTEPS
    resample_cap: int = RESAMPLE_CAP

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                "family must be one of %s, got %r" % (FAMILIES, self.family)
            )
        if not (self.dt_base > 0.0 and np.isfinite(self.dt_base)):
            raise ValueError("dt_base must be a positive number")
        if not (self.t_end > 0.0 and np.isfinite(self.t_end)):
            raise ValueError("t_end must be a positive number")
        if not (0.0 <= self.burn_in < self.t_end):
            raise ValueError("burn_in must satisfy 0 <= burn_in < t_end")
        for name, low in (("n_paths", 1), ("seed", 0), ("snap_every", 1),
                          ("chunk_size", 1), ("max_substeps", 1),
                          ("resample_cap", 0)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, low))
        if not isinstance(self.adaptive, bool):
            raise ValueError("adaptive must be true or false, got %r" % (self.adaptive,))
        _check_positive(self.h_max_fraction, "h_max_fraction")
        if self.delta_guard is not None:
            _check_positive(self.delta_guard, "delta_guard")
        q = self.t_end / self.dt_base
        if abs(q - round(q)) > 1e-6 * max(1.0, abs(q)):
            raise ValueError("t_end must be an integer multiple of dt_base")
        for name in ("x0", "k0"):
            value = getattr(self, name)
            if value is not None:
                value = tuple(float(v) for v in np.atleast_1d(value))
                object.__setattr__(self, name, value)

    @property
    def n_steps(self):
        return int(round(self.t_end / self.dt_base))

    @property
    def first_snapshot_step(self):
        """First recorded step: the first multiple of snap_every whose time
        strictly exceeds burn_in (so the final step is recorded whenever
        snap_every divides n_steps)."""
        q = self.burn_in / self.dt_base
        r = round(q)
        base = (int(r) if abs(q - r) < 1e-6 else int(np.floor(q))) + 1
        se = self.snap_every
        return ((base + se - 1) // se) * se

    @property
    def n_snapshots(self):
        if self.first_snapshot_step > self.n_steps:
            return 0
        return (self.n_steps - self.first_snapshot_step) // self.snap_every + 1

    @property
    def snapshot_times(self):
        idx = self.first_snapshot_step + self.snap_every * np.arange(
            self.n_snapshots
        )
        return idx * self.dt_base

    def as_dict(self):
        out = dataclasses.asdict(self)
        out["x0"] = list(self.x0) if self.x0 is not None else None
        out["k0"] = list(self.k0) if self.k0 is not None else None
        return out


@dataclass
class TrajectoryBatch:
    """Snapshot arrays for an ensemble: shapes (P, S, d) / (P, S) / (P,)."""

    times: np.ndarray
    x: np.ndarray
    k: np.ndarray
    ell: np.ndarray
    flags: np.ndarray
    log_weights: np.ndarray
    diagnostics: dict
    config: SimConfig
    backend: str
    run_info: dict

    @property
    def n_paths(self):
        return self.x.shape[0]

    @property
    def n_snapshots(self):
        return self.x.shape[1]

    @property
    def dim(self):
        return self.x.shape[2]

    @property
    def ok(self):
        """Boolean mask of paths that finished without any flag."""
        return self.flags == FLAG_OK

    @property
    def weights(self):
        if self.log_weights is None:
            return None
        return np.exp(self.log_weights)

    def flag_counts(self):
        return {
            name: int((self.flags == code).sum())
            for code, name in sorted(FLAG_NAMES.items())
            if code != FLAG_OK
        }

    def to_csv(self, path):
        """Write one row per (path, snapshot): path_id,t,x*,k*,ell.

        Path ids are written with ``%d`` and every other value with
        ``%.17g``, which round-trips float64 exactly.  The file is streamed
        in blocks of a fixed number of rows (see :func:`_write_csv`).
        """
        P, S, d = self.x.shape
        cols = (
            ["path_id", "t"]
            + ["x%d" % (i + 1) for i in range(d)]
            + ["k%d" % (i + 1) for i in range(d)]
            + ["ell"]
        )
        x = np.asarray(self.x, dtype=float).reshape(P * S, d)
        k = np.asarray(self.k, dtype=float).reshape(P * S, d)
        columns = ([x[:, i] for i in range(d)] + [k[:, i] for i in range(d)]
                   + [np.asarray(self.ell, dtype=float).reshape(P * S)])
        _write_csv(path, ",".join(cols), P, self.times, columns)

    def kish_ess(self):
        """Kish effective sample size (sum w)^2 / sum w^2 of the weights of
        the paths that finished without a flag (0.0 when none did)."""
        lw = self.log_weights[self.ok]
        if not len(lw):
            return 0.0
        w = np.exp(lw - lw.max())
        return float(w.sum() ** 2 / (w * w).sum())

    def write_weights(self, path):
        """Write one row per path: path_id,log_weight."""
        _write_csv(path, "path_id,log_weight", self.n_paths, None,
                   [np.asarray(self.log_weights, dtype=float)])

    def manifest(self):
        """Deterministic run record: config echo, seed, versions, counters."""
        info = {
            "config": self.config.as_dict(),
            "backend": self.backend,
            "n_snapshots": int(self.n_snapshots),
            "snapshot_t_first": float(self.times[0]) if len(self.times) else None,
            "snapshot_t_last": float(self.times[-1]) if len(self.times) else None,
            "diagnostics": {k: int(v) for k, v in sorted(self.diagnostics.items())},
            "flag_counts": self.flag_counts(),
            "versions": _version_info(),
        }
        if self.log_weights is not None:
            info["kish_ess"] = self.kish_ess()
        info.update(self.run_info)
        return info

    def write_manifest(self, path):
        with open(path, "w") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# Rows per block of _write_csv.  The per-block numpy calls cost nothing
# measurable from 2048 rows up, while a block's strings take about 1 MB per
# 2048 rows and add to the peak RSS of a run.
_CSV_BLOCK_ROWS = 2048


def _g17(values):
    """The ``%.17g`` text of each float in ``values``, in one ``%`` call."""
    if not len(values):
        return []
    return ("\n".join(["%.17g"] * len(values)) % tuple(values.tolist())).split("\n")


def _run_text(values):
    """The ``%.17g`` text of a float64 column, formatting each run once.

    Neighbours are compared through the int64 view of their bits, so -0.0,
    0.0 and each NaN keep their own text.
    """
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
    text = np.array(_g17(values[starts]), dtype=object)
    return np.repeat(text, np.diff(np.r_[starts, len(values)])).tolist()


def _write_csv(path, header, n_paths, times, columns):
    """Stream a path-major table to ``path``, _CSV_BLOCK_ROWS rows at a time.

    With S = len(times) (S = 1 when ``times`` is None), row p*S + s holds
    the path id p, then times[s] unless ``times`` is None, then each
    float64 column's entry at that row.  The bytes equal those of
    ``np.savetxt`` with ``fmt=["%d"] + ["%.17g", ...]``, ``delimiter=","``
    and ``comments=""``; the ids are formatted once per path, the times once
    per snapshot and each run of equal values once.
    """
    ids = np.array(["%d" % p for p in range(n_paths)], dtype=object)
    if times is None:
        n_snaps, time_text = 1, None
    else:
        n_snaps = len(times)
        time_text = np.array(_g17(np.asarray(times, dtype=float)), dtype=object)
    n_rows = n_paths * n_snaps
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, n_rows)
            rows = np.arange(start, stop)
            block = [ids[rows // n_snaps].tolist()]
            if time_text is not None:
                block.append(time_text[rows % n_snaps].tolist())
            block += [_run_text(c[start:stop]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*block))))
            fh.write("\n")


def _version_info():
    from . import __version__ as _pkg_version

    return {"inertdrift": _pkg_version, "numpy": np.__version__}


# ---------------------------------------------------------------------------
# single-step reference operations (arbitrary coefficients, one path)
# ---------------------------------------------------------------------------


def step_reflected(cs, domain, state, dt, noise, use_inert_drift=True,
                   max_step=None):
    """One Euler step of the reflected family from ``state``.

    ``noise`` holds d standard normals; the Brownian increment is
    sqrt(dt) * sigma(x) @ noise.  With ``use_inert_drift=False`` the inert
    drift K is left out of the move (driftless variant) but still absorbs
    v dL on contact.  Contact pushes along the conormal of ``cs`` and adds
    v(x_contact) dL to K, evaluated at the landing point.
    """
    x = np.atleast_1d(np.asarray(state.x, float))
    k = np.atleast_1d(np.asarray(state.k, float))
    z = _as_vector(noise, domain.d, "noise")
    drift = cs.drift_b(x)
    if use_inert_drift:
        drift = drift + k
    inc = np.sqrt(dt) * (cs.sigma(x) @ z) + drift * dt
    x_new, dl = reflect_step(
        domain, x, inc, push_dir=lambda xi: cs.conormal_u(xi), max_step=max_step
    )
    k_new = k + cs.inert_v(x_new) * dl if dl > 0.0 else k
    return SystemState(x=x_new, k=k_new, ell=state.ell + dl, t=state.t + dt)


def girsanov_weight_step(cs, state, weight, dB, dt):
    """One multiplicative update of the reweighting factor.

    ``dB`` is the realized Brownian increment (already scaled by
    sqrt(dt)); the integrand sigma^{-1} K is evaluated at the step start,
    matching the stepping kernels, which makes the reweighted driftless
    chain reproduce the reflected chain's law exactly in discrete time.
    """
    x = np.atleast_1d(np.asarray(state.x, float))
    k = np.atleast_1d(np.asarray(state.k, float))
    dB = _as_vector(dB, x.shape[0], "dB")
    w = np.linalg.solve(cs.sigma(x), k)
    lw = weight.log_weight + (float(w @ dB) - 0.5 * float(w @ w) * dt)
    return GirsanovWeight(log_weight=lw)


def step_gradient(
    cs,
    potential,
    state,
    dt,
    noise,
    h_max=None,
    delta_guard=None,
    rng=None,
    max_substeps=MAX_SUBSTEPS,
    resample_cap=RESAMPLE_CAP,
    counts=None,
):
    """One (possibly sub-divided) step of the gradient family.

    The base step ``dt`` is split so that no sub-move's drift displacement
    exceeds ``h_max`` (default: no cap); proposals leaving the domain or
    landing with smoothed distance below ``delta_guard`` are redrawn.
    Extra normals needed by sub-steps or redraws come from ``rng``; the
    base move uses ``noise`` directly, so with no cap and no redraw this
    is one plain Euler step.  Raises PotentialOverflowError when the
    wall-layer budgets (``max_substeps``, ``resample_cap``, the distance
    floor) are exhausted.  An integer array ``counts``, when given, gains
    one in ``counts[0]`` per sub-move and in ``counts[1]`` per redraw, at
    the points where the chunk kernels count them.
    """
    domain = potential.domain
    d = domain.d
    x = np.atleast_1d(np.asarray(state.x, float)).copy()
    k = np.atleast_1d(np.asarray(state.k, float)).copy()
    z = _as_vector(noise, d, "noise")
    if h_max is None:
        h_max = np.inf
    if delta_guard is None:
        delta_guard = _default_delta_guard(potential)
    gamma_half = 0.5 * cs.gamma

    def extra_noise(use):
        if rng is None:
            raise ValueError("%s needs extra noise: pass rng= to step_gradient" % use)
        return rng.standard_normal(d)

    remaining = float(dt)
    first = True
    nsub = 0
    while remaining > 0.0:
        nsub += 1
        if nsub > max_substeps:
            raise PotentialOverflowError(
                "sub-step budget exhausted near the boundary; refine dt_base"
            )
        gV = potential.grad(x)  # raises on floor/exponent violations
        mu = cs.drift_b(x) - 0.5 * (cs.a_matrix(x) @ gV) + k
        speed = float(np.linalg.norm(mu))
        if speed * remaining <= h_max:
            dts = remaining
        else:
            dts = h_max / speed
        if dts < dt * 1e-12:
            raise PotentialOverflowError(
                "sub-step size collapsed near the boundary; refine dt_base"
            )
        if first:
            zz = z
            first = False
        else:
            zz = extra_noise("sub-stepping")
        if counts is not None:
            counts[0] += 1
        sig = cs.sigma(x)
        tries = 0
        while True:
            xp = x + (np.sqrt(dts) * (sig @ zz) + mu * dts)
            accept = bool(domain.inside(xp))
            if accept and potential.distance is not None:
                accept = float(potential.distance.value(xp)) >= delta_guard
            if accept:
                break
            tries += 1
            if counts is not None:
                counts[1] += 1
            if tries > resample_cap:
                raise PotentialOverflowError(
                    "proposal redraw budget exhausted near the boundary; "
                    "refine dt_base"
                )
            zz = extra_noise("proposal redraw")
        k = k - (gamma_half @ gV) * dts
        x = xp
        remaining -= dts
    return SystemState(x=x, k=k, ell=state.ell, t=state.t + dt)


def _default_delta_guard(potential):
    """Resolvable wall layer: states closer than this are resampled.

    The stationary weight exp(-exp(1/(n delta))) at delta = 1/(60 n) is
    exp(-e^60), so the redraw region carries no measurable mass.
    """
    if potential.kind == "regularized_vn":
        guard = 1.0 / (60.0 * potential.n)
        inr = potential.domain.inradius
        if np.isfinite(inr):
            guard = min(guard, 0.25 * inr)
        return guard
    return 10.0 * potential.delta_floor


# ---------------------------------------------------------------------------
# ensemble driver
# ---------------------------------------------------------------------------


def run_ensemble(cs, config, domain=None, potential=None, backend=None):
    """Integrate an ensemble and return its snapshot TrajectoryBatch.

    ``domain`` is required for the reflected families; ``potential`` for
    the gradient family (its domain is used).  ``backend`` picks the
    implementation: "numpy" for the chunked kernels, which need constant
    coefficients on an interval or a ball, or "generic" for the per-path
    steppers that handle arbitrary coefficients; the default is "numpy"
    where the kernels apply and "generic" otherwise.
    """
    cfg = config
    if cfg.family == "gradient":
        if potential is None:
            raise ValueError("the gradient family needs potential=")
        if domain is not None and domain is not potential.domain:
            raise ValueError("domain and potential.domain disagree")
        domain = potential.domain
    else:
        if domain is None:
            raise ValueError("the reflected families need domain=")
    if cs.domain.d != domain.d:  # equal-but-distinct domains are allowed
        raise ValueError("coefficients and domain dimensions disagree")
    d = domain.d

    if cfg.x0 is not None:
        x0 = _as_vector(cfg.x0, d, "x0")
    else:
        x0 = np.atleast_1d(np.asarray(domain.centroid, float))
    if not domain.inside(x0):
        raise ValueError("x0 must lie inside the domain")
    k0 = _as_vector(cfg.k0, d, "k0") if cfg.k0 is not None else np.zeros(d)

    if cfg.family == "gradient":
        guard = (
            cfg.delta_guard
            if cfg.delta_guard is not None
            else _default_delta_guard(potential)
        )
        start_delta = (
            float(potential.distance.value(x0))
            if potential.distance is not None
            else np.inf
        )
        if start_delta < guard:
            raise ValueError(
                "x0 sits inside the resolvable wall layer (smoothed distance "
                "%.3g < guard %.3g)" % (start_delta, guard)
            )
    else:
        guard = None

    eligible = _kernel_family(cfg.family, cs, domain, potential)
    if backend is None:
        backend = "numpy" if eligible else "generic"
    if backend not in ("numpy", "generic"):
        raise ValueError(
            "backend must be 'numpy' or 'generic', got %r" % (backend,))
    if backend == "numpy" and not eligible:
        raise ValueError(
            "the numpy kernels need constant sigma and drift on an interval or "
            "ball; use backend='generic'"
        )

    return _run(cs, domain, potential, cfg, x0, k0, guard, backend)


def _domain_info(domain):
    info = {"kind": domain.kind, "dim": int(domain.d)}
    if domain.kind == "interval":
        info["lo"] = float(domain.lo)
        info["hi"] = float(domain.hi) if np.isfinite(domain.hi) else "inf"
    elif domain.kind == "ball":
        info["center"] = [float(c) for c in domain.center]
        info["radius"] = float(domain.radius)
    return info


def _kernel_family(family, cs, domain, potential):
    """True when the chunked constant-coefficient kernels apply."""
    if domain.kind not in ("interval", "ball"):
        return False
    if not cs.is_constant_sigma or cs.constant_drift is None:
        return False
    if family == "gradient":
        return (
            potential is not None
            and potential.kind == "regularized_vn"
            and potential.distance is not None
        )
    return cs.inert_field in ("gamma_normal", "a0_conormal")


def _draw(rngs, C, d):
    """C standard normal d-vectors per path, each from the path's stream."""
    out = np.empty((len(rngs), C, d))
    for rng, rows in zip(rngs, out):
        rng.standard_normal(out=rows)
    return out


def _push_matrices(cs, ref_point):
    conv = 1.0 if cs.conormal_convention == "full" else 0.5
    A = cs.a_matrix(ref_point)
    UM = conv * A
    if cs.inert_field == "gamma_normal":
        VM = np.asarray(cs.gamma, float)
    else:
        VM = cs.a0 * UM
    return UM, VM


def _h_max(cfg, domain):
    """Largest drift displacement of one gradient-family sub-move."""
    return cfg.h_max_fraction * domain.inradius if cfg.adaptive else np.inf


def _reflected_params(cs, domain, cfg, x0):
    """Read-only constants of a reflected-family kernel run, in the order
    the kernel unpacks them."""
    Smat = cs.sigma(x0)
    UM, VM = _push_matrices(cs, x0)
    return (
        cfg.dt_base, np.sqrt(cfg.dt_base), Smat, np.linalg.inv(Smat),
        np.asarray(cs.constant_drift, float), UM, VM,
        cfg.family == "reflected", cfg.family == "driftless_weighted",
        domain, cfg.first_snapshot_step, cfg.snap_every,
    )


def _gradient_params(cs, potential, cfg, x0, guard):
    """Read-only constants of a gradient-family kernel run, in the order
    the kernel unpacks them; the kernel reads the wall's geometry from
    ``potential.distance`` itself."""
    return (
        cfg.dt_base, cs.sigma(x0), np.asarray(cs.constant_drift, float),
        0.5 * cs.a_matrix(x0), 0.5 * np.asarray(cs.gamma, float),
        float(potential.n), _h_max(cfg, potential.domain), float(guard),
        float(potential.delta_floor), float(Potential.EXPONENT_CAP),
        cfg.first_snapshot_step, cfg.snap_every,
        cfg.max_substeps, cfg.resample_cap,
    )


def _chunk_stepper(cs, domain, potential, cfg, x0, guard, backend, rngs):
    """The function that advances every path through one chunk of noise in
    one call.  Kernels are looked up on :mod:`._kernels` at each call."""
    if cfg.family != "gradient":
        if backend == "generic":
            return functools.partial(_generic_reflected_chunk, cs, domain, cfg)
        params = _reflected_params(cs, domain, cfg, x0)
        return lambda *state: _kernels.reflected_chunk(*state, params)
    if backend == "generic":
        chunk = functools.partial(_generic_gradient_chunk, cs, potential, cfg, guard)
    else:
        params = _gradient_params(cs, potential, cfg, x0, guard)
        chunk = lambda *state: _kernels.gradient_chunk(
            potential.distance, *state, params)
    return functools.partial(_gradient_step, chunk, rngs,
                             cfg.max_substeps * (cfg.resample_cap + 1))


def _gradient_step(chunk, rngs, draw_cap, x, k, ell, logw, flags, out_x,
                   out_k, out_ell, counters, z, gstep0):
    """Advance a gradient-family run through one chunk in one call of the
    backend's stepper ``chunk``.

    Each path's pool of C reserve normals is drawn right after its base
    normals.  A path whose pool runs out on step c goes back to its step
    start, and ``refill(rows, c)`` draws it a fresh pool (counted in
    ``counters[2]``) on which it redoes step c.  One attempt at a step
    draws fewer than ``draw_cap = max_substeps * (resample_cap + 1)``
    normals, so with C at least that a refilled attempt never runs out.
    With a shorter pool, a path refilled again on the same step once its
    refills times C exceed ``draw_cap`` is flagged ``boundary_overflow``.
    """
    P, C, d = z.shape
    pool = _draw(rngs, C, d)
    cursor = np.zeros(P, dtype=np.int64)
    stuck_at = np.full(P, -1)  # the step of a path's last refill
    refills = np.zeros(P, dtype=np.int64)  # refills on that step

    def refill(rows, c):
        """Refill ``rows``, spent on step c, or flag them; return the refilled."""
        n = np.where(stuck_at[rows] == c, refills[rows] + 1, 1)
        refills[rows], stuck_at[rows] = n, c
        # a step's first refill only replaces what earlier steps used
        over = (n > 1) & (n * C > draw_cap)
        flags[rows[over]] = FLAG_BOUNDARY_OVERFLOW
        rows = rows[~over]
        for p in rows:
            rngs[p].standard_normal(out=pool[p])
        cursor[rows] = 0
        counters[2] += len(rows)
        return rows

    chunk(x, k, flags, out_x, out_k, out_ell, counters, z, pool, cursor,
          refill, gstep0)


def _run(cs, domain, potential, cfg, x0, k0, guard, backend):
    """The host loop shared by every backend and family: per chunk it draws
    each path's base normals and calls the backend's stepper once, which
    finishes the chunk (the gradient stepper draws and refills its own
    reserve pool, see :func:`_gradient_step`)."""
    P, d, S = cfg.n_paths, domain.d, cfg.n_snapshots
    x = np.tile(x0, (P, 1))
    k = np.tile(k0, (P, 1))
    ell = np.zeros(P)
    logw = np.zeros(P)
    flags = np.zeros(P, dtype=np.int64)
    counters = np.zeros(3, dtype=np.int64)  # contacts or sub-moves; redraws; refills
    out_x = np.full((P, S, d), np.nan)
    out_k = np.full((P, S, d), np.nan)
    out_ell = np.full((P, S), np.nan)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(P)]
    step = _chunk_stepper(cs, domain, potential, cfg, x0, guard, backend, rngs)
    for start in range(0, cfg.n_steps, cfg.chunk_size):
        z = _draw(rngs, min(cfg.chunk_size, cfg.n_steps - start), d)
        step(x, k, ell, logw, flags, out_x, out_k, out_ell, counters, z, start)
    return TrajectoryBatch(
        times=cfg.snapshot_times,
        x=out_x,
        k=out_k,
        ell=out_ell,
        flags=flags,
        log_weights=logw if cfg.family == "driftless_weighted" else None,
        diagnostics=_diagnostics(cfg.family, counters, flags),
        config=cfg,
        backend=backend,
        run_info={
            "family": cfg.family,
            "coefficients": cs.name,
            "domain": _domain_info(domain),
            "potential": (
                {"kind": potential.kind, "n": potential.n}
                if potential is not None
                else None
            ),
        },
    )


def _diagnostics(family, counters, flags):
    """The one diagnostics schema: event counters (0 where the family has
    none) and, per failure flag, the number of paths that stopped on it."""
    events = int(counters[0])
    out = {
        "contacts": 0 if family == "gradient" else events,
        "substeps_total": events if family == "gradient" else 0,
        "resampled_proposals": int(counters[1]),
        "pool_refills": int(counters[2]),
    }
    for code, name in FLAG_NAMES.items():
        if code != FLAG_OK:
            out[name + "_paths"] = int((flags == code).sum())
    return out


def _record(cfg, s, out, p, *values):
    """Store path p's (x, k, ell) in ``out`` if global step s is recorded."""
    first, every = cfg.first_snapshot_step, cfg.snap_every
    if s >= first and (s - first) % every == 0:
        for array, value in zip(out, values):
            array[p, (s - first) // every] = value


def _generic_reflected_chunk(cs, domain, cfg, x, k, ell, logw, flags, out_x,
                             out_k, out_ell, counters, z, gstep0):
    """Per-path reflected-family stepper for arbitrary coefficients."""
    dt = cfg.dt_base
    sqrt_dt = np.sqrt(dt)
    use_k = cfg.family == "reflected"
    out = (out_x, out_k, out_ell)
    for p in np.flatnonzero(flags == FLAG_OK):
        state = SystemState(x=x[p].copy(), k=k[p].copy(), ell=ell[p])
        for c, noise in enumerate(z[p]):
            if not use_k:
                logw[p] = girsanov_weight_step(
                    cs, state, GirsanovWeight(logw[p]), sqrt_dt * noise, dt
                ).log_weight
                if logw[p] > LOG_WEIGHT_CAP:
                    flags[p] = FLAG_WEIGHT_OVERFLOW
                    break
            try:
                new = step_reflected(cs, domain, state, dt, noise,
                                     use_inert_drift=use_k)
            except SkorokhodError:
                flags[p] = FLAG_REFLECT_FAILURE
                break
            if new.ell > state.ell:
                counters[0] += 1
            state = new
            _record(cfg, gstep0 + c + 1, out, p, state.x, state.k, state.ell)
        x[p], k[p], ell[p] = state.x, state.k, state.ell


class _PoolSpent(Exception):
    """A path's reserve pool ran out in the middle of a step."""


class _PoolReader:
    """Serves one path's reserve normals to :func:`step_gradient` as ``rng``."""

    def __init__(self, pool, cursor, p):
        self.pool, self.cursor, self.p = pool, cursor, p

    def standard_normal(self, d):
        c = self.cursor[self.p]
        if c >= self.pool.shape[1]:
            raise _PoolSpent
        self.cursor[self.p] = c + 1
        return self.pool[self.p, c]


def _generic_gradient_chunk(cs, potential, cfg, guard, x, k, flags, out_x,
                            out_k, out_ell, counters, z, pool, cursor, refill,
                            gstep0):
    """Per-path gradient-family stepper, with the kernels' pool protocol: a
    path whose pool runs out keeps its step-start state and, unless
    ``refill`` flags it, redoes that step at once on its refilled pool."""
    h_max = _h_max(cfg, potential.domain)
    out = (out_x, out_k, out_ell)
    for p in np.flatnonzero(flags == FLAG_OK):
        rng = _PoolReader(pool, cursor, p)
        c = 0
        while c < len(z[p]) and flags[p] == FLAG_OK:
            try:
                state = step_gradient(
                    cs, potential, SystemState(x=x[p], k=k[p]), cfg.dt_base,
                    z[p, c], h_max=h_max, delta_guard=guard, rng=rng,
                    max_substeps=cfg.max_substeps,
                    resample_cap=cfg.resample_cap, counts=counters,
                )
            except PotentialOverflowError:
                flags[p] = FLAG_BOUNDARY_OVERFLOW
                continue
            except _PoolSpent:
                refill(np.array([p]), c)
                continue
            x[p], k[p] = state.x, state.k
            _record(cfg, gstep0 + c + 1, out, p, state.x, state.k, 0.0)
            c += 1
