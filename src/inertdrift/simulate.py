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

Noise protocol: path p draws from its own PCG64 stream, spawned as child
p of ``SeedSequence(seed)``.  The host loop :func:`_run` walks the run in
blocks of steps: per block it draws each stream's base normals (one
d-vector per step) into one buffer reused for the whole run and calls the
family's numpy kernel (:mod:`._kernels`) once.  A reflected-family block
is ``chunk_size`` steps, capped so that the block holds at most
``_NOISE_BLOCK_FLOATS`` normals: each stream is read in order whatever
the block length, so the cap changes no result, only the memory the noise
takes at large n_paths.  A gradient-family block is always ``chunk_size``
steps, because its reserve pool is as long as its block and a shorter
pool would change when paths refill, and so the trajectories.  The
kernels step every domain kind and every coefficient set; coefficients
that vary with x are evaluated on the live rows at each step.  The
gradient kernel also takes each stream's reserve pool, consumed by
sub-steps and redraws; a path that exhausts its pool goes back to the
start of its step, gets a fresh pool from its stream through one shared
``refill`` (:func:`_gradient_step`, which holds the refill budget), and
redoes that step at once.  Every family reports one diagnostics schema
(:func:`_diagnostics`).  Results are reproducible for a fixed seed.

Two cores: a run with n_paths * d >= ``_SPLIT_MIN_FLOATS`` forks one worker
when ``os.sched_getaffinity`` reports two usable CPUs or more.  The worker
steps paths [P/2, P) and this process paths [0, P/2), each through the same
block loop on its own rows of the state and snapshot arrays.  Every run
allocates those arrays in anonymous shared mmaps, so the worker writes its
rows in place; each side keeps its own event counters, summed into the
diagnostics.  The bytes do not change because no row reads another: every
kernel step is elementwise per path, and each side builds only its own
paths' streams, ``SeedSequence(seed, spawn_key=(p,))``, which is child p
of ``SeedSequence(seed)``.  The kernel constants are built before the fork.
Narrower runs, and hosts with one usable CPU, step every path in this
process.  The worker has exited when the run returns or raises, and its
failure raises here with its traceback.

Output: :meth:`TrajectoryBatch.to_csv` and :meth:`TrajectoryBatch.write_weights`
stream their tables through one writer, :func:`_write_csv`, in blocks of
``_CSV_BLOCK_ROWS`` rows.  Every float goes through one formatter,
:func:`_g17`, whose text is that of ``%.17g``: for 1e-4 <= |v| < 1 it
computes the exact 17-digit decimal in numpy (an error-free product with
a power of ten), so Python formats only integers there, and it hands every
other value to ``%.17g``.  Where the process may run on two CPUs or more,
the writer forks one helper that formats the second half of the blocks
into a temporary file, appended once this process has written the first
half, so a large table is formatted on two cores; the bytes do not depend
on the CPU count.
"""

import contextlib
import dataclasses
import functools
import json
import numbers
import os
import shutil
import signal
import tempfile
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import FLAG_BOUNDARY_OVERFLOW, FLAG_NAMES, FLAG_OK
from .coefficients import Potential
from .geometry import domain_info

FAMILIES = ("reflected", "gradient", "driftless_weighted")

# The gradient family's step limits, read when a run starts: a sub-move's
# drift stays within H_MAX_FRACTION of the inradius, a step takes at most
# MAX_SUBSTEPS sub-moves and a proposal is redrawn at most RESAMPLE_CAP times.
H_MAX_FRACTION = 0.05
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


def _is_real(value):
    """Whether ``value`` is a real number: not a bool, a string or a list."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_positive(value, name):
    """ValueError unless ``value`` is a positive finite number."""
    if not (_is_real(value) and 0.0 < value < np.inf):
        raise ValueError("%s must be a positive finite number, got %r" % (name, value))


def _as_vector(value, d, name):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if v.shape != (d,) or not np.all(np.isfinite(v)):
        raise ValueError("%s must be a finite length-%d vector" % (name, d))
    return v


@dataclass(frozen=True)
class SimConfig:
    """Ensemble run description.

    ``dt_base`` is the outer step; the gradient family sub-divides it so
    that no sub-move exceeds ``H_MAX_FRACTION`` of the domain inradius, and
    redraws proposals whose smoothed distance falls below the potential's
    resolvable wall layer (see the module constants).  Snapshots are
    recorded at every ``snap_every``-th step whose time exceeds ``burn_in``.
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

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                "family must be one of %s, got %r" % (FAMILIES, self.family)
            )
        _check_positive(self.dt_base, "dt_base")
        _check_positive(self.t_end, "t_end")
        if not (_is_real(self.burn_in) and 0.0 <= self.burn_in < self.t_end):
            raise ValueError("burn_in must be a number with 0 <= burn_in < t_end, "
                             "got %r" % (self.burn_in,))
        for name, low in (("n_paths", 1), ("seed", 0), ("snap_every", 1),
                          ("chunk_size", 1)):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, low))
        q = self.t_end / self.dt_base
        if abs(q - round(q)) > 1e-6 * max(1.0, abs(q)):
            raise ValueError("t_end must be an integer multiple of dt_base")
        for name in ("x0", "k0"):
            value = getattr(self, name)
            if value is not None:
                entries = list(value) if np.ndim(value) else [value]
                if not all(map(_is_real, entries)):
                    raise ValueError("%s must be a list of numbers, got %r" % (name, value))
                object.__setattr__(self, name, tuple(map(float, entries)))

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
    """Snapshot arrays for an ensemble: shapes (P, S, d) / (P, S) / (P,).

    A batch from :func:`run_ensemble` holds x, k, ell, flags and
    log_weights in anonymous shared memory: a child forked while the batch
    lives that writes them writes this process's data.  ``np.array(a)``
    gives a private copy.
    """

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

    def _require_log_weights(self):
        if self.log_weights is None:
            raise ValueError("this batch has no log-weights: only a "
                             "driftless_weighted run has them")
        return self.log_weights

    def kish_ess(self):
        """Kish effective sample size (sum w)^2 / sum w^2 of the weights of
        the paths that finished without a flag (0.0 when none did).

        ValueError if the batch has no log-weights."""
        lw = self._require_log_weights()[self.ok]
        if not len(lw):
            return 0.0
        w = np.exp(lw - lw.max())
        return float(w.sum() ** 2 / (w * w).sum())

    def write_weights(self, path):
        """Write one row per path: path_id,log_weight.

        ValueError, before ``path`` is opened, if the batch has no
        log-weights (only ``driftless_weighted`` runs have them).
        """
        _write_csv(path, "path_id,log_weight", self.n_paths, None,
                   [np.asarray(self._require_log_weights(), dtype=float)])

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

# Normals per noise block of a reflected-family run: 8 MB of float64.  A
# block of chunk_size = 4096 steps at n_paths = 4096 would hold 134 MB, and
# on a 2-CPU host blocks of 256 and 1024 steps ran that run faster than
# whole chunks.  Runs with n_paths * d <= 256 keep blocks of chunk_size steps.
_NOISE_BLOCK_FLOATS = 1 << 20

# Path rows x dimension from which a run steps its second half of paths in
# a forked worker where two CPUs are usable (see _run).  Measured on a
# 2-CPU host: below this the fork, the second process's start-up and the
# shorter arrays cost more than the second core gives back.
_SPLIT_MIN_FLOATS = 4096

# Extra steps per path row of the noise buffer, so that a row of 2^k bytes
# does not put every path's step-c normal on the same few cache sets.
_NOISE_ROW_PAD = 8


# _g17's decades: |v| in [_G17_BOUNDS[i-1], _G17_BOUNDS[i]) is decade i.  A
# value in decade 1..4 is scaled by _G17_SCALE[i] (exact in float64) to 17
# digits before the point, and its text is _G17_TEXT[i], or _G17_TEXT[6 + i]
# when its sign bit is set; decades 0 and 5 keep ``%.17g``.
_G17_BOUNDS = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
_G17_SCALE = np.array([0.0, 1e20, 1e19, 1e18, 1e17, 0.0])
_G17_TEXT = np.array(["%.17g", "0.000%d", "0.00%d", "0.0%d", "0.%d", "%.17g",
                      "%.17g", "-0.000%d", "-0.00%d", "-0.0%d", "-0.%d", "%.17g"],
                     dtype=object)


def _g17(values):
    """The ``%.17g`` text of each float in ``values``, in one ``%`` call.

    For 1e-4 <= |v| < 1, ``%.17g`` prints fixed notation: "0.", then -X-1
    zeros with X = floor(log10 |v|), then the 17 significant digits D of v
    without their trailing zeros.  Those values get D from numpy, so Python
    formats an integer for them, not a float.  D is exact:

    - X is found by comparing |v| with ``_G17_BOUNDS``, each the least
      float not below its power of ten, so no float lies between the two.
    - D is the integer nearest to p = |v| * 10^(16-X), ties to even as in
      ``%.17g``.  10^(16-X) is exact in float64, and Dekker's TwoProduct
      (:func:`_exact_product`) gives p exactly as hi + lo.  hi >= 1e16 >
      2^53 is an even integer and |lo| <= 8, so hi + rint(lo) is p rounded
      half to even.
    - D < 1e17: the float below each decade's top is at least 8 units of D
      below it, so D never rounds up into the next decade.

    Every other value (|v| >= 1, |v| < 1e-4, zeros, infinities and NaN) is
    formatted by ``%.17g`` in the same call.
    """
    if not len(values):
        return []
    mag = np.abs(values)
    decade = np.searchsorted(_G17_BOUNDS, mag, side="right")
    text = _G17_TEXT[decade + 6 * np.signbit(values)].tolist()
    fast = np.flatnonzero((decade > 0) & (decade < 5))
    hi, lo = _exact_product(mag[fast], _G17_SCALE[decade[fast]])
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    ends = np.flatnonzero(digits % 10 == 0)
    while len(ends):
        digits[ends] //= 10
        ends = ends[digits[ends] % 10 == 0]
    args = values.astype(object)
    args[fast] = digits
    return ("\n".join(text) % tuple(args)).split("\n")


def _exact_product(a, b):
    """The product a * b as (hi, lo), hi = fl(a * b) and hi + lo exact.

    Dekker's TwoProduct, each factor split into halves of 26 bits by
    Veltkamp's constant 2^27 + 1; exact while no partial product
    overflows or underflows.
    """
    hi = a * b
    c = 134217729.0 * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = 134217729.0 * b
    b_hi = c - (c - b)
    b_lo = b - b_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


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
    per snapshot and each run of equal values once, every float by
    :func:`_g17`, one call for all of a block's float columns.

    Formatting holds the interpreter lock, so a table of two blocks or more
    is formatted by two processes when ``os.sched_getaffinity`` reports two
    usable CPUs or more: this process writes the header and the first half
    of the blocks to ``path``, while a forked helper (:func:`_forked`)
    writes the second half to an unlinked temporary file in the same
    directory, which this process then appends.  Both run the same block
    loop, so the bytes are the same either way.  The helper has exited
    when this function returns or raises, and a helper that fails raises
    here.
    """
    ids = np.array(["%d" % p for p in range(n_paths)], dtype=object)
    if times is None:
        n_snaps, time_text = 1, None
    else:
        n_snaps = len(times)
        time_text = np.array(_g17(np.asarray(times, dtype=float)), dtype=object)
    n_rows = n_paths * n_snaps
    n_blocks = -(-n_rows // _CSV_BLOCK_ROWS)

    def write_blocks(fh, lo, hi):
        """Write blocks lo..hi-1 to ``fh`` and flush it."""
        for i in range(lo, hi):
            start = i * _CSV_BLOCK_ROWS
            stop = min(start + _CSV_BLOCK_ROWS, n_rows)
            rows = np.arange(start, stop)
            cells = [ids[rows // n_snaps].tolist()]
            if time_text is not None:
                cells.append(time_text[rows % n_snaps].tolist())
            # one call for every float column: a run across a column
            # boundary holds equal bits, so it gets equal text
            text = _run_text(np.concatenate([c[start:stop] for c in columns]))
            n = stop - start
            cells += [text[j:j + n] for j in range(0, len(text), n)]
            fh.write(("\n".join(map(",".join, zip(*cells))) + "\n").encode())
        fh.flush()

    split = n_blocks >= 2 and _usable_cpus() >= 2
    mid = -(-n_blocks // 2) if split else n_blocks
    with (tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path)))
          if split else contextlib.nullcontext()) as tail:
        with (_forked(lambda: write_blocks(tail, mid, n_blocks), "CSV helper")
              if split else contextlib.nullcontext()), open(path, "wb") as fh:
            fh.write(header.encode() + b"\n")
            write_blocks(fh, 0, mid)
        if split:
            tail.seek(0)
            with open(path, "ab") as fh:
                shutil.copyfileobj(tail, fh)


def _usable_cpus():
    """The CPUs this process may run on, or 1 where the OS cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return 1


@contextlib.contextmanager
def _forked(work, name):
    """Run ``work()`` in a forked child process ``name`` while the with
    block runs.

    The child always ends in ``os._exit`` (0 once ``work`` returns), so it
    runs no cleanup of this process; if ``work`` raises, it first writes
    its traceback to a pipe.  Leaving the block normally reads that pipe to
    its end and waits for the child; leaving it by an exception kills the
    child first.  Either way the child has exited when the with statement
    ends.  A child that exited with a nonzero status raises RuntimeError
    here, with its traceback when it sent one.

    Only the calling thread goes on in the child, so ``work`` must not wait
    on another thread of this process.  Formatting text, numpy generators
    and elementwise numpy arithmetic do not; OpenBLAS, which numpy's LAPACK
    calls use, restarts its threads after a fork.
    """
    r, w = os.pipe()
    with open(r, "rb") as pipe, open(w, "wb") as out:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                work()
                status = 0
            except BaseException:
                import traceback

                out.write(traceback.format_exc().encode())
                out.flush()
            finally:
                os._exit(status)
        out.close()  # so that reading the pipe ends when the child exits
        try:
            try:
                yield
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            error = pipe.read().decode(errors="replace")
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise RuntimeError("the %s process exited with status %d%s"
                           % (name, status, error and ":\n" + error))


def _version_info():
    from . import __version__ as _pkg_version

    return {"inertdrift": _pkg_version, "numpy": np.__version__}


def _default_delta_guard(potential):
    """Resolvable wall layer: states closer than this are resampled.

    The stationary weight exp(-exp(1/(n delta))) at delta = 1/(60 n) is
    exp(-e^60), so the redraw region carries no measurable mass.
    """
    guard = 1.0 / (60.0 * potential.n)
    inr = potential.domain.inradius
    if np.isfinite(inr):
        guard = min(guard, 0.25 * inr)
    return guard


# ---------------------------------------------------------------------------
# ensemble driver
# ---------------------------------------------------------------------------


def run_ensemble(cs, config, domain=None, potential=None, backend=None):
    """Integrate an ensemble and return its snapshot TrajectoryBatch.

    ``domain`` is required for the reflected families; ``potential``, the
    wall whose formula the gradient kernel evaluates, for the gradient
    family (its domain is used).
    The chunked numpy kernels step every domain and coefficient set, so
    ``backend`` may only be None or "numpy", the one backend.  The batch's
    arrays lie in anonymous shared memory (see :class:`TrajectoryBatch`).
    """
    if backend not in (None, "numpy"):
        raise ValueError("backend must be None or 'numpy', got %r" % (backend,))
    domain, x0, k0, guard = _preflight(cs, config, domain, potential)
    return _run(cs, domain, potential, config, x0, k0, guard)


def _preflight(cs, cfg, domain=None, potential=None):
    """The checked domain, x0, k0 and wall guard (None when reflected) of a
    run of ``cfg``; ValueError, before anything runs, for an argument
    ``run_ensemble`` cannot step, x0 outside the domain or in the wall
    layer included.  ``cli.load_run_config`` calls it too."""
    if cfg.family == "gradient":
        if potential is None:
            raise ValueError("the gradient family needs potential=")
        wall = domain_info(potential.domain)
        if domain is not None and domain_info(domain) != wall:
            raise ValueError("domain %s and potential.domain %s disagree"
                             % (domain_info(domain), wall))
        domain = potential.domain
    elif domain is None:
        raise ValueError("the reflected families need domain=")
    ours, run = domain_info(cs.domain), domain_info(domain)
    if ours != run:  # equal-but-distinct domains are allowed
        raise ValueError("the coefficients' domain %s is not the run's %s"
                         % (ours, run))
    d = domain.d
    if cfg.x0 is not None:
        x0 = _as_vector(cfg.x0, d, "x0")
    else:
        x0 = np.atleast_1d(np.asarray(domain.centroid, float))
    if not domain.inside(x0):
        raise ValueError("x0 must lie inside the domain")
    k0 = _as_vector(cfg.k0, d, "k0") if cfg.k0 is not None else np.zeros(d)
    guard = None
    if cfg.family == "gradient":
        guard = _default_delta_guard(potential)
        start_delta = float(potential.distance.value(x0))
        if start_delta < guard:
            raise ValueError(
                "x0 sits inside the resolvable wall layer (smoothed distance "
                "%.3g < guard %.3g)" % (start_delta, guard)
            )
    return domain, x0, k0, guard


def _draw(rngs, C, d, out=None):
    """C standard normal d-vectors per path, each from the path's stream,
    in a new array or in ``out[:, :C]`` (whose rows stay contiguous)."""
    out = np.empty((len(rngs), C, d)) if out is None else out[:, :C]
    for rng, rows in zip(rngs, out):
        rng.standard_normal(out=rows)
    return out


def _drift(cs):
    """The drift b for the kernels: a constant array, or ``cs.drift_b``."""
    b = cs.constant_drift
    return cs.drift_b if b is None else np.asarray(b, float)


def _reflected_params(cs, domain, cfg):
    """Read-only constants of a reflected-family kernel run, in the order
    the kernel unpacks them.  A sigma or drift that varies with x is passed
    as a function of the live rows' points; the push u and the inert field
    v are the coefficient set's functions of points and normals."""
    if cs.is_constant_sigma:
        S, SI = cs._sigma_const, np.linalg.inv(cs._sigma_const)
    else:
        S, SI = cs._sigma_batch, None
    return (
        cfg.dt_base, np.sqrt(cfg.dt_base), S, SI, _drift(cs), cs._push,
        cs._field, cfg.family == "driftless_weighted", domain,
        cfg.first_snapshot_step, cfg.snap_every,
    )


def _gradient_params(cs, potential, cfg, guard):
    """Read-only constants of a gradient-family kernel run, in the order
    the kernel unpacks them, with varying coefficients passed as functions
    as in :func:`_reflected_params`; the kernel reads the wall's geometry
    from ``potential.distance`` itself."""
    if cs.is_constant_sigma:
        S, A2 = cs._sigma_const, 0.5 * cs._a_const
    else:
        S, A2 = cs._sigma_batch, lambda pts: 0.5 * cs._a_batch(pts)
    return (
        cfg.dt_base, S, _drift(cs), A2, 0.5 * np.asarray(cs.gamma, float),
        float(potential.n), H_MAX_FRACTION * potential.domain.inradius,
        float(guard), float(potential.delta_floor),
        float(Potential.EXPONENT_CAP), cfg.first_snapshot_step,
        cfg.snap_every, MAX_SUBSTEPS, RESAMPLE_CAP,
    )


def _chunk_stepper(cs, domain, potential, cfg, guard):
    """The function that advances a range of paths through one block of
    noise in one call, given their generators and state rows, and the block
    length in steps (see the module docstring).  Kernels are looked up on
    :mod:`._kernels` at each call."""
    if cfg.family != "gradient":
        params = _reflected_params(cs, domain, cfg)
        block = max(1, _NOISE_BLOCK_FLOATS // (cfg.n_paths * domain.d))
        step = lambda rngs, *state: _kernels.reflected_chunk(*state, params)
        return step, min(cfg.chunk_size, block)
    params = _gradient_params(cs, potential, cfg, guard)
    chunk = lambda *state: _kernels.gradient_chunk(
        potential.distance, *state, params)
    step = functools.partial(_gradient_step, chunk,
                             MAX_SUBSTEPS * (RESAMPLE_CAP + 1))
    return step, cfg.chunk_size


def _gradient_step(chunk, draw_cap, rngs, x, k, ell, logw, flags, out_x,
                   out_k, out_ell, counters, z, gstep0):
    """Advance a gradient-family run through one chunk in one call of the
    gradient kernel, ``chunk``.

    Each path's pool of C reserve normals is drawn right after its base
    normals.  A path whose pool runs out on step c goes back to its step
    start, and ``refill(rows, c)`` draws it a fresh pool (counted in
    ``counters[2]``) on which it redoes step c.  One attempt at a step
    draws fewer than ``draw_cap = MAX_SUBSTEPS * (RESAMPLE_CAP + 1)``
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


def _shared_zeros(shape, dtype=np.float64):
    """A zeroed array in its own anonymous shared mmap, so a child forked
    while it lives writes its entries where this process reads them."""
    import mmap

    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.ndarray(shape, dtype, mmap.mmap(-1, max(size, 1)))


def _run(cs, domain, potential, cfg, x0, k0, guard):
    """The host loop shared by every family: per block of steps it draws
    each path's base normals into a noise buffer reused for the whole run
    and calls the family's kernel once, which finishes the block (the
    gradient kernel's reserve pool is drawn and refilled by
    :func:`_gradient_step`).  A run of n_paths * d >= _SPLIT_MIN_FLOATS
    with two usable CPUs steps its paths [P/2, P) in a forked worker while
    this process steps [0, P/2) (see the module docstring)."""
    P, d, S = cfg.n_paths, domain.d, cfg.n_snapshots
    split = P * d >= _SPLIT_MIN_FLOATS and P >= 2 and _usable_cpus() >= 2
    x, k, ell, logw, out_x, out_k, out_ell = (
        _shared_zeros(shape)
        for shape in ((P, d), (P, d), (P,), (P,), (P, S, d), (P, S, d), (P, S)))
    flags = _shared_zeros((P,), np.int64)
    counters = _shared_zeros((2, 3), np.int64)  # one row per side of a split
    x[:], k[:] = x0, k0
    for snaps in (out_x, out_k, out_ell):
        snaps.fill(np.nan)
    step, block = _chunk_stepper(cs, domain, potential, cfg, guard)
    n_steps = cfg.n_steps

    def advance(lo, hi, counts):
        """Step paths lo..hi-1 through the whole run into their state rows,
        counting events in ``counts``."""
        rngs = [np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(p,)))
                for p in range(lo, hi)]
        rows = slice(lo, hi)
        state = (x[rows], k[rows], ell[rows], logw[rows], flags[rows],
                 out_x[rows], out_k[rows], out_ell[rows], counts)
        noise = np.empty((hi - lo, min(block, n_steps) + _NOISE_ROW_PAD, d))
        for start in range(0, n_steps, block):
            z = _draw(rngs, min(block, n_steps - start), d, out=noise)
            step(rngs, *state, z, start)

    if split:
        mid = P // 2
        with _forked(lambda: advance(mid, P, counters[1]), "ensemble worker"):
            advance(0, mid, counters[0])
    else:
        advance(0, P, counters[0])
    return TrajectoryBatch(
        times=cfg.snapshot_times,
        x=out_x,
        k=out_k,
        ell=out_ell,
        flags=flags,
        log_weights=logw if cfg.family == "driftless_weighted" else None,
        diagnostics=_diagnostics(cfg.family, counters.sum(axis=0), flags),
        config=cfg,
        backend="numpy",
        run_info={
            "family": cfg.family,
            "coefficients": cs.name,
            "domain": domain_info(domain),
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
