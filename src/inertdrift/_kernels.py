"""Chunked numpy stepping kernels for the ensemble integrators.

One vectorized kernel per stepping family advances every path of an
ensemble through one chunk of pregenerated noise, step-synchronously.
Each performs the same floating-point operations in the same order as the
generic per-path steppers in :mod:`inertdrift.simulate`, so the two
backends agree bit for bit on the interval and for the gradient family
(tested).  The reflected kernel takes its contact rule from the domain
(``_exit`` and ``_land`` in :mod:`inertdrift.geometry`), the landing that
``skorokhod.reflect_step`` also uses; on the ball the generic stepper
still differs in the last digits, because it evaluates the push and the
inert field at projected points.

Every kernel takes the mutable state arrays, the chunk's noise, the
global index of the chunk's first step, and ``params``: one plain tuple of
the run's read-only constants, built once per run by the family's helper
in :mod:`inertdrift.simulate` and unpacked in one statement.  Each kernel
finishes its chunk in one call.  The noise is drawn in
:mod:`inertdrift.simulate`: the gradient kernel also takes the chunk's
reserve pool and a ``refill`` callback that renews a spent path's pool
there.  ``counters[0]`` counts contacts (reflected) or sub-moves
(gradient), ``counters[1]`` redraws and ``counters[2]`` pool refills
(gradient).

The reflected kernel steps only the live rows: it copies their x, k, ell
and log-weight into compact arrays once per chunk, with no per-step masks,
and writes them back at the chunk end or when a row gets flagged.  It
reads each step's noise column once, and caches the terms that depend on
K, which moves only at contact, recomputing them for the contact rows.

The gradient kernel evaluates the wall once per proposal through
``SmoothDistance._value_and_grad``, which shares its formula with the
``value`` and ``grad`` that the generic stepper calls, and carries delta
and grad delta of the accepted proposal into the next sub-step or step.

Kernels cover constant-coefficient runs on intervals (bounded or
half-line) and balls; everything else goes through the generic per-path
steppers in :mod:`inertdrift.simulate`, which follow the same protocol.
"""

import importlib.util

import numpy as np

# Read only by the machine block of perfbench/run.py; nothing in the
# package branches on it.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None

# Per-path status flags.
FLAG_OK = 0
FLAG_BOUNDARY_OVERFLOW = 1
FLAG_REFLECT_FAILURE = 2
FLAG_WEIGHT_OVERFLOW = 3

FLAG_NAMES = {
    FLAG_OK: "ok",
    FLAG_BOUNDARY_OVERFLOW: "boundary_overflow",
    FLAG_REFLECT_FAILURE: "reflect_failure",
    FLAG_WEIGHT_OVERFLOW: "weight_overflow",
}

LOG_WEIGHT_CAP = 700.0


def _rowdot(M, V):
    """out[:, i] = sum_j M[i, j] V[:, j], summed left to right from +0.0
    (``p + 0.0`` turns a product of -0.0 into +0.0, as ``0.0 + p`` does)."""
    out = V[:, 0, None] * M[:, 0] + 0.0
    for j in range(1, V.shape[1]):
        out = out + V[:, j, None] * M[:, j]
    return out


def _take(keep, *arrays):
    """Each array restricted to the rows that ``keep`` selects (None stays
    None)."""
    return tuple(None if a is None else a[keep] for a in arrays)


# ---------------------------------------------------------------------------
# reflected family (with or without the inert drift / Girsanov weight)
# ---------------------------------------------------------------------------


def _weight_terms(k, SI, dt):
    """w = S^-1 K and 0.5 |w|^2 dt, the Girsanov weight's terms that move
    only with K; |w|^2 is summed left to right from +0.0."""
    w = _rowdot(SI, k)
    acc2 = np.zeros(len(k))
    for i in range(k.shape[1]):
        acc2 = acc2 + w[:, i] * w[:, i]
    return w, 0.5 * acc2 * dt


def reflected_chunk(
    x, k, ell, logw, flags, out_x, out_k, out_ell, counters, z, gstep0, params
):
    """Advance every live path of a reflected-family run through one chunk.

    A proposal that leaves the domain is pushed back along u = UM n, with n
    the inward normal where it crossed, by the domain's contact rule
    (``_exit`` and ``_land``, which ``skorokhod.reflect_step`` also calls),
    and K gains v dL with v = VM n at the landing point.  With
    ``do_weight`` the Girsanov log-weight is updated from the step-start K
    before the move.

    The live rows' x, k, ell and log-weight are copied into compact arrays
    once per chunk and stepped there, and each step reads its noise column
    once.  The terms that depend on K, (b + K) dt and the weight's w and
    0.5 |w|^2 dt, are cached per row and recomputed for the contact rows
    only, since K moves only there.  A row that gets flagged is written
    back at once and dropped; the others are written back at the chunk end.
    """
    (dt, sqrt_dt, S, SI, b, UM, VM, use_k, do_weight, domain, first_snap,
     snap_every) = params
    C, d = z.shape[1:]
    rows = (flags == FLAG_OK).nonzero()[0]
    xs, ks, ls, lw = x[rows], k[rows], ell[rows], logw[rows]
    # one row per path even without the inert drift, so rows drop together
    drift = (b + (ks if use_k else np.zeros_like(ks))) * dt
    w, h = _weight_terms(ks, SI, dt) if do_weight else (None, None)
    contacts = 0

    def put(sel):
        """Write the compact rows ``sel`` back into the state arrays."""
        at = rows[sel]
        x[at], k[at], ell[at], logw[at] = xs[sel], ks[sel], ls[sel], lw[sel]
        return at

    for c in range(C):
        if not len(rows):
            break
        Z = z[rows, c]
        if do_weight:
            dB = sqrt_dt * Z
            acc1 = np.zeros(len(rows))
            for i in range(d):
                acc1 = acc1 + w[:, i] * dB[:, i]
            lw = lw + (acc1 - h)
            ovf = lw > LOG_WEIGHT_CAP
            if ovf.any():
                flags[put(ovf)] = FLAG_WEIGHT_OVERFLOW
                rows, xs, ks, ls, lw, drift, w, h, Z = _take(
                    ~ovf, rows, xs, ks, ls, lw, drift, w, h, Z)
        y = xs + (sqrt_dt * _rowdot(S, Z) + drift)
        out, normal = domain._exit(y)
        hit = out.nonzero()[0]
        if len(hit):
            land, dl, nl, ok = domain._land(y[hit], _rowdot(UM, normal))
            failed = not ok.all()
            if failed:
                keep = np.ones(len(rows), dtype=bool)
                keep[hit[~ok]] = False
                flags[put(~keep)] = FLAG_REFLECT_FAILURE
                hit, land, dl, nl = _take(ok, hit, land, dl, nl)
            y[hit] = land
            ks[hit] += _rowdot(VM, nl) * dl[:, None]
            ls[hit] += dl
            contacts += int(np.count_nonzero(dl > 0.0))
            if use_k:
                drift[hit] = (b + ks[hit]) * dt
            if do_weight:
                w[hit], h[hit] = _weight_terms(ks[hit], SI, dt)
            if failed:
                rows, y, ks, ls, lw, drift, w, h = _take(
                    keep, rows, y, ks, ls, lw, drift, w, h)
        xs = y
        s = gstep0 + c + 1
        if s >= first_snap and (s - first_snap) % snap_every == 0:
            slot = (s - first_snap) // snap_every
            out_x[rows, slot] = xs
            out_k[rows, slot] = ks
            out_ell[rows, slot] = ls
    put(slice(None))
    counters[0] += contacts


# ---------------------------------------------------------------------------
# gradient family (smooth wall potential, no reflection)
# ---------------------------------------------------------------------------


def gradient_chunk(
    sd, x, k, flags, out_x, out_k, out_ell, counters, z, pool, cursor, refill,
    gstep0, params,
):
    """Advance every live path of a gradient-family run through one chunk.

    The wall is evaluated through the SmoothDistance object ``sd``, once
    per proposal: delta and its gradient at an accepted proposal are
    carried into the next sub-step or step.  Each step is sub-divided so no
    sub-move exceeds ``h_max`` and proposals below ``delta_guard`` are
    redrawn, both from the reserve ``pool``.  A path whose pool runs out
    goes back to its step start; ``refill(rows, c)`` refills its pool or
    flags it, and a refilled path redoes step c at once, before the step's
    snapshot, from delta recomputed at its step start.
    """
    (dt, S, b, A2, NU, vn, h_max, delta_guard, delta_floor, exp_cap,
     first_snap, snap_every, max_sub, resample_cap) = params
    P, C, d = z.shape
    pool_len = pool.shape[1]
    rows = (flags == FLAG_OK).nonzero()[0]
    # delta and grad delta at every path's current point
    cdel = np.full(P, np.nan)
    cgrad = np.full((P, d), np.nan)
    cdel[rows], cgrad[rows] = sd._value_and_grad(x[rows])
    moves = redraws = 0
    dt_full = np.full(P, dt)  # time left at a step start; sliced, never written

    def roll_back(rg):
        """Send paths whose pool ran out back to their step start."""
        spent.append(rg)
        if nsub > 1:  # x and k have moved since the step start
            at = np.searchsorted(base, rg)
            x[rg] = xs[at]
            k[rg] = ks[at]

    # a wall too close for double precision is caught by the ``fail`` test,
    # so floating-point warnings stay off for the whole chunk
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for c in range(C):
            if len(rows) == 0:
                break
            gr = rows
            delta, gdel = cdel[rows], cgrad.take(rows, axis=0)
            lost = False  # a path of this step was flagged or rolled back
            while len(gr):  # one attempt at step c, then one per refill
                base = gr
                rem = dt_full[:len(gr)]
                spent = []
                nsub = 0
                while True:
                    nsub += 1
                    if nsub > max_sub:
                        flags[gr] = FLAG_BOUNDARY_OVERFLOW
                        lost = True
                        break
                    kg = k.take(gr, axis=0)
                    E = 1.0 / (vn * delta)
                    gV = -(np.exp(E) / (vn * (delta * delta)))[:, None] * gdel
                    mu = (b - _rowdot(A2, gV)) + kg
                    speed2 = mu[:, 0] * mu[:, 0]  # equals 0.0 + mu^2: no -0.0
                    for i in range(1, d):
                        speed2 = speed2 + mu[:, i] * mu[:, i]
                    speed = np.sqrt(speed2)
                    dts = np.where(speed * rem <= h_max, rem, h_max / speed)
                    # too close to the wall to evaluate, or a collapsed sub-step
                    fail = (delta < delta_floor) | (E > exp_cap) | (dts < dt * 1e-12)
                    if np.count_nonzero(fail):
                        flags[gr[fail]] = FLAG_BOUNDARY_OVERFLOW
                        lost = True
                        gr, rem, kg, gV, mu, dts = _take(
                            ~fail, gr, rem, kg, gV, mu, dts)
                        if len(gr) == 0:
                            break
                    if nsub == 1:
                        zz = z[:, c].take(gr, axis=0)
                    else:
                        exh = cursor[gr] >= pool_len
                        if np.count_nonzero(exh):
                            roll_back(gr[exh])
                            gr, rem, kg, gV, mu, dts = _take(
                                ~exh, gr, rem, kg, gV, mu, dts)
                            if len(gr) == 0:
                                break
                        zz = pool[gr, cursor[gr], :]
                        cursor[gr] += 1
                    sq = np.sqrt(dts)
                    moves += len(gr)
                    xg = x.take(gr, axis=0)
                    xp = xg + (sq[:, None] * _rowdot(S, zz) + mu * dts[:, None])
                    dprop, gprop = sd._value_and_grad(xp)
                    rej = (~(dprop >= delta_guard)).nonzero()[0]
                    if len(rej):
                        keep = np.ones(len(gr), dtype=bool)
                        tries = 0
                        while len(rej):
                            tries += 1
                            redraws += len(rej)
                            if tries > resample_cap:
                                flags[gr[rej]] = FLAG_BOUNDARY_OVERFLOW
                                lost = True
                                keep[rej] = False
                                break
                            exh = cursor[gr[rej]] >= pool_len
                            if np.count_nonzero(exh):
                                roll_back(gr[rej[exh]])
                                keep[rej[exh]] = False
                                rej = rej[~exh]
                                if len(rej) == 0:
                                    break
                            rg = gr[rej]
                            zz[rej] = pool[rg, cursor[rg], :]
                            cursor[rg] += 1
                            xp[rej] = xg[rej] + (sq[rej, None] * _rowdot(S, zz[rej])
                                                 + mu[rej] * dts[rej, None])
                            dprop[rej], gprop[rej] = sd._value_and_grad(xp[rej])
                            rej = rej[~(dprop[rej] >= delta_guard)]
                        if not keep.all():
                            gr, rem, kg, gV, dts, xp, dprop, gprop = _take(
                                keep, gr, rem, kg, gV, dts, xp, dprop, gprop)
                            if len(gr) == 0:
                                break
                    rem = rem - dts
                    more = rem > 0.0
                    if nsub == 1 and np.count_nonzero(more):
                        # the step start, for a rollback in a later sub-step
                        xs, ks = x.take(base, axis=0), k.take(base, axis=0)
                    x[gr] = xp
                    k[gr] = kg - _rowdot(NU, gV) * dts[:, None]
                    cdel[gr], cgrad[gr] = dprop, gprop
                    if not np.count_nonzero(more):
                        break
                    gr, rem, delta, gdel = _take(more, gr, rem, dprop, gprop)
                if not spent:
                    break
                lost = True
                gr = refill(np.sort(np.concatenate(spent)), c)
                delta, gdel = sd._value_and_grad(x[gr])
            if lost:
                rows = rows[flags[rows] == FLAG_OK]
            s = gstep0 + c + 1
            if s >= first_snap and (s - first_snap) % snap_every == 0:
                slot = (s - first_snap) // snap_every
                out_x[rows, slot, :] = x[rows]
                out_k[rows, slot, :] = k[rows]
                out_ell[rows, slot] = 0.0
    counters[0] += moves
    counters[1] += redraws
