"""Chunked numpy stepping kernels for the ensemble integrators.

One vectorized kernel per stepping family advances every path of an
ensemble through one chunk of pregenerated noise, step-synchronously.
They step every domain kind (interval, half-line, ball, box, ellipsoid)
and every coefficient set.  The reflected kernel takes its contact rule
from the domain (``_exit`` and ``_land`` in :mod:`inertdrift.geometry`),
the landing that ``skorokhod.reflect_step`` also uses.

Every kernel takes the mutable state arrays, the chunk's noise, the
global index of the chunk's first step, and ``params``: one plain tuple of
the run's read-only constants, built once per run by the family's helper
in :mod:`inertdrift.simulate` and unpacked in one statement.  A sigma,
b or A that varies with x comes as a function of the live rows' points,
evaluated at the step start.  The push u = A n and the inert field v are
functions of boundary points and inward normals, defined once by the
coefficient set (:mod:`inertdrift.coefficients`).
Each kernel finishes its chunk in one call.  The noise is drawn in
:mod:`inertdrift.simulate`: the gradient kernel also takes the chunk's
reserve pool and a ``refill`` callback that renews a spent path's pool
there.  ``counters[0]`` counts contacts (reflected) or sub-moves
(gradient), ``counters[1]`` redraws and ``counters[2]`` pool refills
(gradient).

The reflected kernel steps only the live rows: it copies their x, k, ell
and log-weight into compact arrays once per chunk, with no per-step masks,
and writes them back at the chunk end or when a row gets flagged.  It
reads each step's noise column once.  With constant sigma and b it caches
the terms that depend on K, which moves only at contact, recomputing them
for the contact rows.

The gradient kernel also steps compact copies of the live rows' x, k,
delta and grad delta, written back at the chunk end or when a row gets
flagged.  With constant sigma it overwrites the chunk's noise z with S z,
in place and before the first step.  Each step moves every row by the
whole step dt in one pass; only the rows that must sub-divide, fail or
need a redraw take the step again, from its start, in the sub-step code.
It evaluates the wall once per proposal through
``SmoothDistance._value_and_grad``, which shares its formula with
``value`` and ``grad``, and carries delta and grad delta of the accepted
proposal into the next sub-step or step.
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
    """out[:, i] = sum_j M[i, j] V[:, j] for one (d, d) matrix M or a stack
    of one (d, d) matrix per row, summed left to right from +0.0
    (``p + 0.0`` turns a product of -0.0 into +0.0, as ``0.0 + p`` does)."""
    out = V[:, 0, None] * M[..., 0] + 0.0
    for j in range(1, V.shape[1]):
        out = out + V[:, j, None] * M[..., j]
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

    A proposal that leaves the domain is pushed back along
    u = UM(step start, n), with n the inward normal where it crossed, by the
    domain's contact rule (``_exit`` and ``_land``, which
    ``skorokhod.reflect_step`` also calls), and K gains v dL, with
    v = VM(landing point, normal there).  UM and VM are the coefficient
    set's functions of boundary points and normals.  With ``do_weight`` the
    drift leaves out K and the Girsanov log-weight is updated from the
    step-start K before the move (the driftless_weighted family).
    S and b are arrays, or functions of the points at the step start when
    they vary; SI, the inverse of a constant S, is None then.

    The live rows' x, k, ell and log-weight are copied into compact arrays
    once per chunk and stepped there, and each step reads its noise column
    once, as a view of the block while every row is live.  With constant S
    and b the terms that depend on K, (b + K) dt and the weight's w and
    0.5 |w|^2 dt, are cached per row and recomputed for the contact rows
    only, since K moves only there; a varying S or b recomputes them at
    every step.  A row that gets flagged is written back
    at once and dropped; the others are written back at the chunk end.
    """
    (dt, sqrt_dt, S, SI, b, UM, VM, do_weight, domain, first_snap,
     snap_every) = params
    use_k = not do_weight
    vary_s, vary_b = callable(S), callable(b)
    P, C, d = z.shape
    rows = (flags == FLAG_OK).nonzero()[0]
    xs, ks, ls, lw = x[rows], k[rows], ell[rows], logw[rows]

    def drift_of(bx, kx):
        # one row per path even without the inert drift, so rows drop together
        return (bx + (kx if use_k else np.zeros_like(kx))) * dt

    drift = None if vary_b else drift_of(b, ks)
    cached_w = do_weight and not vary_s
    w, h = _weight_terms(ks, SI, dt) if cached_w else (None, None)
    Sx = S
    contacts = 0

    def put(sel):
        """Write the compact rows ``sel`` back into the state arrays."""
        at = rows[sel]
        x[at], k[at], ell[at], logw[at] = xs[sel], ks[sel], ls[sel], lw[sel]
        return at

    for c in range(C):
        if not len(rows):
            break
        Z = z[:, c] if len(rows) == P else z[rows, c]
        if vary_s:
            Sx = S(xs)
            if do_weight:
                w, h = _weight_terms(ks, np.linalg.inv(Sx), dt)
        if vary_b:
            drift = drift_of(b(xs), ks)
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
                if vary_s:
                    Sx = Sx[~ovf]
        y = xs + (sqrt_dt * _rowdot(Sx, Z) + drift)
        out, normal = domain._exit(y)
        hit = out.nonzero()[0]
        if len(hit):
            land, dl, nl, ok = domain._land(y[hit], UM(xs[hit], normal))
            failed = not ok.all()
            if failed:
                keep = np.ones(len(rows), dtype=bool)
                keep[hit[~ok]] = False
                flags[put(~keep)] = FLAG_REFLECT_FAILURE
                hit, land, dl, nl = _take(ok, hit, land, dl, nl)
            y[hit] = land
            ks[hit] += VM(land, nl) * dl[:, None]
            ls[hit] += dl
            contacts += int(np.count_nonzero(dl > 0.0))
            if use_k and not vary_b:
                drift[hit] = drift_of(b, ks[hit])
            if cached_w:
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
    snapshot, from delta recomputed at its step start.  S, b and A2 = A/2
    are arrays, or functions of the points at the sub-step start when they
    vary.

    The live rows' x, k, delta and grad delta are copied into compact
    arrays once per chunk and stepped there.  With constant S, z is
    overwritten with S z before the first step (the product is elementwise,
    so each row gets the value a per-step product gives).  Each step first
    moves every live row by the whole step dt in one pass, with scalar dt
    and sqrt(dt).  A row whose drift would move it more than ``h_max`` in
    dt, that sits too close to the wall to evaluate, or whose proposal
    falls below ``delta_guard`` keeps its step start and takes the step in
    ``substeps``, the sub-step, redraw and rollback code, on the same
    normals.  Flagged rows are written back after their step, the others at
    the chunk end; ``refill`` reads neither x nor k.
    """
    (dt, S, b, A2, NU, vn, h_max, delta_guard, delta_floor, exp_cap,
     first_snap, snap_every, max_sub, resample_cap) = params
    vary_s = callable(S)
    P, C, d = z.shape
    pool_len = pool.shape[1]
    sqrt_dt = np.sqrt(dt)
    rows = (flags == FLAG_OK).nonzero()[0]
    xs, ks = x[rows], k[rows]
    cd, cg = sd._value_and_grad(xs)  # delta and grad delta at xs
    if not vary_s:  # each step's S z, in place, one path at a time
        for zp in z:
            zp[...] = _rowdot(S, zp)
    moves = redraws = 0

    def wall_drift(xg, kg, delta, gdel):
        """E = 1/(n delta), grad V, the drift mu and its length."""
        E = 1.0 / (vn * delta)
        gV = -(np.exp(E) / (vn * (delta * delta)))[:, None] * gdel
        mu = ((b(xg) if callable(b) else b)
              - _rowdot(A2(xg) if callable(A2) else A2, gV)) + kg
        speed2 = mu[:, 0] * mu[:, 0]  # equals 0.0 + mu^2: no -0.0
        for i in range(1, d):
            speed2 = speed2 + mu[:, i] * mu[:, i]
        return E, gV, mu, np.sqrt(speed2)

    def substeps(gi, c):
        """Take step c for the compact rows ``gi`` (sorted) from their step
        start, sub-divided, with redraws and rollbacks; True when a row was
        flagged or rolled back."""
        nonlocal moves, redraws
        start, x0, k0 = gi, xs[gi], ks[gi]
        delta, gdel = cd[gi], cg[gi]
        lost = False

        def roll_back(ri):
            """Send compact rows whose pool ran out back to their step start."""
            spent.append(ri)
            at = np.searchsorted(start, ri)
            xs[ri], ks[ri] = x0[at], k0[at]

        while len(gi):  # one attempt at step c, then one per refill
            rem = np.full(len(gi), dt)
            spent = []
            nsub = 0
            while True:
                nsub += 1
                if nsub > max_sub:
                    flags[rows[gi]] = FLAG_BOUNDARY_OVERFLOW
                    lost = True
                    break
                xg, kg = xs[gi], ks[gi]
                E, gV, mu, speed = wall_drift(xg, kg, delta, gdel)
                dts = np.where(speed * rem <= h_max, rem, h_max / speed)
                # too close to the wall to evaluate, or a collapsed sub-step
                fail = (delta < delta_floor) | (E > exp_cap) | (dts < dt * 1e-12)
                if np.count_nonzero(fail):
                    flags[rows[gi[fail]]] = FLAG_BOUNDARY_OVERFLOW
                    lost = True
                    gi, rem, kg, xg, gV, mu, dts = _take(
                        ~fail, gi, rem, kg, xg, gV, mu, dts)
                    if len(gi) == 0:
                        break
                gr = rows[gi]
                if nsub == 1:  # S z already with constant S
                    zz = z[gr, c]
                else:
                    exh = cursor[gr] >= pool_len
                    if np.count_nonzero(exh):
                        roll_back(gi[exh])
                        gi, gr, rem, kg, xg, gV, mu, dts = _take(
                            ~exh, gi, gr, rem, kg, xg, gV, mu, dts)
                        if len(gi) == 0:
                            break
                    zz = pool[gr, cursor[gr], :]
                    cursor[gr] += 1
                sq = np.sqrt(dts)
                moves += len(gi)
                Sx = S(xg) if vary_s else S
                noise = _rowdot(Sx, zz) if vary_s or nsub > 1 else zz
                xp = xg + (sq[:, None] * noise + mu * dts[:, None])
                dprop, gprop = sd._value_and_grad(xp)
                rej = (~(dprop >= delta_guard)).nonzero()[0]
                if len(rej):
                    keep = np.ones(len(gi), dtype=bool)
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
                            roll_back(gi[rej[exh]])
                            keep[rej[exh]] = False
                            rej = rej[~exh]
                            if len(rej) == 0:
                                break
                        rg = gr[rej]
                        zz[rej] = pool[rg, cursor[rg], :]
                        cursor[rg] += 1
                        Sr = Sx[rej] if vary_s else Sx
                        xp[rej] = xg[rej] + (sq[rej, None] * _rowdot(Sr, zz[rej])
                                             + mu[rej] * dts[rej, None])
                        dprop[rej], gprop[rej] = sd._value_and_grad(xp[rej])
                        rej = rej[~(dprop[rej] >= delta_guard)]
                    if not keep.all():
                        gi, rem, kg, gV, dts, xp, dprop, gprop = _take(
                            keep, gi, rem, kg, gV, dts, xp, dprop, gprop)
                        if len(gi) == 0:
                            break
                rem = rem - dts
                more = rem > 0.0
                xs[gi] = xp
                ks[gi] = kg - _rowdot(NU, gV) * dts[:, None]
                cd[gi], cg[gi] = dprop, gprop
                if not np.count_nonzero(more):
                    break
                gi, rem, delta, gdel = _take(more, gi, rem, dprop, gprop)
            if not spent:
                break
            lost = True
            gi = np.searchsorted(
                rows, refill(rows[np.sort(np.concatenate(spent))], c))
            delta, gdel = sd._value_and_grad(xs[gi])
        return lost

    # a wall too close for double precision is caught by the ``fail`` test,
    # so floating-point warnings stay off for the whole chunk
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for c in range(C):
            if not len(rows):
                break
            # the whole step in one move, for every live row
            E, gV, mu, speed = wall_drift(xs, ks, cd, cg)
            zc = z[:, c] if len(rows) == P else z[rows, c]
            noise = _rowdot(S(xs), zc) if vary_s else zc
            xp = xs + (sqrt_dt * noise + mu * dt)
            dprop, gprop = sd._value_and_grad(xp)
            kp = ks - _rowdot(NU, gV) * dt
            # rows that sub-divide, fail or need a redraw keep their step
            # start and take the step in ``substeps``
            whole = speed * dt <= h_max
            whole &= cd >= delta_floor
            whole &= E <= exp_cap
            whole &= dprop >= delta_guard
            n_slow = len(rows) - np.count_nonzero(whole)
            if n_slow:
                slow = (~whole).nonzero()[0]
                xp[slow], kp[slow] = xs[slow], ks[slow]
                dprop[slow], gprop[slow] = cd[slow], cg[slow]
            xs, ks, cd, cg = xp, kp, dprop, gprop
            moves += len(rows) - n_slow
            if n_slow and substeps(slow, c):
                keep = flags[rows] == FLAG_OK
                gone = rows[~keep]
                x[gone], k[gone] = xs[~keep], ks[~keep]
                rows, xs, ks, cd, cg = _take(keep, rows, xs, ks, cd, cg)
            s = gstep0 + c + 1
            if s >= first_snap and (s - first_snap) % snap_every == 0:
                slot = (s - first_snap) // snap_every
                out_x[rows, slot, :] = xs
                out_k[rows, slot, :] = ks
                out_ell[rows, slot] = 0.0
    x[rows], k[rows] = xs, ks
    counters[0] += moves
    counters[1] += redraws
