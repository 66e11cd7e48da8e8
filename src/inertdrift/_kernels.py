"""Chunked numpy stepping kernels for the ensemble integrators.

One vectorized kernel per stepping family advances every path of an
ensemble through one chunk of pregenerated noise, step-synchronously.
Each performs the same floating-point operations in the same order as the
generic per-path steppers in :mod:`inertdrift.simulate`, so the two
backends agree bit for bit on the interval and for the gradient family
(tested); on the ball the generic reflection map rounds the contact
differently in the last digits.

Every kernel takes the mutable state arrays, the chunk's noise, the
global index of the chunk's first step, and ``params``: one plain tuple of
the run's read-only constants, built once per run by the family's helper
in :mod:`inertdrift.simulate` and unpacked in one statement; the host
loop there draws all noise.  ``counters[0]`` counts contacts (reflected)
or sub-moves (gradient), ``counters[1]`` redraws (gradient).

Kernels cover constant-coefficient runs on intervals (bounded or
half-line) and balls; everything else goes through the generic per-path
steppers in :mod:`inertdrift.simulate`, which follow the same protocol.
"""

import importlib.util

import numpy as np

# Read only by the machine block of perfbench/run.py; nothing in the
# package branches on it.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None

# Domain tags understood by the kernels.
DOM_INTERVAL = 0
DOM_BALL = 1

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


# ---------------------------------------------------------------------------
# reflected family (with or without the inert drift / Girsanov weight)
# ---------------------------------------------------------------------------


def reflected_chunk(
    x, k, ell, logw, flags, out_x, out_k, out_ell, counters, z, gstep0, params
):
    """Advance every live path of a reflected-family run through one chunk.

    On contact the interval pushes along u back to its endpoint and the
    ball solves the quadratic for the closed-form landing point; K gains
    v dL in both.  With ``do_weight`` the Girsanov log-weight is updated
    from the step-start K before the move.
    """
    (dt, sqrt_dt, S, SI, b, UM, VM, use_k, do_weight, dkind, dlo, dhi,
     dcenter, dradius, first_snap, snap_every) = params
    P, C, d = z.shape
    for c in range(C):
        alive = flags == FLAG_OK
        if not alive.any():
            break
        Z = z[:, c, :]
        if do_weight:
            acc1 = np.zeros(P)
            acc2 = np.zeros(P)
            for i in range(d):
                wi = np.zeros(P)
                for j in range(d):
                    wi = wi + SI[i, j] * k[:, j]
                acc1 = acc1 + wi * (sqrt_dt * Z[:, i])
                acc2 = acc2 + wi * wi
            logw[alive] = logw[alive] + (acc1 - 0.5 * acc2 * dt)[alive]
            ovf = alive & (logw > LOG_WEIGHT_CAP)
            if ovf.any():
                flags[ovf] = FLAG_WEIGHT_OVERFLOW
                alive = alive & ~ovf
        y = np.empty((P, d))
        for i in range(d):
            tmp = np.zeros(P)
            for j in range(d):
                tmp = tmp + S[i, j] * Z[:, j]
            kk = k[:, i] if use_k else 0.0
            y[:, i] = x[:, i] + (sqrt_dt * tmp + (b[i] + kk) * dt)
        dl = np.zeros(P)
        done = alive.copy()
        if dkind == DOM_INTERVAL:
            yy = y[:, 0]
            below = alive & (yy < dlo)
            above = alive & (yy > dhi)
            inside = alive & ~below & ~above
            x[inside, 0] = yy[inside]
            if below.any():
                dlb = (dlo - yy[below]) / UM[0, 0]
                x[below, 0] = dlo
                k[below, 0] += VM[0, 0] * dlb
                dl[below] = dlb
            if above.any():
                dla = (dhi - yy[above]) / (-UM[0, 0])
                x[above, 0] = dhi
                k[above, 0] += (-VM[0, 0]) * dla
                dl[above] = dla
        else:
            off = y - dcenter
            rr2 = np.zeros(P)
            for i in range(d):
                rr2 = rr2 + off[:, i] * off[:, i]
            rr = np.sqrt(np.where(rr2 > 0.0, rr2, 1.0))
            rr = np.where(rr2 > 0.0, rr, 0.0)
            out = alive & (rr > dradius)
            inside = alive & ~out
            x[inside] = y[inside]
            if out.any():
                rows = np.where(out)[0]
                uo = off[rows]
                rro = rr[rows]
                yo = y[rows]
                m = len(rows)
                nxm = np.empty((m, d))
                for i in range(d):
                    nxm[:, i] = -(uo[:, i] / rro)
                pum = np.empty((m, d))
                a_ = np.zeros(m)
                b_ = np.zeros(m)
                for i in range(d):
                    pi = np.zeros(m)
                    for j in range(d):
                        pi = pi + UM[i, j] * nxm[:, j]
                    pum[:, i] = pi
                    a_ = a_ + pi * pi
                    b_ = b_ + uo[:, i] * pi
                cc = rr2[rows] - dradius * dradius
                disc = b_ * b_ - a_ * cc
                bad = disc <= 0.0
                if bad.any():
                    flags[rows[bad]] = FLAG_REFLECT_FAILURE
                    done[rows[bad]] = False
                good = ~bad
                grows = rows[good]
                if len(grows):
                    dlg = (-b_[good] - np.sqrt(disc[good])) / a_[good]
                    land = np.empty((len(grows), d))
                    nn2 = np.zeros(len(grows))
                    for i in range(d):
                        land[:, i] = (yo[good, i] + dlg * pum[good, i]) - dcenter[i]
                        nn2 = nn2 + land[:, i] * land[:, i]
                    nn = np.sqrt(nn2)
                    nl = np.empty_like(land)
                    for i in range(d):
                        x[grows, i] = dcenter[i] + dradius * (land[:, i] / nn)
                        nl[:, i] = -(land[:, i] / nn)
                    for i in range(d):
                        vi = np.zeros(len(grows))
                        for j in range(d):
                            vi = vi + VM[i, j] * nl[:, j]
                        k[grows, i] += vi * dlg
                    dl[grows] = dlg
        counters[0] += int((dl[done] > 0.0).sum())
        ell[done] = ell[done] + dl[done]
        s = gstep0 + c + 1
        if s >= first_snap and (s - first_snap) % snap_every == 0:
            slot = (s - first_snap) // snap_every
            out_x[done, slot, :] = x[done]
            out_k[done, slot, :] = k[done]
            out_ell[done, slot] = ell[done]


# ---------------------------------------------------------------------------
# gradient family (smooth wall potential, no reflection)
# ---------------------------------------------------------------------------


def gradient_chunk(
    sd, x, k, flags, out_x, out_k, out_ell, counters, z, pool, cursor,
    progress, need, gstep0, params,
):
    """Advance every live path of a gradient-family run through one chunk.

    The wall is evaluated through the SmoothDistance object ``sd``.  Each
    step is sub-divided so no sub-move exceeds ``h_max`` and proposals
    below ``delta_guard`` are redrawn, both from the reserve ``pool``; a
    path whose pool runs out goes back to its step start and sets
    ``need``.  After a pool refill only the lagging paths re-enter the
    early steps.
    """
    (dt, S, b, A2, NU, vn, h_max, delta_guard, delta_floor, exp_cap,
     first_snap, snap_every, max_sub, resample_cap) = params
    P, C, d = z.shape
    pool_len = pool.shape[1]
    todo = (flags == FLAG_OK) & (progress < C)
    if not todo.any():
        return
    for c in range(int(progress[todo].min()), C):
        rows = np.where((flags == FLAG_OK) & (need == 0) & (progress == c))[0]
        if len(rows) == 0:
            continue
        m = len(rows)
        xs = x[rows].copy()
        ks = k[rows].copy()
        remaining = np.full(m, dt)
        live = np.ones(m, dtype=bool)
        nsub = 0
        first = True
        while True:
            act = live & (remaining > 0.0)
            if not act.any():
                break
            nsub += 1
            if nsub > max_sub:
                flags[rows[act]] = FLAG_BOUNDARY_OVERFLOW
                live[act] = False
                break
            pos = np.where(act)[0]
            gr = rows[pos]
            pts = x[gr]
            delta = sd._value(pts)
            gdel = sd._grad(pts)
            with np.errstate(divide="ignore", over="ignore"):
                E = 1.0 / (vn * delta)
            bad = (delta < delta_floor) | (E > exp_cap)
            if bad.any():
                flags[gr[bad]] = FLAG_BOUNDARY_OVERFLOW
                live[pos[bad]] = False
                good = ~bad
                pos = pos[good]
                gr = gr[good]
                if len(pos) == 0:
                    continue
                delta = delta[good]
                gdel = gdel[good]
                E = E[good]
            Vp = np.exp(E)
            pref = -(Vp / (vn * (delta * delta)))
            gV = pref[:, None] * gdel
            mu = np.empty_like(gV)
            speed2 = np.zeros(len(pos))
            for i in range(d):
                acc = np.zeros(len(pos))
                for j in range(d):
                    acc = acc + A2[i, j] * gV[:, j]
                mu[:, i] = (b[i] - acc) + k[gr, i]
                speed2 = speed2 + mu[:, i] * mu[:, i]
            speed = np.sqrt(speed2)
            rem = remaining[pos]
            with np.errstate(divide="ignore"):
                dts = np.where(speed * rem <= h_max, rem, h_max / speed)
            tiny = dts < dt * 1e-12
            if tiny.any():
                flags[gr[tiny]] = FLAG_BOUNDARY_OVERFLOW
                live[pos[tiny]] = False
                keep = ~tiny
                pos, gr = pos[keep], gr[keep]
                if len(pos) == 0:
                    continue
                gV, mu, dts = gV[keep], mu[keep], dts[keep]
            if first:
                zz = z[gr, c, :]
                first = False
            else:
                exh = cursor[gr] >= pool_len
                if exh.any():
                    need[gr[exh]] = 1
                    x[gr[exh]] = xs[pos[exh]]
                    k[gr[exh]] = ks[pos[exh]]
                    live[pos[exh]] = False
                    keep = ~exh
                    pos, gr = pos[keep], gr[keep]
                    if len(pos) == 0:
                        continue
                    gV, mu, dts = gV[keep], mu[keep], dts[keep]
                zz = pool[gr, cursor[gr], :]
                cursor[gr] += 1
            sq = np.sqrt(dts)
            counters[0] += len(pos)
            tries = 0
            pend = np.ones(len(pos), dtype=bool)
            xp = np.empty((len(pos), d))
            while pend.any():
                w = np.where(pend)[0]
                for i in range(d):
                    tmp = np.zeros(len(w))
                    for j in range(d):
                        tmp = tmp + S[i, j] * zz[w, j]
                    xp[w, i] = x[gr[w], i] + (sq[w] * tmp + mu[w, i] * dts[w])
                dprop = sd._value(xp[w])
                accept = dprop >= delta_guard
                pend[w[accept]] = False
                rej = w[~accept]
                if len(rej) == 0:
                    break
                tries += 1
                counters[1] += len(rej)
                if tries > resample_cap:
                    flags[gr[rej]] = FLAG_BOUNDARY_OVERFLOW
                    live[pos[rej]] = False
                    pend[rej] = False
                    continue
                exh = cursor[gr[rej]] >= pool_len
                if exh.any():
                    er = rej[exh]
                    need[gr[er]] = 1
                    x[gr[er]] = xs[pos[er]]
                    k[gr[er]] = ks[pos[er]]
                    live[pos[er]] = False
                    pend[er] = False
                    rej = rej[~exh]
                    if len(rej) == 0:
                        continue
                zz[rej] = pool[gr[rej], cursor[gr[rej]], :]
                cursor[gr[rej]] += 1
            ok = live[pos]
            pos = pos[ok]
            gr = gr[ok]
            if len(pos) == 0:
                continue
            gVs, dtss, xps = gV[ok], dts[ok], xp[ok]
            for i in range(d):
                acc = np.zeros(len(pos))
                for j in range(d):
                    acc = acc + NU[i, j] * gVs[:, j]
                k[gr, i] -= acc * dtss
            x[gr] = xps
            remaining[pos] = remaining[pos] - dtss
        frows = rows[live]
        if len(frows):
            s = gstep0 + c + 1
            if s >= first_snap and (s - first_snap) % snap_every == 0:
                slot = (s - first_snap) // snap_every
                out_x[frows, slot, :] = x[frows]
                out_k[frows, slot, :] = k[frows]
                out_ell[frows, slot] = 0.0
            progress[frows] = c + 1

