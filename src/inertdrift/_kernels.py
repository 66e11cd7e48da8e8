"""Chunked stepping backends for the ensemble integrators.

Each hot kernel exists twice: a compiled per-path loop (numba ``@njit``)
and a vectorized numpy twin.  Both consume identical pregenerated noise
arrays and perform the same floating-point operations in the same order,
so the reflected-family backends produce bit-identical trajectories.  The
gradient-family backends additionally evaluate ``exp``, whose last-ulp
rounding may differ between the scalar libm call and numpy's array loop;
those trajectories agree to rounding noise on short horizons and in
distribution on long ones.

Backend selection: setting the ``INERTDRIFT_NO_NUMBA`` environment
variable to anything other than ``""`` or ``"0"`` forces the numpy
backend; otherwise numba is used whenever it imports.

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

import os

import numpy as np

_env_flag = os.environ.get("INERTDRIFT_NO_NUMBA", "").strip()
NUMBA_DISABLED = _env_flag not in ("", "0")

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled by INERTDRIFT_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via the env flag
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def decorate(fn):
            return fn

        return decorate


def active_backend():
    """Name of the default backend: 'numba' when available, else 'numpy'."""
    return "numba" if HAVE_NUMBA else "numpy"


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


@njit(cache=True)
def _reflected_chunk_loop(
    x, k, ell, logw, flags, out_x, out_k, out_ell, counters, z, gstep0, params
):  # pragma: no cover - compiled; the numpy twin carries coverage
    (dt, sqrt_dt, S, SI, b, UM, VM, use_k, do_weight, dkind, dlo, dhi, _,
     dcenter, dradius, first_snap, snap_every) = params
    P, C, d = z.shape
    for p in range(P):
        if flags[p] != FLAG_OK:
            continue
        y = np.empty(d)
        nx = np.empty(d)
        pu = np.empty(d)
        for c in range(C):
            if do_weight:
                acc1 = 0.0
                acc2 = 0.0
                for i in range(d):
                    wi = 0.0
                    for j in range(d):
                        wi += SI[i, j] * k[p, j]
                    acc1 += wi * (sqrt_dt * z[p, c, i])
                    acc2 += wi * wi
                logw[p] += acc1 - 0.5 * acc2 * dt
                if logw[p] > LOG_WEIGHT_CAP:
                    flags[p] = FLAG_WEIGHT_OVERFLOW
                    break
            for i in range(d):
                tmp = 0.0
                for j in range(d):
                    tmp += S[i, j] * z[p, c, j]
                kk = k[p, i] if use_k else 0.0
                y[i] = x[p, i] + (sqrt_dt * tmp + (b[i] + kk) * dt)
            dl = 0.0
            if dkind == DOM_INTERVAL:
                yy = y[0]
                if yy < dlo:
                    dl = (dlo - yy) / UM[0, 0]
                    x[p, 0] = dlo
                    k[p, 0] += VM[0, 0] * dl
                elif yy > dhi:
                    dl = (dhi - yy) / (-UM[0, 0])
                    x[p, 0] = dhi
                    k[p, 0] += (-VM[0, 0]) * dl
                else:
                    x[p, 0] = yy
            else:
                rr2 = 0.0
                for i in range(d):
                    nx[i] = y[i] - dcenter[i]
                    rr2 += nx[i] * nx[i]
                rr = np.sqrt(rr2)
                if rr > dradius:
                    for i in range(d):
                        nx[i] = -(nx[i] / rr)
                    a_ = 0.0
                    b_ = 0.0
                    for i in range(d):
                        pi = 0.0
                        for j in range(d):
                            pi += UM[i, j] * nx[j]
                        pu[i] = pi
                        a_ += pi * pi
                        b_ += (y[i] - dcenter[i]) * pi
                    cc = rr2 - dradius * dradius
                    disc = b_ * b_ - a_ * cc
                    if disc <= 0.0:
                        flags[p] = FLAG_REFLECT_FAILURE
                        break
                    dl = (-b_ - np.sqrt(disc)) / a_
                    nn2 = 0.0
                    for i in range(d):
                        nx[i] = (y[i] + dl * pu[i]) - dcenter[i]
                        nn2 += nx[i] * nx[i]
                    nn = np.sqrt(nn2)
                    for i in range(d):
                        x[p, i] = dcenter[i] + dradius * (nx[i] / nn)
                        nx[i] = -(nx[i] / nn)
                    for i in range(d):
                        vi = 0.0
                        for j in range(d):
                            vi += VM[i, j] * nx[j]
                        k[p, i] += vi * dl
                else:
                    for i in range(d):
                        x[p, i] = y[i]
            if dl > 0.0:
                counters[0] += 1
            ell[p] += dl
            s = gstep0 + c + 1
            if s >= first_snap and (s - first_snap) % snap_every == 0:
                slot = (s - first_snap) // snap_every
                for i in range(d):
                    out_x[p, slot, i] = x[p, i]
                    out_k[p, slot, i] = k[p, i]
                out_ell[p, slot] = ell[p]


def _reflected_chunk_vec(
    x, k, ell, logw, flags, out_x, out_k, out_ell, counters, z, gstep0, params
):
    """Vectorized twin of :func:`_reflected_chunk_loop` (same arithmetic)."""
    (dt, sqrt_dt, S, SI, b, UM, VM, use_k, do_weight, dkind, dlo, dhi, _,
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


@njit(cache=True)
def _smooth_delta_loop(xvec, gd, dkind, dlo, dhi, dmid, dcap, dcenter, dradius):
    """Smoothed boundary distance and its gradient (written into ``gd``).

    Mirrors the interval/ball formulas of geometry.SmoothDistance exactly:
    quartic center cap of radius ``dcap``, plain distance outside it.  For
    the half-line (``dhi`` infinite) the distance is exact with gradient 1.
    Returns the smoothed distance; negative values mean "outside".
    """  # pragma: no cover - compiled; parity with SmoothDistance is tested
    d = xvec.shape[0]
    if dkind == DOM_INTERVAL:
        if dhi == np.inf:
            gd[0] = 1.0
            return xvec[0] - dlo
        gd[0] = xvec[0] - dmid
        s = abs(gd[0])
    else:
        s2t = 0.0
        for i in range(d):
            gd[i] = xvec[i] - dcenter[i]
            s2t += gd[i] * gd[i]
        s = np.sqrt(s2t)
    a = dcap
    if s < a:
        s2 = s * s
        phi = 3.0 * a / 8.0 + 3.0 * s2 / (4.0 * a) - (s2 * s2) / (
            8.0 * ((a * a) * a)
        )
        dpos = 3.0 / (2.0 * a) - s2 / (2.0 * ((a * a) * a))
    else:
        phi = s
        dpos = 1.0 / s
    for i in range(d):
        gd[i] = (-dpos) * gd[i]
    return dradius - phi


@njit(cache=True)
def _gradient_chunk_loop(
    x, k, flags, out_x, out_k, out_ell, counters, z, pool, cursor, progress,
    need, gstep0, params,
):  # pragma: no cover - compiled; the numpy twin carries coverage
    (dt, S, b, A2, NU, vn, h_max, delta_guard, delta_floor, exp_cap, dkind,
     dlo, dhi, dmid, dcap, dcenter, dradius, first_snap, snap_every, max_sub,
     resample_cap) = params
    P, C, d = z.shape
    pool_len = pool.shape[1]
    for p in range(P):
        if flags[p] != FLAG_OK or progress[p] >= C:
            continue
        xs = np.empty(d)
        ks = np.empty(d)
        gd = np.empty(d)
        gs = np.empty(d)
        mu = np.empty(d)
        zz = np.empty(d)
        xp = np.empty(d)
        c = progress[p]
        while c < C:
            for i in range(d):
                xs[i] = x[p, i]
                ks[i] = k[p, i]
            remaining = dt
            first = True
            nsub = 0
            ok = True
            while remaining > 0.0:
                nsub += 1
                if nsub > max_sub:
                    flags[p] = FLAG_BOUNDARY_OVERFLOW
                    ok = False
                    break
                delta = _smooth_delta_loop(
                    x[p], gd, dkind, dlo, dhi, dmid, dcap, dcenter, dradius
                )
                if delta < delta_floor:
                    flags[p] = FLAG_BOUNDARY_OVERFLOW
                    ok = False
                    break
                E = 1.0 / (vn * delta)
                if E > exp_cap:
                    flags[p] = FLAG_BOUNDARY_OVERFLOW
                    ok = False
                    break
                Vp = np.exp(E)
                pref = -(Vp / (vn * (delta * delta)))
                for i in range(d):
                    gd[i] = pref * gd[i]
                speed2 = 0.0
                for i in range(d):
                    acc = 0.0
                    for j in range(d):
                        acc += A2[i, j] * gd[j]
                    mu[i] = (b[i] - acc) + k[p, i]
                    speed2 += mu[i] * mu[i]
                speed = np.sqrt(speed2)
                if speed * remaining <= h_max:
                    dts = remaining
                else:
                    dts = h_max / speed
                if dts < dt * 1e-12:
                    flags[p] = FLAG_BOUNDARY_OVERFLOW
                    ok = False
                    break
                sq = np.sqrt(dts)
                if first:
                    for i in range(d):
                        zz[i] = z[p, c, i]
                    first = False
                else:
                    if cursor[p] >= pool_len:
                        need[p] = 1
                        ok = False
                        break
                    for i in range(d):
                        zz[i] = pool[p, cursor[p], i]
                    cursor[p] += 1
                counters[0] += 1
                tries = 0
                accepted = False
                while True:
                    for i in range(d):
                        tmp = 0.0
                        for j in range(d):
                            tmp += S[i, j] * zz[j]
                        xp[i] = x[p, i] + (sq * tmp + mu[i] * dts)
                    dprop = _smooth_delta_loop(
                        xp, gs, dkind, dlo, dhi, dmid, dcap, dcenter, dradius
                    )
                    if dprop >= delta_guard:
                        accepted = True
                        break
                    tries += 1
                    counters[1] += 1
                    if tries > resample_cap:
                        flags[p] = FLAG_BOUNDARY_OVERFLOW
                        ok = False
                        break
                    if cursor[p] >= pool_len:
                        need[p] = 1
                        ok = False
                        break
                    for i in range(d):
                        zz[i] = pool[p, cursor[p], i]
                    cursor[p] += 1
                if not accepted:
                    break
                for i in range(d):
                    acc = 0.0
                    for j in range(d):
                        acc += NU[i, j] * gd[j]
                    k[p, i] -= acc * dts
                for i in range(d):
                    x[p, i] = xp[i]
                remaining -= dts
            if not ok:
                if need[p] == 1:
                    for i in range(d):
                        x[p, i] = xs[i]
                        k[p, i] = ks[i]
                break
            s = gstep0 + c + 1
            if s >= first_snap and (s - first_snap) % snap_every == 0:
                slot = (s - first_snap) // snap_every
                for i in range(d):
                    out_x[p, slot, i] = x[p, i]
                    out_k[p, slot, i] = k[p, i]
                out_ell[p, slot] = 0.0
            c += 1
            progress[p] = c


def _gradient_chunk_vec(
    sd, x, k, flags, out_x, out_k, out_ell, counters, z, pool, cursor,
    progress, need, gstep0, params,
):
    """Vectorized twin of :func:`_gradient_chunk_loop`.

    Evaluates the SmoothDistance object ``sd`` directly (same formulas the
    compiled kernel re-implements from the scalar domain entries of
    ``params``).  Paths are advanced step-synchronously; after a pool
    refill only the lagging paths re-enter the early steps.
    """
    (dt, S, b, A2, NU, vn, h_max, delta_guard, delta_floor, exp_cap, _, _, _,
     _, _, _, _, first_snap, snap_every, max_sub, resample_cap) = params
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


def reflected_chunk(backend, *args):
    """Dispatch one reflected-family chunk to the requested backend."""
    if backend == "numba":
        _reflected_chunk_loop(*args)
    else:
        _reflected_chunk_vec(*args)


def gradient_chunk(backend, sd, *args):
    """Dispatch one gradient-family chunk to the requested backend.

    The compiled kernel reads the geometry of ``sd`` from the scalar domain
    entries of its params tuple; the numpy twin evaluates ``sd`` itself.
    """
    if backend == "numba":
        _gradient_chunk_loop(*args)
    else:
        _gradient_chunk_vec(sd, *args)
