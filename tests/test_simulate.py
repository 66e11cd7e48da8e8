"""Stepping and ensemble-driver tests.

Frozen oracles
--------------
Half-line gradient step from x=0.5, k=0, n=1, sigma=1, Gamma=1, zero
noise, dt=1e-3: the wall term is V'(0.5) = -4 e^2 exactly (delta = 0.5,
exp(1/0.5) = e^2, and the quartic center cap is absent on the half-line),
so one Euler step gives x + 2 e^2 dt and k = 2 e^2 dt:

    x_1 = 0.5147781121978613
    k_1 = 0.014778112197861301

Interval contact from x=0.05 with realized increment -0.1 and unit push:
overshoot 0.05, so dl = 0.05, landing x = 0, K gains Gamma * n * dl.
With A = 2I (full conormal, push u = 2n) the same overshoot is absorbed
by half the local time, dl = 0.025; v = Gamma n still adds 0.025 while
v = a0 u adds 0.05, preserving the K increment when v scales with u.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import inertdrift
from inertdrift import (
    Ball,
    Box,
    CoefficientSet,
    Ellipsoid,
    Interval,
    Potential,
    SimConfig,
    SmoothDistance,
    make_coefficients,
    run_ensemble,
)
from inertdrift import _kernels, simulate
from inertdrift.simulate import _CSV_BLOCK_ROWS, TrajectoryBatch

FROZEN_X1 = 0.5147781121978613
FROZEN_K1 = 0.014778112197861301


@pytest.fixture(scope="module")
def unit_interval():
    return Interval(0.0, 1.0)


@pytest.fixture(scope="module")
def interval_cs(unit_interval):
    return make_coefficients("identity", unit_interval, gamma=[[1.0]])


@pytest.fixture(scope="module")
def wall_n2(unit_interval):
    return Potential(
        "regularized_vn", distance=SmoothDistance(unit_interval), n=2
    )


# ---------------------------------------------------------------------------
# single-step arithmetic: one path, one step, one kernel call
# ---------------------------------------------------------------------------


def _state(x, k):
    """One path's kernel state arrays at (x, k), with one snapshot slot."""
    x = np.array([x], dtype=float)
    d = x.shape[1]
    return dict(x=x, k=np.array([k], dtype=float), ell=np.zeros(1),
                logw=np.zeros(1), flags=np.zeros(1, dtype=np.int64),
                out_x=np.full((1, 1, d), np.nan), out_k=np.full((1, 1, d), np.nan),
                out_ell=np.full((1, 1), np.nan), counters=np.zeros(3, dtype=np.int64))


def _reflect_once(cs, dom, x, k, dt, z, family="reflected"):
    """One reflected-kernel step of one path from (x, k) on the normals z."""
    cfg = SimConfig(family=family, dt_base=dt, t_end=dt, n_paths=1, seed=0)
    st = _state(x, k)
    _kernels.reflected_chunk(
        st["x"], st["k"], st["ell"], st["logw"], st["flags"], st["out_x"],
        st["out_k"], st["out_ell"], st["counters"],
        np.array(z, dtype=float).reshape(1, 1, -1), 0,
        simulate._reflected_params(cs, dom, cfg, st["x"][0]))
    return st


def _gradient_once(cs, pot, x, k, dt, z, pool=(), refill=None, **cfg_kw):
    """One gradient-kernel step of one path from (x, k) on the normals z,
    with ``pool`` as its reserve normals; ``refill`` defaults to flagging
    the path.  No sub-step cap unless ``cfg_kw`` sets one."""
    cfg_kw.setdefault("adaptive", False)
    cfg = SimConfig(family="gradient", dt_base=dt, t_end=dt, n_paths=1,
                    seed=0, **cfg_kw)
    guard = (cfg.delta_guard if cfg.delta_guard is not None
             else simulate._default_delta_guard(pot))
    st = _state(x, k)
    d = st["x"].shape[1]

    def flag(rows, c):
        st["flags"][rows] = _kernels.FLAG_BOUNDARY_OVERFLOW
        return rows[:0]

    _kernels.gradient_chunk(
        pot.distance, st["x"], st["k"], st["flags"], st["out_x"], st["out_k"],
        st["out_ell"], st["counters"], np.array(z, dtype=float).reshape(1, 1, d),
        np.array(pool, dtype=float).reshape(1, -1, d), np.zeros(1, dtype=np.int64),
        refill or flag, 0,
        simulate._gradient_params(cs, pot, cfg, st["x"][0], guard))
    return st


def test_gradient_step_frozen_halfline_values():
    dom = Interval(0.0, np.inf)
    pot = Potential("regularized_vn", distance=SmoothDistance(dom), n=1)
    cs = CoefficientSet(dom, gamma=[[1.0]])
    s1 = _gradient_once(cs, pot, [0.5], [0.0], 1e-3, [0.0])
    assert s1["x"][0, 0] == pytest.approx(FROZEN_X1, rel=1e-15)
    assert s1["k"][0, 0] == pytest.approx(FROZEN_K1, rel=1e-15)
    assert s1["out_ell"][0, 0] == 0.0
    assert s1["out_x"][0, 0, 0] == s1["x"][0, 0]  # step 1 is recorded


def test_gradient_step_richardson_order_two(interval_cs, wall_n2):
    def advance(dt, nsteps):
        x, k = [0.5], [0.2]
        for _ in range(nsteps):
            s = _gradient_once(interval_cs, wall_n2, x, k, dt, [0.0])
            x, k = s["x"][0], s["k"][0]
        return x, k

    dts = np.array([2e-3, 1e-3, 5e-4])
    errs = []
    for dt in dts:
        one = advance(dt, 1)
        two = advance(dt / 2, 2)
        errs.append(abs(one[0][0] - two[0][0]) + abs(one[1][0] - two[1][0]))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 1.9
    assert errs[0] > errs[1] > errs[2]


def test_gradient_step_redraws_wallbound_proposals(interval_cs, unit_interval):
    pot = Potential(
        "regularized_vn", distance=SmoothDistance(unit_interval), n=8
    )
    guard = 1.0 / 480.0
    pool = np.random.default_rng(123).standard_normal(60)
    # noise -8 throws the proposal below the wall layer; redraws rescue it
    s1 = _gradient_once(interval_cs, pot, [0.05], [0.0], 1e-4, [-8.0], pool=pool)
    assert s1["flags"][0] == 0 and s1["counters"][1] > 0
    assert unit_interval.inside(s1["x"][0])
    assert SmoothDistance(unit_interval).value(s1["x"][0]) >= guard
    # without reserve normals the redraw has no noise source: the path goes
    # back to its step start and asks for a refill
    asked = []

    def refill(rows, c):
        asked.append((rows.tolist(), c))
        return rows[:0]

    s2 = _gradient_once(interval_cs, pot, [0.05], [0.0], 1e-4, [-8.0],
                        refill=refill)
    assert asked == [([0], 0)]
    assert s2["x"][0, 0] == 0.05 and s2["k"][0, 0] == 0.0


def test_gradient_step_budget_exhaustion_raises(interval_cs, unit_interval):
    pot = Potential(
        "regularized_vn", distance=SmoothDistance(unit_interval), n=1
    )
    pool = np.random.default_rng(5).standard_normal(60)
    # one sub-step cannot cover a stiff move capped at h_max = 1e-4: flagged
    # on the second sub-step, before it draws
    s1 = _gradient_once(interval_cs, pot, [0.3], [0.0], 0.01, [0.0], pool=pool,
                        adaptive=True, h_max_fraction=2e-4, max_substeps=1)
    assert s1["flags"][0] == _kernels.FLAG_BOUNDARY_OVERFLOW
    assert s1["counters"].tolist() == [1, 0, 0]
    # a rejected proposal with no redraws allowed: flagged on its first redraw
    s2 = _gradient_once(interval_cs, pot, [0.03], [0.0], 1e-4, [-5.0], pool=pool,
                        resample_cap=0)
    assert s2["flags"][0] == _kernels.FLAG_BOUNDARY_OVERFLOW
    assert s2["counters"].tolist() == [1, 1, 0]


def test_reflected_step_contact_arithmetic(interval_cs, unit_interval):
    # dt=0.01, z=-1: increment = sqrt(0.01)*(-1) = -0.1 from x=0.05
    out = _reflect_once(interval_cs, unit_interval, [0.05], [0.0], 0.01, [-1.0])
    assert out["x"][0, 0] == 0.0
    assert out["ell"][0] == pytest.approx(0.05, abs=1e-15)
    assert out["k"][0, 0] == pytest.approx(0.05, abs=1e-15)
    assert out["counters"][0] == 1


def test_reflected_step_interior_move_is_plain_euler(interval_cs, unit_interval):
    out = _reflect_once(interval_cs, unit_interval, [0.4], [0.25], 1e-2, [0.5])
    expect = 0.4 + np.sqrt(1e-2) * 0.5 + 0.25 * 1e-2
    assert out["x"][0, 0] == pytest.approx(expect, rel=1e-15)
    assert out["k"][0, 0] == 0.25
    assert out["ell"][0] == 0.0


def test_reflected_step_scaled_diffusion_halves_local_time(unit_interval):
    # A = 2I, full conormal: push u = 2n, so dl halves for the same overshoot.
    z = -0.1 / (np.sqrt(0.01) * np.sqrt(2.0))
    cs_gn = make_coefficients(
        "anisotropic", unit_interval, gamma=[[1.0]], a_diag=[2.0]
    )
    out = _reflect_once(cs_gn, unit_interval, [0.05], [0.0], 0.01, [z])
    assert out["x"][0, 0] == 0.0
    assert out["ell"][0] == pytest.approx(0.025, abs=1e-15)
    assert out["k"][0, 0] == pytest.approx(0.025, abs=1e-15)
    # v = a0 u scales with the push, so the K increment is preserved
    cs_a0 = make_coefficients(
        "anisotropic",
        unit_interval,
        gamma=[[1.0]],
        a_diag=[2.0],
        inert_field="a0_conormal",
        a0=1.0,
    )
    out2 = _reflect_once(cs_a0, unit_interval, [0.05], [0.0], 0.01, [z])
    assert out2["k"][0, 0] == pytest.approx(0.05, abs=1e-15)


def test_reflected_step_evaluates_inert_field_at_landing(unit_interval):
    cs = CoefficientSet(
        unit_interval,
        gamma=[[1.0]],
        inert_field=lambda pts: pts + 2.0,
        vectorized=True,
    )
    out = _reflect_once(cs, unit_interval, [0.05], [0.0], 0.01, [-1.0])
    # landing at x=0: v = 2.0 there (4.1 would mean start/midpoint evaluation)
    assert out["k"][0, 0] == pytest.approx(2.0 * 0.05, abs=1e-15)


def _sigma_1x2(pts):
    """sigma(x) = sqrt(1 + x_1^2), so A = 1 + x_1^2 and b = x_1."""
    return np.sqrt(1.0 + pts[:, 0] ** 2)[:, None, None]


def test_varying_sigma_step_uses_step_start_coefficients(unit_interval):
    # sigma, b and the push u = A n come from the step start x = 0.05, and
    # v = a0 u from the landing point x = 0; the weight uses sigma(0.05)
    cs = CoefficientSet(unit_interval, gamma=[[1.0]], sigma=_sigma_1x2,
                        inert_field="a0_conormal", a0=3.0, vectorized=True)
    x0, dt, z = 0.05, 0.01, -1.0
    s0 = np.sqrt(1.0 + x0 ** 2)
    out = _reflect_once(cs, unit_interval, [x0], [0.0], dt, [z])
    y = x0 + np.sqrt(dt) * s0 * z + cs.drift_b([x0])[0] * dt
    assert cs.drift_b([x0])[0] == pytest.approx(x0, rel=1e-9)
    dl = -y / s0 ** 2
    assert out["x"][0, 0] == 0.0
    assert out["ell"][0] == pytest.approx(dl, rel=1e-14)
    assert out["k"][0, 0] == pytest.approx(3.0 * 1.0 * dl, rel=1e-14)
    w = _reflect_once(cs, unit_interval, [x0], [0.7], dt, [0.3],
                      family="driftless_weighted")
    sk = 0.7 / s0
    assert w["logw"][0] == pytest.approx(
        sk * np.sqrt(dt) * 0.3 - 0.5 * sk * sk * dt, rel=1e-14)


def test_girsanov_weight_single_step_identities(interval_cs, unit_interval):
    # zero K: the factor stays exactly one whatever the noise
    w1 = _reflect_once(interval_cs, unit_interval, [0.4], [0.0], 1e-2, [0.3],
                       family="driftless_weighted")
    assert w1["logw"][0] == 0.0 and np.exp(w1["logw"][0]) == 1.0
    # zero noise: the factor is exp(-0.5 |k|^2 dt) < 1
    w2 = _reflect_once(interval_cs, unit_interval, [0.4], [0.7], 1e-2, [0.0],
                       family="driftless_weighted")
    assert w2["logw"][0] == pytest.approx(-0.5 * 0.49 * 1e-2, rel=1e-15)
    assert np.exp(w2["logw"][0]) < 1.0


# ---------------------------------------------------------------------------
# ensemble driver: bookkeeping, determinism, backends
# ---------------------------------------------------------------------------


def test_config_validation_errors():
    good = dict(family="reflected", dt_base=1e-3, t_end=1.0, n_paths=4, seed=0)
    SimConfig(**good)
    with pytest.raises(ValueError, match="family"):
        SimConfig(**{**good, "family": "galloping"})
    with pytest.raises(ValueError, match="dt_base"):
        SimConfig(**{**good, "dt_base": -1e-3})
    with pytest.raises(ValueError, match="burn_in"):
        SimConfig(**{**good, "burn_in": 1.0})
    with pytest.raises(ValueError, match="n_paths"):
        SimConfig(**{**good, "n_paths": 0})
    with pytest.raises(ValueError, match="snap_every"):
        SimConfig(**{**good, "snap_every": 0})
    with pytest.raises(ValueError, match="multiple"):
        SimConfig(**{**good, "t_end": 1.0005})
    # integer fields: non-integers and out-of-range values are rejected,
    # not truncated
    for name, bad in [
        ("n_paths", 2.5), ("n_paths", True), ("seed", -1), ("seed", "3"),
        ("snap_every", 2.5), ("chunk_size", 2.5), ("chunk_size", 0),
        ("max_substeps", 0), ("max_substeps", float("inf")),
        ("resample_cap", -1),
        # real-number fields: booleans, strings and lists are not numbers
        ("dt_base", True), ("dt_base", "0.001"), ("dt_base", np.inf),
        ("t_end", True), ("t_end", "1"), ("burn_in", True), ("burn_in", "0"),
        ("x0", ["0.5"]), ("x0", [True]), ("x0", "0.5"), ("x0", [[0.5]]),
        ("k0", [False]), ("k0", True), ("k0", [None]),
    ]:
        with pytest.raises(ValueError, match=name):
            SimConfig(**{**good, name: bad})
    # the gradient family's wall-layer settings
    for name, bad in [
        ("delta_guard", -0.1), ("delta_guard", 0.0), ("delta_guard", np.nan),
        ("delta_guard", np.inf), ("delta_guard", True), ("delta_guard", "0.1"),
        ("h_max_fraction", -0.05), ("h_max_fraction", 0.0),
        ("h_max_fraction", np.nan), ("h_max_fraction", None),
        ("adaptive", 1), ("adaptive", "false"), ("adaptive", None),
    ]:
        with pytest.raises(ValueError, match=name):
            SimConfig(**{**good, "family": "gradient", name: bad})
    whole = SimConfig(**{**good, "n_paths": 4.0, "seed": np.int64(2)})
    assert type(whole.n_paths) is int and type(whole.seed) is int
    assert whole.as_dict()["n_paths"] == 4


def test_snapshot_bookkeeping_counts_and_times():
    cfg = SimConfig(
        family="reflected",
        dt_base=1e-3,
        t_end=0.02,
        burn_in=0.005,
        n_paths=1,
        seed=0,
        snap_every=2,
    )
    # first multiple of 2 strictly past step 5 is step 6; then 8, ..., 20
    assert cfg.n_steps == 20
    assert cfg.first_snapshot_step == 6
    assert cfg.n_snapshots == 8
    assert np.allclose(cfg.snapshot_times, np.arange(6, 21, 2) * 1e-3)
    # final step is always recorded when snap_every divides n_steps
    cfg2 = SimConfig(
        family="reflected",
        dt_base=1e-3,
        t_end=0.5,
        n_paths=1,
        seed=0,
        snap_every=500,
    )
    assert cfg2.n_snapshots == 1
    assert cfg2.snapshot_times[0] == pytest.approx(0.5)


def test_run_without_snapshots(interval_cs, unit_interval):
    # snap_every past the last step records nothing; the empty snapshot
    # arrays still get shared buffers (an mmap cannot be 0 bytes long)
    cfg = SimConfig(family="driftless_weighted", dt_base=1e-3, t_end=0.01,
                    n_paths=3, seed=1, snap_every=50)
    assert cfg.n_snapshots == 0
    batch = run_ensemble(interval_cs, cfg, domain=unit_interval)
    assert batch.x.shape == batch.k.shape == (3, 0, 1)
    assert batch.ell.shape == (3, 0)
    assert batch.log_weights.shape == batch.flags.shape == (3,)
    assert not batch.flags.any()


def test_run_requires_matching_inputs(interval_cs, unit_interval, wall_n2):
    cfg = SimConfig(family="gradient", dt_base=1e-3, t_end=0.01, n_paths=1, seed=0)
    with pytest.raises(ValueError, match="potential"):
        run_ensemble(interval_cs, cfg)
    cfg2 = SimConfig(family="reflected", dt_base=1e-3, t_end=0.01, n_paths=1, seed=0)
    with pytest.raises(ValueError, match="domain"):
        run_ensemble(interval_cs, cfg2)
    for backend in ("numba", "generic"):  # "numpy" is the one backend
        with pytest.raises(ValueError, match="backend must be None or 'numpy'"):
            run_ensemble(interval_cs, cfg2, domain=unit_interval, backend=backend)
    user = Potential("user_supplied", domain=unit_interval, V=lambda x: 0.0,
                     grad_V=lambda x: np.zeros(1))
    with pytest.raises(ValueError, match="regularized_vn"):
        run_ensemble(interval_cs, cfg, potential=user)
    with pytest.raises(ValueError, match="x0"):
        run_ensemble(
            interval_cs,
            SimConfig(
                family="reflected",
                dt_base=1e-3,
                t_end=0.01,
                n_paths=1,
                seed=0,
                x0=(1.5,),
            ),
            domain=unit_interval,
        )
    with pytest.raises(ValueError, match="wall layer"):
        run_ensemble(
            interval_cs,
            SimConfig(
                family="gradient",
                dt_base=1e-3,
                t_end=0.01,
                n_paths=1,
                seed=0,
                x0=(1e-4,),
            ),
            potential=wall_n2,
        )


def test_run_determinism_same_seed(interval_cs, unit_interval):
    cfg = SimConfig(
        family="reflected",
        dt_base=1e-3,
        t_end=0.3,
        burn_in=0.1,
        n_paths=4,
        seed=21,
        snap_every=5,
    )
    b1 = run_ensemble(interval_cs, cfg, domain=unit_interval)
    b2 = run_ensemble(interval_cs, cfg, domain=unit_interval)
    assert np.array_equal(b1.x, b2.x)
    assert np.array_equal(b1.k, b2.k)
    assert np.array_equal(b1.ell, b2.ell)
    assert json.dumps(b1.manifest(), sort_keys=True) == json.dumps(
        b2.manifest(), sort_keys=True
    )
    b3 = run_ensemble(
        interval_cs,
        SimConfig(
            family="reflected",
            dt_base=1e-3,
            t_end=0.3,
            burn_in=0.1,
            n_paths=4,
            seed=22,
            snap_every=5,
        ),
        domain=unit_interval,
    )
    assert not np.array_equal(b1.x, b3.x)


def test_reflected_chunking_does_not_change_results(
    interval_cs, unit_interval, monkeypatch
):
    # base normals come per-path from one stream, so chunk boundaries are
    # invisible to the reflected families: every output array agrees, with
    # short chunks and with noise blocks capped below the chunk length
    disc = Ball([0.0, 0.0], 1.0)
    disc_cs = make_coefficients("identity", disc, gamma=np.diag([2.0, 1.0]))
    cases = [
        (interval_cs, unit_interval,
         dict(family="reflected", dt_base=1e-3, t_end=0.25, n_paths=3, seed=8)),
        (disc_cs, disc,
         dict(family="driftless_weighted", dt_base=5e-4, t_end=0.25,
              n_paths=8, seed=5, k0=(0.5, 1.0))),
    ]
    blocks = []
    real_chunk = _kernels.reflected_chunk

    def recorded(*args):
        blocks.append(args[9].shape[1])
        return real_chunk(*args)

    monkeypatch.setattr(_kernels, "reflected_chunk", recorded)
    for cs, dom, kw in cases:
        b_large = run_ensemble(
            cs, SimConfig(**kw, snap_every=25, chunk_size=4096), domain=dom)
        b_small = run_ensemble(
            cs, SimConfig(**kw, snap_every=25, chunk_size=7), domain=dom)
        with monkeypatch.context() as m:
            # three steps of noise per block
            m.setattr(simulate, "_NOISE_BLOCK_FLOATS", 3 * kw["n_paths"] * dom.d)
            blocks.clear()
            b_block = run_ensemble(
                cs, SimConfig(**kw, snap_every=25, chunk_size=4096), domain=dom)
        assert max(blocks) == 3
        for b in (b_small, b_block):
            for name in ("x", "k", "ell", "flags"):
                assert np.array_equal(getattr(b, name), getattr(b_large, name))
            assert b.diagnostics == b_large.diagnostics
        assert b_large.diagnostics["contacts"] > 0
        if kw["family"] == "driftless_weighted":
            for b in (b_small, b_block):
                assert np.array_equal(b.log_weights, b_large.log_weights)
            assert np.all(b_large.log_weights != 0.0)
        else:
            assert all(b.log_weights is None for b in (b_small, b_block, b_large))


def test_interior_k_changes_only_with_contact(interval_cs, unit_interval):
    cfg = SimConfig(
        family="reflected",
        dt_base=1e-3,
        t_end=2.0,
        burn_in=0.0,
        n_paths=8,
        seed=13,
    )
    b = run_ensemble(interval_cs, cfg, domain=unit_interval)
    k_moved = np.any(np.diff(b.k, axis=1) != 0.0, axis=2)
    ell_grew = np.diff(b.ell, axis=1) > 0.0
    assert np.all(~k_moved | ell_grew)
    assert np.all(np.diff(b.ell, axis=1) >= 0.0)
    assert np.all((b.x >= 0.0) & (b.x <= 1.0))
    assert b.diagnostics["contacts"] > 0


# sha256 of the reflected kernel's x, k and ell arrays on the box and the
# ellipsoid.  On the box they equal the digests of the per-path stepper that
# ran these domains before the kernel did; on the ellipsoid that stepper
# took the normal at the nearest boundary point, not at the proposal, and
# differed by up to 1.9e-3.
BOX_ELLIPSOID_GOLDEN = {
    "box": ("1d603de99ba3a14f774d8eb5e20735200502ac9f0927b372f1d775f271a7424e",
            "7611b1b17245f0bd2cfc8109eb94ae69914b7d045a12cfe7bf89a1152e992972",
            "9a1bbf3c0fc6031c1181066ea3117faaa45bb8fd8702a2a77c27736f58d28906",
            31),
    "ellipsoid": (
        "cc80eaddc0520efb77888bb3f29651df4930af5852a753b7664c539ba9c0f040",
        "72cecf9a1c78dff0ce9c81d2f7a89ff96aeb0804df2329f18150f6f1edd3b752",
        "993b96cc376d574c8a01b6fcbb62349e4edf09178e3f7de24ca8f75447f94e0a",
        23),
}


@pytest.mark.parametrize("dom,x0", [
    (Box([0.0, 0.0], [1.0, 2.0]), (0.05, 1.95)),
    (Ellipsoid([0.1, 0.0], [1.0, 0.5]), (0.1, 0.42)),
], ids=["box", "ellipsoid"])
def test_reflected_run_on_box_and_ellipsoid(dom, x0):
    cs = make_coefficients("anisotropic", dom, gamma=np.diag([2.0, 1.0]),
                           a_diag=[2.0, 0.5])
    cfg = SimConfig(family="reflected", dt_base=5e-4, t_end=0.1, n_paths=3,
                    seed=3, snap_every=1, x0=x0)
    b = run_ensemble(cs, cfg, domain=dom)
    assert b.backend == "numpy"
    assert (_sha256(b.x), _sha256(b.k), _sha256(b.ell),
            b.diagnostics["contacts"]) == BOX_ELLIPSOID_GOLDEN[dom.kind]
    assert b.diagnostics["contacts"] > 0 and not b.flags.any()
    sd = dom.signed_distance(b.x.reshape(-1, 2))
    assert np.all(sd >= -dom.tol_bd)
    k_moved = np.any(np.diff(b.k, axis=1) != 0.0, axis=2)
    ell_grew = np.diff(b.ell, axis=1) > 0.0
    assert np.all(~k_moved | ell_grew) and np.all(np.diff(b.ell, axis=1) >= 0.0)
    assert k_moved.any()


@pytest.mark.parametrize("dom", [Box([0.0, 0.0], [1.0, 2.0]),
                                 Ellipsoid([0.1, 0.0], [1.0, 0.5])],
                         ids=["box", "ellipsoid"])
def test_weighted_and_gradient_runs_on_box_and_ellipsoid(dom):
    cs = make_coefficients("anisotropic", dom, gamma=np.diag([2.0, 1.0]),
                           a_diag=[2.0, 0.5])
    kw = dict(dt_base=1e-3, t_end=0.2, n_paths=4, seed=3, snap_every=1)
    w = run_ensemble(cs, SimConfig(family="driftless_weighted", k0=(0.5, -1.0),
                                   **kw), domain=dom)
    assert w.backend == "numpy" and not w.flags.any()
    assert w.diagnostics["contacts"] > 0 and np.all(w.log_weights != 0.0)
    assert np.all(dom.signed_distance(w.x.reshape(-1, 2)) >= -dom.tol_bd)
    sd = SmoothDistance(dom)
    pot = Potential("regularized_vn", distance=sd, n=2)
    g = run_ensemble(cs, SimConfig(family="gradient", **kw), potential=pot)
    assert g.backend == "numpy" and not g.flags.any()
    assert g.diagnostics["substeps_total"] >= 4 * 200
    guard = simulate._default_delta_guard(pot)
    assert np.all(sd.value(g.x.reshape(-1, 2)) >= guard)
    assert np.any(g.k != 0.0)


# sha256 of x, k, ell and log_weights (None for the reflected family),
# recorded on both backends before the per-path stepper was deleted.  On the
# interval the two backends gave these same digests.  On the disc the
# per-path stepper evaluated u and v at projected points and differed in the
# last digits (largest gap 1.4e-15, with the same contacts), so the disc
# digests are the kernel's.
GENERIC_DRIVER_GOLDEN = {
    "interval": (
        "db02efab6af20298ad59285ad2d56f165ecaa3acba1110e4e33d0d491c027d23",
        "87619074334eef1ce977ce3dac6520a1cf1519cb09cdc2df8b2bfcb87b2bf00d",
        "1a0647c60943c982c6bd8a9c75659227c856578f47a2699f30609b10fae6ae2f",
        None, 125),
    "reflected": (
        "192bd05e14c4acc3d3bb82d7edaac275770cda699c26d4418db95783bbab6990",
        "10ae1e216852e47dc4f17ccff363e514a78bb6b6832ab89c4a0125ecd159c901",
        "6225617e8a5e6dd318e2cd3b7e8a5768b09609eab5071734f6fb57f519c3fbd8",
        None, 41),
    "driftless_weighted": (
        "f4bf7a5c12fff1c387f90c976c573e7bfc1b167a6279cff9b6e2f513ba841aa2",
        "2512384bd1bb397d615f60b4bb8fdf4c0f70cca2c6de08c018b84430967b5196",
        "594fb66f788ad9ddd74ac61cd8c9f64c37428e036f98a8825b65c794338666de",
        "6745f772ed091d25973b53bb427a32937c428b0349f4d3b399c7ad67ef1ecba2", 262),
}


def _digests(b):
    lw = None if b.log_weights is None else _sha256(b.log_weights)
    return (_sha256(b.x), _sha256(b.k), _sha256(b.ell), lw,
            b.diagnostics["contacts"])


def test_reflected_kernel_matches_generic_driver(interval_cs, unit_interval):
    kw = dict(
        family="reflected",
        dt_base=1e-3,
        t_end=0.5,
        burn_in=0.1,
        n_paths=6,
        seed=7,
        snap_every=10,
    )
    b_vec = run_ensemble(
        interval_cs, SimConfig(**kw), domain=unit_interval, backend="numpy"
    )
    assert _digests(b_vec) == GENERIC_DRIVER_GOLDEN["interval"]
    assert not b_vec.flags.any()

    ball = Ball([0.0, 0.0], 1.0)
    cs = make_coefficients("identity", ball, gamma=np.diag([2.0, 1.0]))
    for kw in (dict(family="reflected", t_end=0.5, burn_in=0.1),
               dict(family="driftless_weighted", t_end=1.0, k0=(0.5, 1.0))):
        cfg = SimConfig(dt_base=5e-4, n_paths=8, seed=5, snap_every=20, **kw)
        c_vec = run_ensemble(cs, cfg, domain=ball, backend="numpy")
        assert _digests(c_vec) == GENERIC_DRIVER_GOLDEN[cfg.family]
        assert not c_vec.flags.any()
        if cfg.family == "driftless_weighted":
            assert np.all(c_vec.log_weights != 0.0)
        assert np.nanmax(np.linalg.norm(c_vec.x, axis=2)) <= 1.0


def _reflected_case(name, family):
    """(cs, domain, config) of the reflected-kernel golden cases."""
    if name in ("interval", "halfline", "wide_interval"):
        dom = Interval(0.0, np.inf) if name == "halfline" else Interval(0.0, 1.0)
        cs = make_coefficients("identity", dom, gamma=[[1.0]])
        kw = dict(dt_base=1e-3, t_end=0.5, burn_in=0.1, n_paths=6, seed=7,
                  snap_every=10)
        if name == "halfline":
            kw["x0"] = (0.2,)
        if name == "wide_interval":  # several contacts on most steps
            kw.update(dt_base=1e-4, t_end=0.2, burn_in=0.0, n_paths=512,
                      snap_every=100)
        k0 = (0.5,)
    else:
        if name in ("disc", "wide_disc"):
            dom = Ball([0.0, 0.0], 1.0)
            cs = make_coefficients("identity", dom, gamma=np.diag([2.0, 1.0]))
            k0 = (0.5, 1.0)
        elif name == "anisotropic_disc":  # u = A n and v = a0 u
            dom = Ball([0.2, -0.1], 0.8)
            cs = make_coefficients("anisotropic", dom, gamma=np.diag([2.0, 1.0]),
                                   a_diag=[2.0, 0.5], inert_field="a0_conormal",
                                   a0=1.5)
            k0 = (0.5, -1.0)
        else:
            dom = Ball([0.0, 0.0, 0.0], 1.0)
            cs = make_coefficients("identity", dom,
                                   gamma=np.diag([1.0, 2.0, 0.5]))
            k0 = (0.3, -0.2, 0.4)
        kw = dict(dt_base=5e-4, t_end=0.5, burn_in=0.1, n_paths=8, seed=5,
                  snap_every=20)
        if name == "wide_disc":
            kw.update(t_end=0.2, burn_in=0.0, n_paths=512)
    if family == "driftless_weighted":
        kw["k0"] = k0
    return cs, dom, SimConfig(family=family, **kw)


# sha256 of the numpy reflected kernel's x, k, ell and log_weights arrays
# (None for the reflected family), and its contact count, recorded before
# the contact rule moved into the domains
REFLECTED_GOLDEN = {
    ("interval", "reflected"): (
        "db02efab6af20298ad59285ad2d56f165ecaa3acba1110e4e33d0d491c027d23",
        "87619074334eef1ce977ce3dac6520a1cf1519cb09cdc2df8b2bfcb87b2bf00d",
        "1a0647c60943c982c6bd8a9c75659227c856578f47a2699f30609b10fae6ae2f",
        None, 125),
    ("interval", "driftless_weighted"): (
        "812e46ca063503c66e82aa4a1942dc5c83c94708f76fad165f635af68a3815a3",
        "c9f4ba634c5695c0df72a74944fe795601608458e9be81956906f4021df92509",
        "699712c698fe6fc0a6706d3c479bb79c631fc4637500660fd755dfb1b4c40294",
        "edfdc563c626441992f2fb8f56083cccfd51f52f1843fdd9e7b520fd2fe83e88", 133),
    ("halfline", "reflected"): (
        "1d0b72f921979f2570cf263b5a196145e5eff32fac8a31666d871591bb3a1a63",
        "2edd62f0d26506a46ee5ae6e3cece5cec7b0523609aa0f2e0b81eed0944ee15f",
        "2edd62f0d26506a46ee5ae6e3cece5cec7b0523609aa0f2e0b81eed0944ee15f",
        None, 65),
    ("halfline", "driftless_weighted"): (
        "8ef6796b9a89c7548921d532f9c011d504d97a20b6d3794fc2b98c48c4963a72",
        "f675f2d01d80c3ce1984b25ec2bdc02c3ad7f490e20463e8a6e717af31c47f30",
        "363e9e36c1dd4c29b2113696721159f79eb7dedab8c28a8b1fec149a14e93e36",
        "6dda2b7057cef41e58ba53fb5e18ae439bcf3800f5ab0b115d19fe3bd833db20", 72),
    ("disc", "reflected"): (
        "192bd05e14c4acc3d3bb82d7edaac275770cda699c26d4418db95783bbab6990",
        "10ae1e216852e47dc4f17ccff363e514a78bb6b6832ab89c4a0125ecd159c901",
        "6225617e8a5e6dd318e2cd3b7e8a5768b09609eab5071734f6fb57f519c3fbd8",
        None, 41),
    ("disc", "driftless_weighted"): (
        "12a3920fa9afd7fdeed24525b20d1be45c4993b9013b6331e48ea4a775a4010c",
        "294d424d5fa9adb7b80391bc919a6473074f6cc6e1b2d31289a44479229b0379",
        "d0d09780add894ab38b70ea0fda37c47b989be89f48d97ca2d33252467b85f20",
        "e754f9bc334f5e2d7560a3de040f52d1578e6a164938ba2ea590aa6581ddd6f5", 44),
    ("anisotropic_disc", "reflected"): (
        "59e5335e14c3ad7cbc3ae60f39a3f2a6f12110a738087b0bade1e014d6b64d6c",
        "30a056220df341a2dbaf51769b73e343b083ab7441455852e8f075ab555e4b1e",
        "d47d2f2cbf27c4938b4428c1eceb7281f84bb2b7dfd44c40bfd0b1c237591783",
        None, 113),
    ("anisotropic_disc", "driftless_weighted"): (
        "90c11b2c4f6ab438947399ac470748c985a57c1318d622e13fa64b990f67af0c",
        "41ca811c1a6a269dccf6cc395445cea521d039467bbdd6f37cc8bb9d8c534000",
        "09ff229de93e0db045c1cc2947a0993f21d4a58d3421f225dbcec16c78a0645d",
        "c3fd1e8ccf923d8c4035b06cb78c4c8eff2b5bc6924b7910cb2f67f447093fff", 117),
    ("ball3d", "reflected"): (
        "3ca59116534a3cfb0bb009c4537eae5ca443126a59f993a85fcc447eceb6456a",
        "ce963c6799bcb9528fc1dc11d8cda09b38bb3ce2f8d5054cb05379351c38e520",
        "cecdfcb0fd15694a6e1792bf66794c4aff513b1a152eda82d8a42a089aaf5c5c",
        None, 160),
    ("ball3d", "driftless_weighted"): (
        "d27ec2d5832da40150b76cfdf492bf6a79e8ff5823ef78b334c74f00c92a4034",
        "ce34945c4351e2caec652547b1d55f0d45cf3700fea766f3d8369578d1b645e8",
        "043b3e7a2dd8df3264b300d042e474e132e866d5600dd19eb82288b6e055e057",
        "487195df7900e65d5695688afa0e4a1962838de77869af4141d60eb3ae502115", 193),
    # 512 paths, recorded before the kernel stepped only the live rows
    ("wide_interval", "reflected"): (
        "f51eef6ab7dc299174391686923c5b3e9372ae1c6cd40abc9957745030b90f15",
        "2cc3efb10c01f56ec90d112b2b92922861e2080c00df3c16cd47e543b0e7cf7d",
        "d84c18c090a5926e2a02bf03ea781b2d3d644755bb28545729b475eabdceb33f",
        None, 8042),
    ("wide_interval", "driftless_weighted"): (
        "75c8e24c5b94431043429989d886e8e519b2e4943d4256e90a5f95cdc5beaab8",
        "e974bf370904919fcd4708cf8f10e4e138c2e7bca8edade1e9bbc23a78485def",
        "a5a31530b89900ce9c0f7051d8a263e77cdc798f8d027d82bf60bafca61b6519",
        "6864143de0640316cfaebc742ecddd4075d80cfcd2183d76b69b4ca5ccb1dcca", 8296),
    ("wide_disc", "reflected"): (
        "90ed77d489bff01e602bd7de847967af64a8fc1c7c0712ca36a3b53c536873ba",
        "da983dc31484a2c39ef5ba00dd450cb67b513ee62e9442a71ba6e2aaf3469aec",
        "4c3ae4b9fb6c333b14644a9686c372928308662e08357ed08a4c0198afdf4119",
        None, 917),
    ("wide_disc", "driftless_weighted"): (
        "a75f258e1070ab7ddc5f0e2787fce0797dc87e4cbac7aa92c6dc38b61e8ab24a",
        "31fc0bd9fa0fbc827913c1243902d1d3b288e75da0241a36e3b151eb7fac285e",
        "f3042ce41d8fa87334619f8e31d9496f618afa1414d414ea2a78cba1212681f5",
        "418d20b5ef27457244dfd16ddb2474b2389dec848e71929191fb70b4b1bc0103", 949),
}


# sha256 of the anisotropic_disc ell recorded when the push could be A n / 2:
# halving the push doubled dL and moved neither x nor k (v = a0 u halves too)
HALF_PUSH_ELL = {
    "reflected":
        "8c528324d8b2b883b2bf6f785422694bf3e57b84a10af1c2af45c013b4e001f1",
    "driftless_weighted":
        "c3d4617494af988defeb6d0e9515de8674b3addce86eea838d4b7ceab4dfc80d",
}


@pytest.mark.parametrize("name,family", sorted(REFLECTED_GOLDEN))
def test_reflected_kernel_golden_digests(name, family):
    cs, dom, cfg = _reflected_case(name, family)
    b = run_ensemble(cs, cfg, domain=dom, backend="numpy")
    lw = None if b.log_weights is None else _sha256(b.log_weights)
    assert (_sha256(b.x), _sha256(b.k), _sha256(b.ell), lw,
            b.diagnostics["contacts"]) == REFLECTED_GOLDEN[name, family]
    assert not b.flags.any()
    if name == "anisotropic_disc":
        assert _sha256(2.0 * b.ell) == HALF_PUSH_ELL[family]


class _BrittleInterval(Interval):
    """The unit interval with a contact rule that fails (``ok`` False) for
    every proposal more than ``eps`` beyond the upper end."""

    def __init__(self, eps):
        super().__init__(0.0, 1.0)
        self.eps = eps

    def _land(self, y, push):
        land, dl, normal, ok = super()._land(y, push)
        return land, dl, normal, ok & (y[:, 0] < self.hi + self.eps)


# sha256 of the numpy kernel's x, k, ell, log_weights (None for the
# reflected family) and flags arrays, and its diagnostics, recorded before
# the kernel stepped only the live rows; the deleted per-path stepper gave
# the same arrays and diagnostics
FLAG_GOLDEN = {
    ("reflect_failure", "driftless_weighted"): (
        "b12db51eb8f930856b052964b244e3ea031201815aae275058f86ef551ff8e29",
        "2bec96d7ef01040cb73de6e4403b72e75d6d52cbaf7413a4c683b2c0f227cca2",
        "54d011296c941585e71c9de443abb78eee4b63a2d2733e7a448f64f7bff8d74a",
        "e321cf85ca9ea92d5041eed1212cbb554d4a19cefecafd5f8a06ce22aab432a7",
        "1b334f23639b7acdb72f5e784d8f6803f3abca4628fc38b9d008dfb5d331c356",
        {"contacts": 90, "reflect_failure_paths": 4}),
    ("reflect_failure", "reflected"): (
        "1afd3d67f259961db6c03b84688b71e0f9b730293ee032d581c46890a7f14553",
        "4e59462ab4f5d712bb5dd90a35856245c75ef3184b5c5fc5975b7155c1156023",
        "a57655c71e3a854f97bcd4f09c395b25e62bab11c055d98ac82135823488ae74",
        None,
        "1b334f23639b7acdb72f5e784d8f6803f3abca4628fc38b9d008dfb5d331c356",
        {"contacts": 77, "reflect_failure_paths": 4}),
    ("weight_overflow", "driftless_weighted"): (
        "4aefe090d0baddea3a78c88d201e899e1b6163f14c84572a865c69daf03a7314",
        "17dacbb00fefc88c135c00c629a2ed626f6dda1b35eb2dfa91c89200b6ac695b",
        "b95ee68c0bdd1ea115bcc7808c1965a59c1c063d29da90306d80774b171e15bd",
        "f14ca2e6328b39240b148a35d3bcebf2cdd59a80a0d81a6ca0da50638a520abb",
        "fcaa5080ce87b003adc356332f077c0969125cfa1eddcc2535c883a63e866e15",
        {"contacts": 38, "weight_overflow_paths": 6}),
}


def _flag_case(name, family):
    """(cs, domain, config) of a run whose paths get flagged mid-chunk; the
    short chunks carry flagged paths into later chunks."""
    dom = Interval(0.0, 1.0) if name == "weight_overflow" else _BrittleInterval(0.03)
    cs = make_coefficients("identity", dom, gamma=[[1.0]])
    kw = dict(k0=(1.5,) if name == "weight_overflow" else (1.0,))
    return cs, dom, SimConfig(family=family, dt_base=1e-3, t_end=0.5,
                              burn_in=0.1, n_paths=12, seed=3, snap_every=10,
                              chunk_size=37,
                              **(kw if family == "driftless_weighted" else {}))


@pytest.mark.parametrize("name,family", sorted(FLAG_GOLDEN))
def test_reflected_kernel_flag_paths(name, family, monkeypatch):
    # weight_overflow: a low cap, read by the kernel;
    # reflect_failure: the contact rule refuses the far overshoots
    if name == "weight_overflow":
        monkeypatch.setattr(_kernels, "LOG_WEIGHT_CAP", 0.3)
    cs, dom, cfg = _flag_case(name, family)
    b = run_ensemble(cs, cfg, domain=dom, backend="numpy")
    lw = None if b.log_weights is None else _sha256(b.log_weights)
    *digests, events = FLAG_GOLDEN[name, family]
    assert (_sha256(b.x), _sha256(b.k), _sha256(b.ell), lw,
            _sha256(b.flags)) == tuple(digests)
    assert b.diagnostics == {key: events.get(key, 0) for key in DIAGNOSTIC_KEYS}
    # several paths stop, some of them after their first snapshots, and a
    # stopped path records nothing after it stops
    code = {"weight_overflow": _kernels.FLAG_WEIGHT_OVERFLOW,
            "reflect_failure": _kernels.FLAG_REFLECT_FAILURE}[name]
    stopped = (b.flags == code).nonzero()[0]
    assert len(stopped) >= 2 and np.all(b.flags[b.flags != code] == 0)
    gone = np.isnan(b.x[stopped, :, 0])
    assert np.all(gone[:, -1]) and np.all(np.diff(gone, axis=1) >= 0)
    assert (~gone[:, 0]).any()
    assert not np.isnan(b.x[b.flags == 0]).any()


def _gradient_case(name):
    """(cs, potential, config) of the gradient-kernel golden cases."""
    if name == "halfline":
        half = Interval(0.0, np.inf)
        cs = make_coefficients("identity", half, gamma=[[1.0]])
        pot = Potential("regularized_vn", distance=SmoothDistance(half), n=2)
        return cs, pot, SimConfig(family="gradient", dt_base=1e-3, t_end=0.5,
                                  n_paths=6, seed=4, snap_every=5, x0=(0.5,))
    if name in ("box", "ellipsoid"):
        dom = (Box([0.0, 0.0], [1.0, 2.0]) if name == "box"
               else Ellipsoid([0.1, 0.0], [1.0, 0.5]))
        cs = make_coefficients("anisotropic", dom, gamma=np.diag([2.0, 1.0]),
                               a_diag=[2.0, 0.5])
        pot = Potential("regularized_vn", distance=SmoothDistance(dom), n=2)
        return cs, pot, SimConfig(family="gradient", dt_base=1e-3, t_end=0.5,
                                  n_paths=6, seed=4, snap_every=5,
                                  chunk_size=64)
    iv = Interval(0.0, 1.0)
    cs = make_coefficients("identity", iv, gamma=[[1.0]])
    if name == "disc":
        disc = Ball([0.0, 0.0], 1.0)
        cs = make_coefficients("identity", disc, gamma=np.diag([2.0, 1.0]))
        pot = Potential("regularized_vn", distance=SmoothDistance(disc), n=2)
        return cs, pot, SimConfig(family="gradient", dt_base=1e-3, t_end=0.5,
                                  n_paths=5, seed=4, snap_every=5,
                                  chunk_size=64)
    if name == "varying_sigma":  # callable S, b and A2
        cs = CoefficientSet(iv, gamma=[[1.0]], sigma=_sigma_1x2, vectorized=True)
        pot = Potential("regularized_vn", distance=SmoothDistance(iv), n=2)
        return cs, pot, SimConfig(family="gradient", dt_base=1e-3, t_end=0.5,
                                  n_paths=6, seed=4, snap_every=5,
                                  chunk_size=64)
    if name == "wall_mix":  # a few rows sub-divide while the others do not
        pot = Potential("regularized_vn", distance=SmoothDistance(iv), n=2)
        return cs, pot, SimConfig(family="gradient", dt_base=5e-4, t_end=2.0,
                                  n_paths=32, seed=6, snap_every=10,
                                  chunk_size=1500)
    if name == "mild":
        pot = Potential("regularized_vn", distance=SmoothDistance(iv), n=2)
        return cs, pot, SimConfig(family="gradient", dt_base=1e-3, t_end=1.0,
                                  burn_in=0.2, n_paths=6, seed=11,
                                  snap_every=10)
    if name == "refills":  # a stiff wall with a tiny chunk: many pool refills
        pot = Potential("regularized_vn", distance=SmoothDistance(iv), n=1)
        return cs, pot, SimConfig(family="gradient", dt_base=0.01, t_end=0.5,
                                  burn_in=0.1, n_paths=6, seed=4,
                                  snap_every=5, chunk_size=10)
    # a soft wall with a wide guard layer: proposals get redrawn
    pot = Potential("regularized_vn", distance=SmoothDistance(iv), n=8)
    return cs, pot, SimConfig(family="gradient", dt_base=0.01, t_end=2.0,
                              n_paths=6, seed=4, snap_every=5, chunk_size=10,
                              x0=(0.3,), delta_guard=0.05)


# sha256 of the numpy kernel's x, k and flags arrays, and its event
# counters.  The first five were recorded on both backends before the
# per-path stepper was deleted, and the two gave the same arrays and
# counters; the last four were recorded before the kernel stepped compact
# rows and took whole steps in one pass.
GRADIENT_GOLDEN = {
    "mild": ("9d832dd55a6d5da0798242b4de68cdf2fb260d639cbab4793ae711bcfdab244c",
             "01aec0aed341878af17feae9ffb48a37b3cd5f32385fb1b29fce1eaa15e59d6e",
             "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
             (6022, 0, 0)),
    "refills": ("b761f04b45599d3691a9629f328e7002ded86b69f4333f36886b4571fdc4c7f5",
                "d0e83f22484ba5a64156ed68a5342b44c745ddea6948ed389c1eb1f8d821a1e4",
                "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
                (2155, 0, 153)),
    "disc": ("43bb7e3d9dc6c1ff174e18b355a0274e16e337a0b1827037619635fbfcf1191d",
             "9c1406bd9beb6017094ebc0c2c3813627c15d44771463e4dc60c3ff78df1587c",
             "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb",
             (2500, 0, 0)),
    "redraws": ("384087723728381e13e2b70b9755974377eb17c83f6615df1691a93bddf20d3a",
                "3478994db62641ea6c93d1c345a440a0eb80879cadb2d81203eb146c62a7304e",
                "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
                (1612, 4, 13)),
    "halfline": ("1e3c52c16acbc397ab6781580116d8dc28d8c11bf0e16a6f536775b418e29fb8",
                 "c3ab74347aae9b865f6708aff294e95201e3b9b823569748af369e97fdad6b01",
                 "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
                 (3000, 0, 0)),
    "box": ("f92d30732a5d4995f99e602acb666396adc4dc276782640a8371c78e865ee2f3",
            "b1aea219b92e4280e02fee59be70fb3f36bcfa2d3fed861b2df992c2b8ef5dd5",
            "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
            (3089, 0, 0)),
    "ellipsoid": ("a15ef7862da8b3e80d871d8be6ac6703e7a9e595cd8fcd25e47116724fe30f4d",
                  "4c6de77b63585bfa6d7d0b8573034145e6e727d993c4ca584b553fc5ae6bb882",
                  "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
                  (3003, 0, 0)),
    "varying_sigma": (
        "a02ca21dc202e0d6d7f140fad2fab169012a7f37ba83627efecc8c36861e6f18",
        "a280a6daf19f689dc6420a6abc7a920eb53bf186efc6451fbf28197114d7a36d",
        "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1",
        (3021, 0, 0)),
    "wall_mix": ("7a9f1a50480ae4fe310356b1f9067b428bbc3fddd18b129cd90e9f4fe5847786",
                 "79a4c0e8b7fff21cdf77d21c792786fbf0e3ff8b50860600667afdf3a614bae1",
                 "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1",
                 (128022, 0, 0)),
}


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRADIENT_GOLDEN))
def test_generic_gradient_matches_numpy_bitwise(name):
    # the goldens hold the digests of earlier kernels (see GRADIENT_GOLDEN)
    cs, pot, cfg = _gradient_case(name)
    g_np = run_ensemble(cs, cfg, potential=pot, backend="numpy")
    x_sha, k_sha, flags_sha, events = GRADIENT_GOLDEN[name]
    assert (_sha256(g_np.x), _sha256(g_np.k), _sha256(g_np.flags)) == (
        x_sha, k_sha, flags_sha)
    substeps, redraws, refills = events
    assert g_np.diagnostics == {
        "contacts": 0, "substeps_total": substeps,
        "resampled_proposals": redraws, "pool_refills": refills,
        "boundary_overflow_paths": 0, "reflect_failure_paths": 0,
        "weight_overflow_paths": 0,
    }
    assert g_np.diagnostics["substeps_total"] >= cfg.n_paths * cfg.n_steps
    if name == "mild":
        assert np.all(g_np.ell == 0.0) and g_np.flags.sum() == 0
    if name == "refills":
        assert g_np.diagnostics["pool_refills"] > 0
        assert not np.isnan(g_np.x).any()
        # refilled paths re-enter their step the same way on every run
        rerun = run_ensemble(cs, cfg, potential=pot, backend="numpy")
        assert np.array_equal(g_np.x, rerun.x) and np.array_equal(g_np.k, rerun.k)
    if name == "redraws":
        assert g_np.diagnostics["resampled_proposals"] > 0
    if name == "wall_mix":
        # fewer extra sub-moves than paths: some step sub-divided a row
        # while another row took the whole step
        extra = g_np.diagnostics["substeps_total"] - cfg.n_paths * cfg.n_steps
        assert 0 < extra < cfg.n_paths and cfg.chunk_size < cfg.n_steps


def test_gradient_kernel_finishes_each_chunk_in_one_call(monkeypatch):
    # the "refills" case makes 153 pool refills over 5 chunks of 10 steps;
    # a refilled path redoes its step inside the same kernel call
    calls = []
    real = _kernels.gradient_chunk

    def counted(*args):
        calls.append(args[-2])  # gstep0
        return real(*args)

    monkeypatch.setattr(_kernels, "gradient_chunk", counted)
    cs, pot, cfg = _gradient_case("refills")
    b = run_ensemble(cs, cfg, potential=pot, backend="numpy")
    assert b.diagnostics["pool_refills"] == 153
    assert calls == [0, 10, 20, 30, 40]


def test_gradient_wall_benchmark_config_digests():
    # the perfbench gradient_wall job at workload seed 1, built inline: its
    # simulation seed is the first 4 bytes of sha256("gradient_wall:1"), as
    # perfbench/workloads.derived_seed makes it.  The digests were recorded
    # before the gradient kernel stepped compact rows.
    seed = int.from_bytes(hashlib.sha256(b"gradient_wall:1").digest()[:4], "big")
    iv = Interval(0.0, 1.0)
    cs = make_coefficients("identity", iv, gamma=[[1.0]])
    pot = Potential("regularized_vn", distance=SmoothDistance(iv), n=2)
    cfg = SimConfig(family="gradient", dt_base=5e-4, t_end=8.0, n_paths=128,
                    seed=seed, burn_in=3.0, snap_every=20)
    b = run_ensemble(cs, cfg, potential=pot)
    assert (_sha256(b.x), _sha256(b.k), _sha256(b.ell)) == (
        "a144aea5f282d97df21d231b61ee067c5e87569eaa92d103d8e4b8d3f5eb549f",
        "43935d5d64b18d88554775bb53d194b2d6b418d746828fcf043bb149db1700fd",
        "2d4da04b861bb9dbe77c871415931785a18138d6db035f1bbcd0cf8277c6fc23")
    assert b.diagnostics["substeps_total"] == 2048343 and b.ok.all()


def test_weighted_wide_benchmark_config_digests(monkeypatch):
    # the perfbench weighted_wide job at workload seed 1, built inline as in
    # the gradient_wall test above: 4096 paths, so its noise comes in blocks
    # shorter than chunk_size, and wide enough that with two usable CPUs a
    # forked worker steps half the paths.  The digests were recorded while
    # each block was a whole 4096-step chunk and one process stepped them.
    seed = int.from_bytes(hashlib.sha256(b"weighted_wide:1").digest()[:4], "big")
    iv = Interval(0.0, 1.0)
    cs = make_coefficients("identity", iv, gamma=[[1.0]])
    cfg = SimConfig(family="driftless_weighted", dt_base=1e-4, t_end=0.5,
                    n_paths=4096, seed=seed, snap_every=20, x0=(0.5,))
    assert cfg.n_paths >= simulate._SPLIT_MIN_FLOATS
    forks = _count_forks(monkeypatch)
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        forks.clear()
        b = run_ensemble(cs, cfg, domain=iv)
        assert len(forks) == cpus - 1
        assert (_sha256(b.x), _sha256(b.k), _sha256(b.ell),
                _sha256(b.log_weights)) == (
            "8f6b7407cfe9123780a6013798540b5d5547dc68e622da3278e17fb28a7c4ee0",
            "896fc7fd7acbd2f568b6d9bd39379e924186ea88a2106055151ef119a096ce53",
            "0bf3c539f72bd08ec6ae84bdb8db7c6d96aa3f19a8507d988ad99a24045a2875",
            "bf31c48718c5e19ab5a2938372aa96cbfbb7b2657e0aa70b46f662c98007dc29")
        assert b.diagnostics["contacts"] == 241430 and b.ok.all()


DIAGNOSTIC_KEYS = {
    "contacts", "substeps_total", "resampled_proposals", "pool_refills",
    "boundary_overflow_paths", "reflect_failure_paths", "weight_overflow_paths",
}


@pytest.mark.parametrize("backend", [None, "numpy"])
@pytest.mark.parametrize("family", ["reflected", "driftless_weighted", "gradient"])
def test_every_backend_reports_one_diagnostics_schema(
    interval_cs, unit_interval, wall_n2, family, backend
):
    cfg = SimConfig(family=family, dt_base=1e-3, t_end=0.2, n_paths=4,
                    seed=1, k0=(0.5,))
    kw = {"potential": wall_n2} if family == "gradient" else {"domain": unit_interval}
    b = run_ensemble(interval_cs, cfg, backend=backend, **kw)
    assert b.backend == "numpy"
    assert set(b.diagnostics) == DIAGNOSTIC_KEYS
    assert set(b.manifest()["diagnostics"]) == DIAGNOSTIC_KEYS
    for name, count in b.flag_counts().items():
        assert b.diagnostics[name + "_paths"] == count
    if family == "gradient":
        assert b.diagnostics["contacts"] == 0
        assert b.diagnostics["substeps_total"] >= cfg.n_paths * cfg.n_steps
    else:
        assert b.diagnostics["contacts"] > 0
        assert b.diagnostics["substeps_total"] == 0
        assert b.diagnostics["resampled_proposals"] == 0
        assert b.diagnostics["pool_refills"] == 0


def test_gradient_substep_budget_flag_is_deterministic(interval_cs, unit_interval):
    pot = Potential(
        "regularized_vn", distance=SmoothDistance(unit_interval), n=1
    )
    cfg = SimConfig(
        family="gradient",
        dt_base=0.01,
        t_end=0.1,
        burn_in=0.0,
        n_paths=3,
        seed=4,
        snap_every=1,
        max_substeps=1,
    )
    b = run_ensemble(interval_cs, cfg, potential=pot)
    assert b.flags.tolist() == [1, 1, 1]
    # the x digest both backends gave: NaN snapshots after the flags
    assert _sha256(b.x) == (
        "8405f905c7d831551d266b0417f27a6e3e77e15dd3504742beb0916449ee978f")
    assert b.diagnostics["substeps_total"] == 6
    assert not b.ok.any()
    assert b.diagnostics["boundary_overflow_paths"] == 3
    assert b.flag_counts()["boundary_overflow"] == 3


# every proposal of every step is thrown out of D, so each attempt needs
# resample_cap + 1 = 51 reserve normals from a pool of C = 20
_POOL_OVERRUN_SCRIPT = """
import hashlib, json
from inertdrift import (Interval, Potential, SimConfig, SmoothDistance,
                        make_coefficients, run_ensemble)
iv = Interval(0.0, 1.0)
cs = make_coefficients("identity", iv, gamma=[[1.0]])
pot = Potential("regularized_vn", distance=SmoothDistance(iv), n=1)
cfg = SimConfig(family="gradient", dt_base=0.05, t_end=1.0, adaptive=False,
                delta_guard=1e-12, n_paths=16, seed=5, max_substeps=1)
b = run_ensemble(cs, cfg, potential=pot, backend="numpy")
print(json.dumps({
    "x": hashlib.sha256(b.x.tobytes()).hexdigest(),
    "k": hashlib.sha256(b.k.tobytes()).hexdigest(),
    "flags": b.flags.tolist(),
    "diagnostics": b.diagnostics,
}))
"""


def test_pool_overrun_is_flagged_not_retried_forever():
    # a subprocess with a timeout, so a regression fails instead of hanging
    src = os.path.dirname(os.path.dirname(inertdrift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _POOL_OVERRUN_SCRIPT],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # the digests both backends gave before the per-path stepper was deleted
    assert (out["x"], out["k"]) == (
        "b21c27600d11cf269eed55f73173245df31bc8d7519cc5a6e84550f4fa177e6f",
        "1d9251a46090d71217e0e8d9246d56ec7732a9af5ba990188b73541070020242")
    assert out["flags"] == [1] * 16
    diag = out["diagnostics"]
    assert diag["boundary_overflow_paths"] == 16
    # two refills per path: the third would hand a path 3 * 20 > 1 * 51
    # reserve normals on one step
    assert diag["pool_refills"] == 32


# the stiff wall of the "refills" parity case with resample_cap=0, so the
# pool (C normals) is longer than the max_substeps normals an attempt can
# draw: a step's first refill must go through, as the uncapped retry did.
# The x digests, and the k digests per chunk length, are the ones both
# backends gave.
POOL_LONGER_K_SHA = {
    25: "8a37d66ef48a31276c3780fcec8cf00071759de9856bd63138ef0a00819f8ed6",
    10: "506da17558e158d121f8724657a538ce5b283825ae82b61658eac7cbf4b20223",
}


POOL_LONGER_CASES = pytest.mark.parametrize("chunk, max_substeps, flags, refills, x_sha", [
    (25, 20, [0, 0, 0, 0, 0, 0], 48,
     "dc36d22227d586ad3d8d7a6892fb86db8cc7a128515891257625d62305e6afc5"),
    (10, 9, [0, 1, 1, 1, 1, 0], 58,
     "0e0e4fc1cc99ffa6592a3ff81d28a9dba402e1bfbeae505a180ef34febef5fc9"),
])


def _pool_longer_run(chunk, max_substeps):
    iv = Interval(0.0, 1.0)
    cs = make_coefficients("identity", iv, gamma=[[1.0]])
    pot = Potential("regularized_vn", distance=SmoothDistance(iv), n=1)
    cfg = SimConfig(family="gradient", dt_base=0.01, t_end=0.5, burn_in=0.1,
                    n_paths=6, seed=4, snap_every=5, chunk_size=chunk,
                    resample_cap=0, max_substeps=max_substeps)
    assert cfg.max_substeps * (cfg.resample_cap + 1) < chunk
    return run_ensemble(cs, cfg, potential=pot, backend="numpy")


@POOL_LONGER_CASES
def test_pool_longer_than_attempt_budget_refills_without_flagging(
    chunk, max_substeps, flags, refills, x_sha
):
    g_np = _pool_longer_run(chunk, max_substeps)
    assert g_np.flags.tolist() == flags
    assert g_np.diagnostics["pool_refills"] == refills
    # flagged paths record NaN
    assert (_sha256(g_np.x), _sha256(g_np.k)) == (x_sha, POOL_LONGER_K_SHA[chunk])


@POOL_LONGER_CASES
def test_noise_block_cap_leaves_gradient_runs_alone(
    monkeypatch, chunk, max_substeps, flags, refills, x_sha
):
    # the reserve pool is as long as the noise block, so the gradient family
    # keeps blocks of chunk_size steps: a cap that would give a reflected
    # run of 6 paths blocks of 3 steps changes neither refills nor paths
    monkeypatch.setattr(simulate, "_NOISE_BLOCK_FLOATS", 3 * 6)
    g_np = _pool_longer_run(chunk, max_substeps)
    assert g_np.flags.tolist() == flags
    assert g_np.diagnostics["pool_refills"] == refills
    assert (_sha256(g_np.x), _sha256(g_np.k)) == (x_sha, POOL_LONGER_K_SHA[chunk])


def test_gradient_kernel_single_step_matches_step_api(interval_cs, wall_n2):
    # one mild base step consumes exactly the first base normal per path,
    # so the ensemble and a one-path kernel step on that normal must agree
    cfg = SimConfig(
        family="gradient", dt_base=1e-3, t_end=1e-3, n_paths=5, seed=31
    )
    b = run_ensemble(interval_cs, cfg, potential=wall_n2)
    seqs = np.random.SeedSequence(31).spawn(5)
    for p in range(5):
        z = np.random.default_rng(seqs[p]).standard_normal((1, 1))[0]
        s1 = _gradient_once(interval_cs, wall_n2, [0.5], [0.0], 1e-3, z,
                            adaptive=True)
        assert b.x[p, 0, 0] == pytest.approx(s1["x"][0, 0], rel=1e-12)
        assert b.k[p, 0, 0] == pytest.approx(s1["k"][0, 0], rel=1e-12)


# ---------------------------------------------------------------------------
# distributional sanity and the reweighted driftless family
# ---------------------------------------------------------------------------


def test_reflected_x_marginal_is_uniform_when_inert_coupling_vanishes(
    unit_interval,
):
    # Gamma -> 0 freezes K at 0: plain reflected Brownian motion, whose
    # stationary law is uniform on (0, 1)
    cs = make_coefficients("identity", unit_interval, gamma=[[1e-8]])
    cfg = SimConfig(
        family="reflected",
        dt_base=5e-4,
        t_end=10.0,
        burn_in=2.0,
        n_paths=64,
        seed=17,
        snap_every=20,
    )
    b = run_ensemble(cs, cfg, domain=unit_interval)
    path_means = b.x[:, :, 0].mean(axis=1)
    se = path_means.std(ddof=1) / np.sqrt(len(path_means))
    assert abs(path_means.mean() - 0.5) <= 3.0 * se
    assert np.nanmax(np.abs(b.k)) < 1e-3
    pooled = b.x[:, :, 0].ravel()
    assert abs(pooled.var() - 1.0 / 12.0) < 0.01


def test_driftless_weights_are_exactly_one_when_k_stays_zero(unit_interval):
    cs = CoefficientSet(
        unit_interval,
        gamma=[[1.0]],
        inert_field=lambda pts: np.zeros_like(pts),
        vectorized=True,
    )
    cfg = SimConfig(
        family="driftless_weighted",
        dt_base=1e-3,
        t_end=0.1,
        burn_in=0.0,
        n_paths=8,
        seed=3,
        snap_every=100,
    )
    b = run_ensemble(cs, cfg, domain=unit_interval)
    assert b.backend == "numpy"  # the kernel steps a callable inert field
    assert np.all(b.log_weights == 0.0)
    assert np.all(b.weights == 1.0)
    assert np.all(b.k == 0.0)


def test_reweighted_driftless_reproduces_direct_law(interval_cs, unit_interval):
    kw = dict(
        dt_base=1e-3,
        t_end=0.5,
        burn_in=0.0,
        n_paths=512,
        seed=9,
        snap_every=500,
        x0=(0.3,),
    )
    bw = run_ensemble(
        interval_cs,
        SimConfig(family="driftless_weighted", **kw),
        domain=unit_interval,
    )
    bd = run_ensemble(
        interval_cs, SimConfig(family="reflected", **kw), domain=unit_interval
    )
    w = bw.weights
    assert bw.times[-1] == pytest.approx(0.5)
    # martingale property: mean weight = 1
    se_w = w.std(ddof=1) / np.sqrt(len(w))
    assert abs(w.mean() - 1.0) <= 3.0 * se_w
    # the same discrete law: compare three functionals of (X_T, K_T)
    tests = [
        bw.x[:, -1, 0],
        bw.k[:, -1, 0],
        np.cos(np.pi * bw.x[:, -1, 0]) * np.tanh(bw.k[:, -1, 0]),
    ]
    refs = [
        bd.x[:, -1, 0],
        bd.k[:, -1, 0],
        np.cos(np.pi * bd.x[:, -1, 0]) * np.tanh(bd.k[:, -1, 0]),
    ]
    for fw, fd in zip(tests, refs):
        ew = np.mean(w * fw)
        sw = np.std(w * fw, ddof=1) / np.sqrt(len(w))
        ed = np.mean(fd)
        sd_ = np.std(fd, ddof=1) / np.sqrt(len(fd))
        assert abs(ew - ed) <= 4.0 * np.hypot(sw, sd_)


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def test_trajectory_csv_and_manifest_roundtrip(
    interval_cs, unit_interval, tmp_path
):
    cfg = SimConfig(
        family="reflected",
        dt_base=1e-3,
        t_end=0.05,
        burn_in=0.01,
        n_paths=3,
        seed=2,
        snap_every=5,
    )
    b = run_ensemble(interval_cs, cfg, domain=unit_interval)
    csv_path = tmp_path / "traj.csv"
    b.to_csv(csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "path_id,t,x1,k1,ell"
    assert len(lines) == 1 + b.n_paths * b.n_snapshots
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert data.shape == (b.n_paths * b.n_snapshots, 5)
    row = data[b.n_snapshots]  # first snapshot of path 1
    assert row[0] == 1.0
    assert row[1] == pytest.approx(b.times[0])
    assert row[2] == pytest.approx(b.x[1, 0, 0], rel=1e-15)

    man_path = tmp_path / "run.json"
    b.write_manifest(man_path)
    man = json.loads(man_path.read_text())
    assert man["config"]["family"] == "reflected"
    assert man["config"]["seed"] == 2
    assert man["backend"] == b.backend == "numpy"  # default where kernels apply
    assert man["domain"]["kind"] == "interval"
    assert man["coefficients"] == "identity"
    assert set(man["versions"]) == {"inertdrift", "numpy"}
    assert man["flag_counts"]["boundary_overflow"] == 0
    # byte-identical across identical reruns
    b2 = run_ensemble(interval_cs, cfg, domain=unit_interval)
    man_path2 = tmp_path / "run2.json"
    b2.write_manifest(man_path2)
    assert man_path.read_bytes() == man_path2.read_bytes()


# The streaming writer against the np.savetxt calls it replaced.


def _savetxt_trajectory(batch, path):
    P, S, d = batch.x.shape
    cols = (["path_id", "t"] + ["x%d" % (i + 1) for i in range(d)]
            + ["k%d" % (i + 1) for i in range(d)] + ["ell"])
    table = np.empty((P, S, 2 * d + 3))
    table[:, :, 0] = np.arange(P)[:, None]
    table[:, :, 1] = batch.times
    table[:, :, 2:d + 2] = batch.x
    table[:, :, d + 2:-1] = batch.k
    table[:, :, -1] = batch.ell
    np.savetxt(path, table.reshape(P * S, 2 * d + 3), delimiter=",",
               fmt=["%d"] + ["%.17g"] * (2 * d + 2),
               header=",".join(cols), comments="")


def _savetxt_weights(batch, path):
    table = np.column_stack([np.arange(batch.n_paths), batch.log_weights])
    np.savetxt(path, table, fmt=["%d", "%.17g"], delimiter=",",
               header="path_id,log_weight", comments="")


def _batch(times, x, k, ell, log_weights=None):
    return TrajectoryBatch(
        times=np.asarray(times, dtype=float), x=x, k=k, ell=ell,
        flags=np.zeros(x.shape[0], dtype=np.int64), log_weights=log_weights,
        diagnostics={}, config=None, backend="numpy", run_info={},
    )


def test_kish_ess_leaves_out_flagged_paths():
    # a weight_overflow path's log-weight passes the cap; counting it would
    # put the whole weight on that one path (ESS 1.0)
    b = _batch([1.0], np.zeros((3, 1, 1)), np.zeros((3, 1, 1)),
               np.zeros((3, 1)), log_weights=np.array([0.0, 0.1, 700.5]))
    assert b.kish_ess() == pytest.approx(1.0, abs=1e-12)
    b.flags[2] = _kernels.FLAG_WEIGHT_OVERFLOW
    w = np.exp([0.0, 0.1])
    assert b.kish_ess() == pytest.approx(w.sum() ** 2 / (w * w).sum(), rel=1e-15)
    assert round(b.kish_ess(), 3) == 1.995
    b.flags[:] = _kernels.FLAG_WEIGHT_OVERFLOW
    assert b.kish_ess() == 0.0


def _usable_cpus(monkeypatch, cpus):
    """Make os.sched_getaffinity report ``cpus`` CPUs (None: not exist)."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)


def _count_forks(monkeypatch):
    """A list that gets one entry per os.fork call from now on."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_writes_match(monkeypatch, write, ref, new):
    """``write(new)`` gives the bytes of ``ref`` however many CPUs are usable,
    forks one helper exactly when two are and the table has two blocks or
    more, and leaves no child process behind."""
    forks = _count_forks(monkeypatch)
    expected = ref.read_bytes()
    for cpus in (None, 1, 2):
        _usable_cpus(monkeypatch, cpus)
        forks.clear()
        write(new)
        assert new.read_bytes() == expected
        n_rows = expected.count(b"\n") - 1
        assert len(forks) == (cpus == 2 and n_rows > _CSV_BLOCK_ROWS)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _assert_csv_matches_savetxt(batch, tmp_path, monkeypatch):
    _savetxt_trajectory(batch, str(tmp_path / "ref.csv"))
    _assert_writes_match(monkeypatch, lambda p: batch.to_csv(str(p)),
                         tmp_path / "ref.csv", tmp_path / "new.csv")


def _in_runs(rng, shape, change=0.1):
    """Random values that change at about ``change`` of the steps."""
    n = int(np.prod(shape))
    values = rng.standard_normal(n)
    run = np.cumsum(rng.random(n) < change)
    return values[run].reshape(shape)


_NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(float)[0]
_SPECIAL = [0.0, -0.0, -0.0, 0.0, np.inf, -np.inf, np.inf, 5e-324,
            2.2250738585072014e-308 / 3, 1e300, 1e300, -1e300, 1e-300,
            0.1, 1.0 / 3.0, _NAN_PAYLOAD, -np.nan, np.nan, np.nan, 7.0]


def test_csv_writer_matches_savetxt_on_special_values(tmp_path, monkeypatch):
    P, S, d = 4, 5, 2
    vals = np.array(_SPECIAL)
    x = np.resize(vals, (P, S, d))
    k = np.resize(vals[::-1], (P, S, d))
    ell = np.resize(vals[3:], (P, S))
    x[2, 1:], k[2, 1:], ell[2, 1:] = np.nan, np.nan, np.nan  # a flagged path
    times = [0.1, 0.2, 0.30000000000000004, 1e-17, 5.0]
    _assert_csv_matches_savetxt(_batch(times, x, k, ell), tmp_path, monkeypatch)


@pytest.mark.parametrize("P, S, d", [(3, 0, 1), (3, 0, 2), (1, 1, 1), (4, 1, 2),
                                     (1, 7, 2), (1, 1, 3)])
def test_csv_writer_matches_savetxt_on_small_shapes(tmp_path, monkeypatch, P, S, d):
    rng = np.random.default_rng(P * 100 + S * 10 + d)
    batch = _batch(np.arange(1, S + 1) * 0.01, rng.standard_normal((P, S, d)),
                   _in_runs(rng, (P, S, d)), _in_runs(rng, (P, S)))
    _assert_csv_matches_savetxt(batch, tmp_path, monkeypatch)
    if S == 0:
        assert (tmp_path / "new.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("P, S", [(7, _CSV_BLOCK_ROWS // 2 - 24),
                                  (3, 2 * _CSV_BLOCK_ROWS + 360)])
def test_csv_writer_matches_savetxt_across_blocks(tmp_path, monkeypatch, P, S):
    # S smaller and larger than a block, dividing neither it nor P * S; an
    # even and an odd number of blocks, so the two halves are equal or not
    assert P * S > 2 * _CSV_BLOCK_ROWS
    assert _CSV_BLOCK_ROWS % S and S % _CSV_BLOCK_ROWS
    assert (P * S) % _CSV_BLOCK_ROWS
    rng = np.random.default_rng(S)
    x = rng.random((P, S, 1))
    x[1, S // 2:] = np.nan
    batch = _batch(np.arange(1, S + 1) * 1e-3, x, _in_runs(rng, (P, S, 1), 0.05),
                   _in_runs(rng, (P, S), 0.05))
    _assert_csv_matches_savetxt(batch, tmp_path, monkeypatch)


def test_csv_writer_accepts_path_objects_and_matches_a_run(tmp_path, monkeypatch):
    disc = Ball([0.0, 0.0], 1.0)
    cs = make_coefficients("identity", disc, gamma=np.diag([2.0, 1.0]))
    cfg = SimConfig(family="driftless_weighted", dt_base=1e-3, t_end=0.2,
                    n_paths=5, seed=3, snap_every=7)
    batch = run_ensemble(cs, cfg, domain=disc)
    assert (batch.k[:, 1:] == batch.k[:, :-1]).any()  # some runs to collapse
    _savetxt_trajectory(batch, str(tmp_path / "ref.csv"))
    _assert_writes_match(monkeypatch, batch.to_csv, tmp_path / "ref.csv",
                         tmp_path / "new.csv")
    _savetxt_weights(batch, str(tmp_path / "ref_w.csv"))
    _assert_writes_match(monkeypatch, batch.write_weights,
                         tmp_path / "ref_w.csv", tmp_path / "new_w.csv")


@pytest.mark.parametrize("P", [1, 3, len(_SPECIAL), 2 * _CSV_BLOCK_ROWS + 5])
def test_write_weights_matches_savetxt(tmp_path, monkeypatch, P):
    log_weights = np.resize(np.array(_SPECIAL), P)
    batch = _batch([0.5], np.zeros((P, 1, 1)), np.zeros((P, 1, 1)),
                   np.zeros((P, 1)), log_weights=log_weights)
    _savetxt_weights(batch, str(tmp_path / "ref.csv"))
    _assert_writes_match(monkeypatch, lambda p: batch.write_weights(str(p)),
                         tmp_path / "ref.csv", tmp_path / "new.csv")


def test_write_weights_without_log_weights_opens_no_file(tmp_path):
    batch = _batch([0.5], np.zeros((3, 1, 1)), np.zeros((3, 1, 1)),
                   np.zeros((3, 1)))
    with pytest.raises(ValueError, match="log-weights"):
        batch.write_weights(tmp_path / "weights.csv")
    assert not (tmp_path / "weights.csv").exists()


def test_kish_ess_without_log_weights_raises():
    batch = _batch([0.5], np.zeros((3, 1, 1)), np.zeros((3, 1, 1)),
                   np.zeros((3, 1)))
    with pytest.raises(ValueError, match="this batch has no log-weights"):
        batch.kish_ess()


@pytest.mark.parametrize("failing_block, error",
                         [(0, KeyError), (1, KeyError), (2, RuntimeError)])
def test_csv_writer_failure_leaves_no_child(tmp_path, monkeypatch,
                                            failing_block, error):
    # with two CPUs this process formats blocks 0 and 1 and the helper block
    # 2: a failure in any raises here, and the helper is reaped, killed when
    # this process fails while it is still busy (block 0); the helper's
    # temporary file leaves no name behind
    P = 3 * _CSV_BLOCK_ROWS
    batch = _batch([0.5], np.zeros((P, 1, 1)), np.zeros((P, 1, 1)),
                   np.zeros((P, 1)), log_weights=np.arange(P, dtype=float))
    run_text = simulate._run_text
    parent = os.getpid()

    def failing(values):
        if values[0] == failing_block * _CSV_BLOCK_ROWS:
            raise KeyError("injected")
        if failing_block == 0 and os.getpid() != parent:
            time.sleep(60)
        return run_text(values)

    monkeypatch.setattr(simulate, "_run_text", failing)
    for cpus, expected in ((1, KeyError), (2, error)):
        _usable_cpus(monkeypatch, cpus)
        start = time.monotonic()
        with pytest.raises(expected):
            batch.write_weights(tmp_path / "weights.csv")
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.listdir(tmp_path) == ["weights.csv"]


@pytest.mark.parametrize("how, status", [("exit", 3), ("kill", -9)])
@pytest.mark.parametrize("child", ["CSV helper", "ensemble worker"])
def test_child_that_dies_without_a_traceback_raises_its_status(
    tmp_path, monkeypatch, child, how, status
):
    # the child ends at once, by os._exit(3) or a SIGKILL to itself, so no
    # traceback comes up the pipe: its status alone raises here
    parent = os.getpid()

    def dying(real):
        def call(*args):
            if os.getpid() != parent:
                if how == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)
        return call

    _usable_cpus(monkeypatch, 2)
    if child == "CSV helper":
        P = 3 * _CSV_BLOCK_ROWS
        batch = _batch([0.5], np.zeros((P, 1, 1)), np.zeros((P, 1, 1)),
                       np.zeros((P, 1)), log_weights=np.arange(P, dtype=float))
        monkeypatch.setattr(simulate, "_run_text", dying(simulate._run_text))
        call = lambda: batch.write_weights(tmp_path / "weights.csv")
    else:
        cs, kw, cfg = _split_case("reflected")
        monkeypatch.setattr(simulate, "_SPLIT_MIN_FLOATS", 1)
        monkeypatch.setattr(_kernels, "reflected_chunk",
                            dying(_kernels.reflected_chunk))
        call = lambda: run_ensemble(cs, cfg, **kw)
    with pytest.raises(RuntimeError, match="^the %s process exited with status "
                       "%d$" % (child, status)):
        call()
    assert os.listdir(tmp_path) == (["weights.csv"] if child == "CSV helper"
                                    else [])


def _split_case(name):
    """(cs, keyword arguments of run_ensemble, config) of a run whose paths
    a forked worker may share: P odd, K moving from k0, pool refills, a
    varying sigma, and paths flagged in both halves."""
    iv = Interval(0.0, 1.0)
    iv_cs = make_coefficients("identity", iv, gamma=[[1.0]])
    if name == "reflected":
        return iv_cs, {"domain": iv}, SimConfig(
            family="reflected", dt_base=1e-3, t_end=0.3, n_paths=9, seed=8,
            snap_every=10, chunk_size=64, k0=(0.5,))
    if name == "driftless_weighted":
        disc = Ball([0.0, 0.0], 1.0)
        return make_coefficients("identity", disc, gamma=np.diag([2.0, 1.0])), \
            {"domain": disc}, SimConfig(
                family="driftless_weighted", dt_base=5e-4, t_end=0.5,
                n_paths=8, seed=5, snap_every=25, k0=(0.5, 1.0))
    if name == "gradient":
        cs, pot, cfg = _gradient_case("refills")
        return cs, {"potential": pot}, cfg
    if name == "varying_sigma":  # S inverted by LAPACK at every step
        cs = CoefficientSet(iv, gamma=[[1.0]], sigma=_sigma_1x2, vectorized=True)
        return cs, {"domain": iv}, SimConfig(
            family="driftless_weighted", dt_base=1e-3, t_end=0.3, n_paths=8,
            seed=2, snap_every=10, k0=(0.5,))
    cs, dom, cfg = _flag_case("weight_overflow", "driftless_weighted")
    return cs, {"domain": dom}, cfg


@pytest.mark.parametrize("name", ["reflected", "driftless_weighted", "gradient",
                                  "varying_sigma", "weight_overflow"])
def test_split_run_matches_serial_run(monkeypatch, name):
    # each path reads only its own stream and state rows, so a worker that
    # steps paths [P/2, P) changes no bit of any output
    if name == "weight_overflow":
        monkeypatch.setattr(_kernels, "LOG_WEIGHT_CAP", 0.3)
    cs, kw, cfg = _split_case(name)
    monkeypatch.setattr(simulate, "_SPLIT_MIN_FLOATS", 1)
    forks = _count_forks(monkeypatch)
    runs = []
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        forks.clear()
        runs.append(run_ensemble(cs, cfg, **kw))
        assert len(forks) == cpus - 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    serial, split = runs
    for field in ("x", "k", "ell", "flags", "log_weights"):
        a, b = getattr(serial, field), getattr(split, field)
        assert (a is None and b is None) or a.tobytes() == b.tobytes()
    assert serial.diagnostics == split.diagnostics
    mid = cfg.n_paths // 2
    if name == "gradient":
        assert split.diagnostics["pool_refills"] > 0
    elif name == "weight_overflow":  # flags set on both sides of the split
        assert split.flags[:mid].any() and split.flags[mid:].any()
    else:  # K moved away from k0 on both sides
        k0 = np.array(cfg.k0)
        assert (split.k[:mid] != k0).any() and (split.k[mid:] != k0).any()


@pytest.mark.parametrize("side", ["caller", "worker"])
def test_split_run_failure_reaches_the_caller(monkeypatch, side):
    # the side that fails raises here; when the caller fails while the
    # worker is still busy, the worker is killed rather than waited for
    cs, kw, cfg = _split_case("reflected")
    monkeypatch.setattr(simulate, "_SPLIT_MIN_FLOATS", 1)
    _usable_cpus(monkeypatch, 2)
    parent = os.getpid()
    chunk = _kernels.reflected_chunk

    def failing(*args):
        in_worker = os.getpid() != parent
        if in_worker == (side == "worker"):
            raise KeyError("injected")
        if in_worker:
            time.sleep(60)
        return chunk(*args)

    monkeypatch.setattr(_kernels, "reflected_chunk", failing)
    expected = (pytest.raises(KeyError, match="injected") if side == "caller"
                else pytest.raises(RuntimeError, match=r"(?s)ensemble worker.*"
                                   r"KeyError: 'injected'"))
    start = time.monotonic()
    with expected:
        run_ensemble(cs, cfg, **kw)
    assert time.monotonic() - start < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
