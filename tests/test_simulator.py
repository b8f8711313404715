"""Stepping semantics: closed-form free flight, symplectic update contract,
settling and resting behavior, determinism, and rollout derivatives."""
import dataclasses
import logging

import numpy as np
import pytest

from conftest import cube_model, cube_state, sphere_model, tight_params
from diffcontact import derivatives, simulator
from diffcontact.cli import load_scene
from diffcontact.contact import Mode
from diffcontact.derivatives import step_jacobian
from diffcontact.fd import fd_rollout_jacobian
from diffcontact.model import difference, integrate
from diffcontact.simulator import (
    SimParams,
    SimState,
    rollout,
    rollout_jacobian,
    step,
    trajectory_rows,
)

GRAVITY = 9.81


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dt=0.0),
        dict(dt=-1e-3),
        dict(baumgarte_kp=-0.1),
        dict(baumgarte_kp=1.5),
        dict(baumgarte_kd=2.0),
        dict(contact_margin=0.0),
        dict(ncp_tol=0.0),
        dict(ncp_max_iters=0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        SimParams(**kwargs)


def test_free_flight_matches_symplectic_euler():
    """No contact, no rotation: v_z loses g*dt per step and q integrates
    the post-step velocity (symplectic Euler)."""
    model = sphere_model()
    dt = 1e-3
    params = SimParams(dt=dt)
    v0 = np.array([0.0, 0.0, 0.0, 0.3, -0.2, 0.4])
    state = SimState(np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0]), v0.copy())
    results = rollout(model, state, horizon=50, params=params)
    z = 2.0
    vz = v0[5]
    for k, res in enumerate(results, start=1):
        vz = v0[5] - k * dt * GRAVITY
        z += dt * vz
        expect_v = np.array([0.0, 0.0, 0.0, v0[3], v0[4], vz])
        np.testing.assert_allclose(res.state.v, expect_v, atol=1e-12)
        np.testing.assert_allclose(
            res.state.q[:3],
            [0.3 * k * dt, -0.2 * k * dt, z],
            atol=1e-12,
        )
        assert res.contacts == [] and res.solution is None


def test_configuration_update_uses_post_impact_velocity():
    """q+ must equal integrate(q, dt v+) even through a contact impulse."""
    model = sphere_model(mu=0.6)
    params = tight_params()
    state = SimState(
        np.array([0.0, 0.0, 0.1 - 2e-5, 0.0, 0.0, 0.0, 1.0]),
        np.array([0.0, 0.0, 0.0, 0.8, 0.0, -0.3]),
    )
    res = step(model, state, None, params)
    assert res.contacts
    np.testing.assert_allclose(
        res.state.q, integrate(model, state.q, params.dt * res.state.v), atol=0.0
    )
    # and the velocity actually changed, so the check is not vacuous
    assert np.linalg.norm(res.state.v - state.v) > 1e-3


def test_dropped_sphere_settles_within_twice_fall_time():
    """A sphere dropped from rest lands inelastically and reaches
    ||v|| < 1e-6 within twice the analytic fall time."""
    model = sphere_model(mu=0.6)
    z0, radius = 0.5, 0.1
    dt = 1e-3
    # margin larger than the per-step travel near impact, or the
    # penetration-recovery term turns landing into a bounce
    params = tight_params(dt=dt, contact_margin=5e-3)
    state = SimState(np.array([0.0, 0.0, z0, 0.0, 0.0, 0.0, 1.0]), np.zeros(6))
    fall_time = np.sqrt(2.0 * (z0 - radius) / GRAVITY)
    budget = int(np.ceil(2.0 * fall_time / dt))
    results = rollout(model, state, horizon=budget, params=params)
    speeds = [np.linalg.norm(r.state.v) for r in results]
    settled = next((k for k, s in enumerate(speeds) if s < 1e-6), None)
    assert settled is not None, f"min speed {min(speeds):.2e} over {budget} steps"
    # stays settled and supported at the surface afterwards
    assert all(s < 1e-6 for s in speeds[settled:])
    assert abs(results[-1].state.q[2] - radius) < 1e-4


def test_resting_cube_patch_is_persistent():
    """A cube resting on the plane keeps its four-corner patch with bounded
    penetration; no force relaxation means no creep or chatter."""
    model = cube_model(mu=1.0)
    params = tight_params()
    state = cube_state(model, z=0.1)  # exact touch, no recovery transient
    results = rollout(model, state, horizon=200, params=params)
    worst_phi = 0.0
    for res in results:
        assert len(res.contacts) == 4
        assert all(m is Mode.STICKING for m in res.solution.modes)
        worst_phi = max(worst_phi, max(abs(f.signed_distance) for f in res.contacts))
        assert np.linalg.norm(res.state.v) < 1e-8
    assert worst_phi < 5e-5


def test_sliding_cube_decelerates_at_mu_g():
    """Coulomb friction on a flat slide is a constant deceleration mu*g,
    and the cube comes to rest instead of creeping."""
    mu = 0.4
    model = cube_model(mu=mu)
    params = tight_params()
    v0 = 1.0
    # exact touch: a penetration-recovery kick would cause a micro-bounce
    # with ballistic (energy-gaining) segments
    state = cube_state(model, z=0.1, v=[0, 0, 0, v0, 0, 0])
    stop_steps = int(v0 / (mu * GRAVITY * params.dt))  # about 255
    results = rollout(model, state, horizon=stop_steps + 60, params=params)
    vx_100 = results[99].state.v[3]
    assert abs(vx_100 - (v0 - mu * GRAVITY * 0.100)) < 5e-3
    assert np.linalg.norm(results[-1].state.v) < 1e-6
    # kinetic energy never increases along the slide
    def ke(r):
        return float(r.state.v @ r.state.v)
    energies = [ke(r) for r in results]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_rollout_is_deterministic():
    model = cube_model(mu=0.8)
    params = tight_params()
    state = cube_state(model, v=[0.1, 0.0, 0.0, 0.5, -0.2, 0.0])
    r1 = rollout(model, state.copy(), horizon=40, params=params)
    r2 = rollout(model, state.copy(), horizon=40, params=params)
    for a, b in zip(r1, r2):
        assert np.array_equal(a.state.q, b.state.q)
        assert np.array_equal(a.state.v, b.state.v)
        if a.solution is not None:
            assert np.array_equal(a.solution.lam, b.solution.lam)


def test_warm_start_reuses_previous_impulse():
    model = cube_model(mu=1.0)
    params = tight_params()
    state = cube_state(model)
    cold = step(model, state, None, params)
    ws = cold.warm_start()
    assert set(ws) == {(f.pair, f.feature) for f in cold.contacts}
    warm = step(model, cold.state, None, params, warm_start=ws)
    assert warm.solution.iterations <= cold.solution.iterations
    assert warm.solution.converged


def test_trajectory_rows_layout():
    model = sphere_model(mu=0.6)
    params = tight_params()
    state = SimState(
        np.array([0.0, 0.0, 0.1 - 2e-5, 0.0, 0.0, 0.0, 1.0]),
        np.array([0.0, 0.0, 0.0, 0.4, 0.0, 0.0]),
    )
    results = rollout(model, state, horizon=3, params=params)
    rows = trajectory_rows(results)
    assert len(rows) == 3
    nq, nv = model.nq, model.nv
    for t, row in enumerate(rows, start=1):
        res = results[t - 1]
        n = len(res.contacts)
        assert len(row) == 1 + nq + nv + 2 + 8 * n
        assert row[0] == t
        np.testing.assert_allclose(row[1 : 1 + nq], res.state.q)
        np.testing.assert_allclose(row[1 + nq : 1 + nq + nv], res.state.v)
        assert row[1 + nq + nv] == res.solution.residual
        assert row[2 + nq + nv] == n
        base = 3 + nq + nv
        for i, f in enumerate(res.contacts):
            chunk = row[base + 8 * i : base + 8 * (i + 1)]
            assert chunk[0] == f.pair[0] and chunk[1] == f.pair[1]
            assert chunk[2] == f.feature
            assert chunk[3] == res.solution.modes[i].value
            assert chunk[4] == f.signed_distance
            np.testing.assert_allclose(chunk[5:8], res.solution.lam[3 * i : 3 * i + 3])


@pytest.mark.parametrize("theta", ["q0", "v0", "tau0", "mu"])
def test_rollout_jacobian_matches_fd_over_sliding_contact(theta):
    """Twenty steps of a decelerating sliding cube: chained analytic
    derivatives of the final state track finite differences."""
    model = cube_model(mu=0.4)
    params = tight_params(ncp_tol=1e-14)
    state = cube_state(model, v=[0, 0, 0, 1.0, 0.05, 0])
    taus = np.zeros((20, model.nv))
    taus[0, 3] = 0.05
    _, Jq, Jv = rollout_jacobian(model, state, taus, horizon=20, params=params, theta=theta)
    fq, fv = fd_rollout_jacobian(model, state, taus, horizon=20, params=params,
                                 theta=theta, eps=1e-6)
    for A, F in ((Jq, fq), (Jv, fv)):
        err = np.abs(A - F).max() / max(1.0, np.abs(F).max())
        assert err < 1e-3, f"{theta}: {err:.2e}"


@pytest.mark.parametrize("theta, first, rest", [
    ("q0", ["q", "v"], ["q", "v"]),
    ("v0", ["q", "v"], ["q", "v"]),
    ("tau0", ["q", "v", "tau"], ["q", "v"]),
    ("mu", ["q", "v", ("mu", 0)], ["q", "v", ("mu", 0)]),
])
def test_rollout_jacobian_one_step_jacobian_per_step(monkeypatch, theta, first, rest):
    """One derivative pass per step, asking only for the blocks it chains."""
    requested = []
    real = derivatives.step_jacobian

    def counting(*args, **kwargs):
        requested.append(kwargs["theta"])
        return real(*args, **kwargs)

    monkeypatch.setattr(derivatives, "step_jacobian", counting)
    model, state, params = load_scene("cube_slide")
    rollout_jacobian(model, state, None, horizon=4, params=params, theta=theta)
    assert requested == [first] + 3 * [rest]


def test_rollout_jacobian_rejects_unknown_theta():
    model, state, params = load_scene("cube_slide")
    with pytest.raises(ValueError):
        rollout_jacobian(model, state, None, horizon=2, params=params, theta="x")


@pytest.mark.parametrize("mu_pair", [-1, 99])
def test_rollout_jacobian_rejects_bad_mu_pair_before_rolling_out(monkeypatch, mu_pair):
    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before validating mu_pair")

    monkeypatch.setattr(simulator, "rollout", no_rollout)
    model, state, params = load_scene("cube_slide")
    with pytest.raises(ValueError, match="mu_pair"):
        rollout_jacobian(model, state, None, horizon=2, params=params, theta="mu",
                         mu_pair=mu_pair)


def test_rollout_final_state_matches_stepwise():
    model = cube_model(mu=0.4)
    params = tight_params()
    state = cube_state(model, v=[0, 0, 0, 0.6, 0, 0])
    results = rollout(model, state, horizon=10, params=params)
    s = state
    warm = None
    for t in range(10):
        res = step(model, s, np.zeros(model.nv), params, warm_start=warm)
        s, warm = res.state, res.warm_start()
    assert np.array_equal(results[-1].state.q, s.q)
    assert np.array_equal(results[-1].state.v, s.v)
    assert np.linalg.norm(difference(model, state.q, s.q)) > 1e-3


def test_unconverged_step_warns_and_flags_jacobian(caplog):
    model, state, params = load_scene("chain12")
    with caplog.at_level(logging.WARNING, logger="diffcontact"):
        res = step(model, state, None, params)
    assert res.solution.converged and not caplog.records
    assert step_jacobian(model, state, None, params, res).converged

    capped = dataclasses.replace(params, ncp_max_iters=1)
    with caplog.at_level(logging.WARNING, logger="diffcontact"):
        res = step(model, state, None, capped)
    assert not res.solution.converged
    [record] = caplog.records
    assert record.name == "diffcontact" and record.levelno == logging.WARNING
    assert "1 sweeps" in record.getMessage()
    assert f"ncp_tol {params.ncp_tol:.3g}" in record.getMessage()
    assert not step_jacobian(model, state, None, capped, res).converged
