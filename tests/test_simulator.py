"""Stepping semantics: closed-form free flight, symplectic update contract,
settling and resting behavior, determinism, and rollout derivatives."""
import dataclasses
import logging

import numpy as np
import pytest

from conftest import (
    cube_model,
    cube_state,
    mixed_kind_model,
    mixed_kind_state,
    sphere_model,
    tight_params,
)
from diffcontact import collision, derivatives, simulator
from diffcontact.cli import load_scene
from diffcontact.contact import Mode
from diffcontact.derivatives import step_jacobian
from diffcontact.fd import fd_rollout_jacobian
from diffcontact.model import difference, integrate
from diffcontact.simulator import (
    SimParams,
    SimState,
    detect_contacts,
    rollout,
    rollout_jacobian,
    step,
    trajectory_header,
    trajectory_rows,
)
from oracles import contact_packs_per_pair, detect_contacts_per_pair

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
        dict(dt=float("nan")),
        dict(contact_margin=float("nan")),
        dict(ncp_tol=float("nan")),
        dict(baumgarte_kp=float("nan")),
        dict(ncp_max_iters=2.5),
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
        assert len(res.contacts) == 0 and res.solution is None


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
    header = trajectory_header(model)
    fixed, per_contact = header[:-1], header[-1]
    assert fixed == ["step", *(f"q{i}" for i in range(nq)), *(f"v{i}" for i in range(nv)),
                     "residual", "n_contacts"]
    assert per_contact.split(": ")[1].split(",") == [
        "pair_a", "pair_b", "feature", "mode", "phi", "lam_t1", "lam_t2", "lam_n"]
    for t, row in enumerate(rows, start=1):
        res = results[t - 1]
        n = len(res.contacts)
        assert len(row) == len(fixed) + 8 * n
        named = dict(zip(fixed, row))
        assert (named["step"], named["residual"], named["n_contacts"]) == (
            t, res.solution.residual, n)
        assert [named[f"q{i}"] for i in range(nq)] == res.state.q.tolist()
        assert [named[f"v{i}"] for i in range(nv)] == res.state.v.tolist()
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


@pytest.mark.parametrize("mu_pair", [-1, 99, True, False, 1.0, np.int64(4), np.int64(-1)])
def test_rollout_jacobian_rejects_bad_mu_pair_before_rolling_out(monkeypatch, mu_pair):
    """chain12 has four friction pairs, so True would index pair 1 if bools
    counted as integers."""
    def no_rollout(*args, **kwargs):
        raise AssertionError("rolled out before validating mu_pair")

    monkeypatch.setattr(simulator, "rollout", no_rollout)
    model, state, params = load_scene("chain12")
    with pytest.raises(ValueError, match="mu_pair"):
        rollout_jacobian(model, state, None, horizon=2, params=params, theta="mu",
                         mu_pair=mu_pair)


def test_rollout_jacobian_accepts_numpy_mu_pair():
    model, state, params = load_scene("chain12")
    ref = rollout_jacobian(model, state, None, horizon=2, params=params, theta="mu", mu_pair=1)
    got = rollout_jacobian(model, state, None, horizon=2, params=params, theta="mu",
                           mu_pair=np.int64(1))
    assert np.array_equal(got[1], ref[1]) and np.array_equal(got[2], ref[2])


def test_rollout_rejects_short_torque_sequence_before_stepping(count_steps):
    """A 2-D torque sequence with fewer rows than the horizon fails before
    the first step rather than partway through the rollout."""
    model = sphere_model()
    state = SimState(np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0]), np.zeros(6))
    for run in (rollout, rollout_jacobian):
        with pytest.raises(ValueError, match="fewer than horizon"):
            run(model, state, np.zeros((3, model.nv)), 5)
        assert len(count_steps) == 0


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


def _assert_same_contacts(got, want):
    assert len(got) == len(want)
    for name, value in vars(want).items():
        assert np.array_equal(getattr(got, name), value), name
    assert got.keys() == want.keys()


def test_contacts_and_packs_batched_by_kind_equal_the_per_pair_oracle():
    """On pairs that interleave the three kinds, with a pair out of margin
    between two in contact, the kind-batched contact sets, frame Jacobians
    and frame derivatives are bit for bit the per-pair ones, in pair-major
    order."""
    model = mixed_kind_model()
    assert [k.pairs.tolist() for k in model.pair_table.kinds] == [[0, 3, 4], [1], [2]]
    params = tight_params()
    gen = np.random.default_rng(23)
    for _ in range(10):
        state = mixed_kind_state(model, gen)
        res = step(model, state, gen.normal(size=model.nv), params)
        cs = res.contacts
        runs = [tuple(p) for i, p in enumerate(cs.pair.tolist())
                if i == 0 or p != cs.pair[i - 1].tolist()]
        assert runs == [(0, 5), (1, 5), (3, 2), (2, 5)]
        kin = res.dyn.kin
        _assert_same_contacts(cs, detect_contacts_per_pair(model, kin, params.contact_margin))
        _assert_same_contacts(detect_contacts(model, kin, np.inf),
                              detect_contacts_per_pair(model, kin, np.inf))
        packs = derivatives._contact_packs(model, res)
        want = contact_packs_per_pair(model, res.dyn, cs)
        for name in ("Xc_inv", "Jc6", "dM", "dphi_dq"):
            assert np.array_equal(getattr(packs, name), getattr(want, name)), name
        assert np.array_equal(res.J_c, want.Jc6[:, 3:].reshape(-1, model.nv))


def test_packs_skip_a_kind_with_no_contact(monkeypatch):
    """With the box of mixed_kind_model (a kind of its own) lifted out of
    margin, the packs differentiate the two other kinds alone, still bit for
    bit the per-pair ones."""
    model, params = mixed_kind_model(), tight_params()
    calls = []

    def counting(*args, _fn=collision.frame_derivative, **kwargs):
        calls.append(len(args[4]))
        return _fn(*args, **kwargs)

    monkeypatch.setattr(collision, "frame_derivative", counting)
    gen = np.random.default_rng(29)
    for _ in range(3):
        state = mixed_kind_state(model, gen)
        state.q[9] += 0.5
        res = step(model, state, gen.normal(size=model.nv), params)
        assert 1 not in res.contacts.pair[:, 0]
        calls.clear()
        packs = derivatives._contact_packs(model, res)
        assert len(calls) == 2 and sum(calls) == len(res.contacts)
        want = contact_packs_per_pair(model, res.dyn, res.contacts)
        for name in ("dM", "dphi_dq"):
            assert np.array_equal(getattr(packs, name), getattr(want, name)), name


def test_chain12_step_runs_one_narrow_phase_and_one_frame_from_normal(monkeypatch):
    """chain12's four feet are four pairs of one kind: a step runs the narrow
    phase once over all four and builds their frames in one call."""
    model, state, params = load_scene("chain12")
    calls = {"narrow_phase": 0, "frame_from_normal": 0}
    for module, name in ((simulator, "narrow_phase"), (collision, "frame_from_normal")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    res = step(model, state, None, params)
    assert len(model.pairs) == len(res.contacts) == 4
    assert calls == {"narrow_phase": 1, "frame_from_normal": 1}
