"""The finite-difference oracle itself: perturbations stay on the
configuration manifold, call counts are predictable, and impulse columns
stay aligned across perturbations."""
import numpy as np
import pytest

from conftest import cube_model, cube_state, sphere_model, tight_params
from diffcontact.cli import load_scene
from diffcontact.derivatives import step_jacobian
from diffcontact.fd import (
    fd_rollout_jacobian,
    fd_step_jacobian,
    perturb_state,
    with_pair_mu,
)
from diffcontact.model import difference
from diffcontact.simulator import SimState, rollout_jacobian, step


def test_perturb_state_keeps_unit_quaternion():
    model = sphere_model()
    q = np.array([0.1, -0.2, 0.5, 0.3, -0.1, 0.4, np.sqrt(1 - 0.26)])
    state = SimState(q, np.zeros(6))
    for k in range(6):
        for sign in (1.0, -1.0):
            p = perturb_state(model, state, "q", k, sign * 1e-4)
            assert abs(np.linalg.norm(p.q[3:7]) - 1.0) < 1e-12
            # displacement read back in the tangent equals the perturbation
            d = difference(model, q, p.q)
            expect = np.zeros(6)
            expect[k] = sign * 1e-4
            np.testing.assert_allclose(d, expect, atol=1e-12)
            assert p.v is not state.v  # defensive copies


def test_perturb_state_velocity_and_bad_theta():
    model = sphere_model()
    state = SimState(np.array([0, 0, 1.0, 0, 0, 0, 1.0]), np.zeros(6))
    p = perturb_state(model, state, "v", 2, 1e-3)
    assert p.v[2] == 1e-3 and np.all(p.q == state.q)
    with pytest.raises(ValueError):
        perturb_state(model, state, "tau", 0, 1e-3)


def test_with_pair_mu_does_not_mutate_original():
    model = cube_model(mu=0.7)
    bumped = with_pair_mu(model, 0, 0.9)
    assert model.pairs[0].mu == 0.7
    assert bumped.pairs[0].mu == 0.9
    assert bumped.nv == model.nv and len(bumped.geometries) == len(model.geometries)


def test_step_call_count_with_and_without_base(count_steps):
    model = cube_model(mu=0.5)
    params = tight_params()
    state = cube_state(model, z=0.1, v=[0, 0, 0, 0.4, 0, 0])
    base = step(model, state, None, params)

    count_steps.clear()
    fd_step_jacobian(model, state, None, params, theta="all", base=base)
    assert len(count_steps) == 2 * 3 * model.nv  # 36: no base re-solve

    count_steps.clear()
    fd_step_jacobian(model, state, None, params, theta="all")
    assert len(count_steps) == 2 * 3 * model.nv + 1

    count_steps.clear()
    fd_step_jacobian(model, state, None, params, theta="v", base=base)
    assert len(count_steps) == 2 * model.nv

    count_steps.clear()
    step_jacobian(model, state, None, params, base, theta="all")
    assert len(count_steps) == 0  # the analytic Jacobian reuses the step


def test_fd_blocks_shapes_and_mu_column():
    model = cube_model(mu=0.5)
    params = tight_params()
    state = cube_state(model, z=0.1, v=[0, 0, 0, 0.4, 0, 0])
    base = step(model, state, None, params)
    n = len(base.contacts)

    fd = fd_step_jacobian(model, state, None, params, theta="all", base=base)
    for t in ("q", "v", "tau"):
        assert fd.dv[t].shape == (6, 6)
        assert fd.dq[t].shape == (6, 6)
        assert fd.dlam[t].shape == (3 * n, 6)

    fm = fd_step_jacobian(model, state, None, params, theta=("mu", 0), base=base)
    assert set(fm.dv) == {"mu"}
    assert fm.dv["mu"].shape == (6, 1)
    assert fm.dlam["mu"].shape == (3 * n, 1)


def test_fd_mu_block_has_one_column_per_pair():
    """theta takes the step_jacobian forms: "mu" gives one column per
    friction pair, ("mu", k) column k, and an out-of-range k is rejected."""
    model, state, params = load_scene("chain12")
    npairs = len(model.pairs)
    assert npairs > 1
    base = step(model, state, None, params)
    fm = fd_step_jacobian(model, state, None, params, theta="mu", base=base)
    jac = step_jacobian(model, state, None, params, base, theta="mu")
    for blk in ("dv", "dq", "dlam"):
        assert getattr(fm, blk)["mu"].shape == getattr(jac, blk)["mu"].shape
    assert fm.dv["mu"].shape == (model.nv, npairs)
    last = fd_step_jacobian(model, state, None, params, theta=("mu", npairs - 1), base=base)
    assert np.array_equal(last.dv["mu"][:, 0], fm.dv["mu"][:, -1])
    with pytest.raises(ValueError):
        fd_step_jacobian(model, state, None, params, theta=("mu", npairs), base=base)


def test_impulse_columns_aligned_by_feature():
    """A sliding cube's four corner impulses change with the perturbation,
    but each dlam row must track one (pair, feature) across all columns:
    rows come out in base-contact order, absent contacts as zeros."""
    model = cube_model(mu=0.4)
    params = tight_params()
    state = cube_state(model, z=0.1, v=[0, 0, 0, 0.6, 0, 0])
    base = step(model, state, None, params)
    assert len(base.contacts) == 4
    fd = fd_step_jacobian(model, state, None, params, theta="v", base=base)
    # pushing the cube down (column 5 = linear z) loads every corner, and
    # momentum balance fixes the patch total: d(sum lam_N)/dv_z = -mass
    col = fd.dlam["v"][:, 5]
    normal_rows = col[2::3]
    assert np.all(normal_rows < 0.0)
    np.testing.assert_allclose(normal_rows.sum(), -1.0, atol=1e-6)


def test_fd_rollout_shapes_and_free_flight_value():
    model = sphere_model()
    params = tight_params()
    state = SimState(np.array([0, 0, 2.0, 0, 0, 0, 1.0]), np.zeros(6))
    dq, dv = fd_rollout_jacobian(model, state, horizon=3, params=params, theta="v0")
    assert dq.shape == (6, 6) and dv.shape == (6, 6)
    # free flight, block-wise: omega is a constant of motion and body-frame
    # linear velocity ignores linear perturbations; the angular-to-linear
    # block is the small gravity reorientation effect, not zero
    np.testing.assert_allclose(dv[:3, :3], np.eye(3), atol=1e-9)
    np.testing.assert_allclose(dv[3:, 3:], np.eye(3), atol=1e-9)
    np.testing.assert_allclose(dv[:3, 3:], 0.0, atol=1e-9)
    np.testing.assert_allclose(dq[3:, 3:], 3 * params.dt * np.eye(3), atol=1e-9)

    dqm, dvm = fd_rollout_jacobian(model, state, horizon=3, params=params, theta="mu")
    assert dqm.shape == (6, 1) and dvm.shape == (6, 1)
    np.testing.assert_allclose(dqm, 0.0, atol=1e-12)  # no contact, mu inert

    with pytest.raises(ValueError):
        fd_rollout_jacobian(model, state, horizon=1, params=params, theta="x")


@pytest.mark.parametrize("kwargs", [dict(theta="mu", mu_pair=-1),
                                    dict(theta="mu", mu_pair=99), dict(theta="x")])
def test_fd_rollout_validates_theta_before_any_rollout(monkeypatch, kwargs):
    """A bad theta or mu_pair raises rollout_jacobian's ValueError before a
    single step is taken."""
    model, state, params = load_scene("cube_slide")
    with pytest.raises(ValueError) as expected:
        rollout_jacobian(model, state, None, horizon=2, params=params, **kwargs)

    def no_rollout(*args, **kw):
        raise AssertionError("rolled out before validating theta")

    monkeypatch.setattr("diffcontact.fd.rollout", no_rollout)
    with pytest.raises(ValueError) as got:
        fd_rollout_jacobian(model, state, horizon=2, params=params, **kwargs)
    assert str(got.value) == str(expected.value)


def test_fd_rollout_tau0_scaling():
    """theta='tau0' measures sensitivity to an initial generalized impulse:
    tau perturbation eps/dt for one step equals impulse eps."""
    model = sphere_model()
    params = tight_params()
    state = SimState(np.array([0, 0, 2.0, 0, 0, 0, 1.0]), np.zeros(6))
    dq, dv = fd_rollout_jacobian(model, state, horizon=2, params=params, theta="tau0")
    # impulse -> velocity via M^-1; linear block is (1/m) I, m = 1
    np.testing.assert_allclose(dv[3:, 3:], np.eye(3), atol=1e-7)
    np.testing.assert_allclose(dq[3:, 3:], 2 * params.dt * np.eye(3), atol=1e-9)
