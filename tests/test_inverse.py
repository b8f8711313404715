"""Gauss-Newton machinery and the two estimation front ends: initial
conditions through full rollouts and actuation torques through one step."""
import numpy as np
import pytest

from conftest import (
    chain_model,
    cube_model,
    cube_state,
    fixed_chain_no_contact,
    sphere_model,
    tight_params,
)
from diffcontact.cli import load_scene
from diffcontact.dynamics import compute_dynamics
from diffcontact.fd import fd_rollout_jacobian
from diffcontact.inverse import (
    GnSettings,
    GnTrace,
    estimate_initial_conditions,
    gauss_newton,
    inverse_dynamics_contact,
)
from diffcontact.model import compute_kinematics, difference
from diffcontact.simulator import SimState, rollout, step


def test_settings_validation():
    for kwargs in (
        dict(max_iters=0),
        dict(residual_tol=0.0),
        dict(damping=-1e-8),
        dict(step_tol=0.0),
        dict(max_iters=2.5),
        dict(residual_tol=float("nan")),
        dict(damping=float("nan")),
        dict(step_tol=float("nan")),
    ):
        with pytest.raises(ValueError):
            GnSettings(**kwargs)


def test_linear_least_squares_converges_in_few_iterations():
    gen = np.random.default_rng(21)
    A = gen.normal(size=(8, 4))
    b = gen.normal(size=8)

    def residual(theta):
        return A @ theta - b, A

    # near-zero damping: one exact normal-equations step, one to notice
    theta, trace = gauss_newton(residual, np.zeros(4), GnSettings(damping=1e-13))
    expected = np.linalg.lstsq(A, b, rcond=None)[0]
    np.testing.assert_allclose(theta, expected, atol=1e-7)
    assert trace.converged
    assert trace.iterations <= 3


def test_objective_non_increasing_over_accepted_steps():
    """The recorded objective is the cost at the accepted iterate, so the
    trace must be monotone even when trial steps get rejected."""

    def residual(theta):
        x, y = theta
        r = np.array([10.0 * (y - x**2), 1.0 - x])
        J = np.array([[-20.0 * x, 10.0], [-1.0, 0.0]])
        return r, J

    theta, trace = gauss_newton(
        residual, np.array([-1.2, 1.0]), GnSettings(max_iters=200)
    )
    assert trace.converged
    np.testing.assert_allclose(theta, [1.0, 1.0], atol=1e-6)
    obj = trace.objective
    assert all(b <= a + 1e-15 for a, b in zip(obj, obj[1:]))


def test_stall_flag_after_consecutive_rejections():
    """A residual that never improves trips the stall guard, not an
    endless loop; the reported iterate stays at the start."""

    def residual(theta):
        return np.array([1.0]), np.array([[1.0]])  # gradient lies uphill

    theta, trace = gauss_newton(residual, np.array([0.0]))
    assert trace.stalled
    assert not trace.converged
    assert theta[0] == 0.0
    assert sum(not a for a in trace.accepted) >= 10


def test_trace_rows_shape():
    def residual(theta):
        return theta - 1.0, np.eye(2)

    _, trace = gauss_newton(residual, np.zeros(2))
    head, body = trace.rows()
    assert head == ["iteration", "objective", "grad_norm", "step_norm",
                    "damping", "accepted"]
    assert len(body) == trace.iterations
    assert all(len(row) == len(head) for row in body)
    assert [row[0] for row in body] == list(range(trace.iterations))


def test_inverse_dynamics_without_contact_is_two_iterations():
    """No contact makes the one-step residual affine in tau, so Gauss-Newton
    lands on tau* = bias + M (v* - v)/dt immediately."""
    model = fixed_chain_no_contact(2)
    params = tight_params()
    state = SimState(np.array([0.3, -0.5]), np.array([0.4, 0.1]))
    v_target = np.array([0.1, -0.2])

    tau, trace = inverse_dynamics_contact(model, state, v_target, params,
                                          settings=GnSettings(damping=1e-14))
    assert trace.converged
    assert trace.iterations <= 2

    kin = compute_kinematics(model, state.q)
    dyn = compute_dynamics(model, kin, state.v)
    expected = dyn.bias + dyn.M @ (v_target - state.v) / params.dt
    np.testing.assert_allclose(tau, expected, atol=1e-8)
    res = step(model, state, tau, params)
    np.testing.assert_allclose(res.state.v, v_target, atol=1e-9)


def test_inverse_dynamics_holds_chain_against_gravity_through_contact():
    """Exact-touch foot: find torques that keep the chain at rest for one
    step while the unilateral contact supplies whatever normal force the
    cone admits."""
    model = chain_model(3, base_height=0.1)  # foot exactly on the ground
    params = tight_params(ncp_tol=1e-14)
    state = SimState(np.zeros(3), np.zeros(3))
    v_target = np.zeros(3)
    tau, trace = inverse_dynamics_contact(model, state, v_target, params)
    assert trace.converged
    res = step(model, state, tau, params)
    assert res.contacts
    assert np.linalg.norm(res.state.v - v_target) <= 1e-5


def test_recover_initial_velocity_free_flight():
    model = sphere_model()
    params = tight_params()
    v_true = np.array([0.2, -0.1, 0.3, 0.5, 0.4, 1.2])
    q0 = np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0])
    target_q = rollout(model, SimState(q0, v_true.copy()), horizon=5,
                       params=params)[-1].state.q

    guess = SimState(q0, np.zeros(6))
    theta, trace = estimate_initial_conditions(model, guess, target_q, horizon=5,
                                               params=params)
    assert trace.converged
    np.testing.assert_allclose(theta, v_true, atol=1e-6)
    assert trace.objective[-1] < 1e-14


def test_recover_initial_velocity_through_sliding_contact():
    """Friction destroys information, but the reached final state must
    still match the target after optimization."""
    model = cube_model(mu=0.4)
    params = tight_params(ncp_tol=1e-14)
    v_true = np.array([0.0, 0.0, 0.0, 0.8, 0.1, 0.0])
    state_true = cube_state(model, z=0.1, v=v_true.copy())
    target_q = rollout(model, state_true, horizon=8, params=params)[-1].state.q

    guess = cube_state(model, z=0.1, v=[0, 0, 0, 0.5, 0, 0])
    theta, trace = estimate_initial_conditions(model, guess, target_q, horizon=8,
                                               params=params)
    reached = rollout(model, SimState(guess.q.copy(), theta), horizon=8,
                      params=params)[-1].state.q
    err = np.linalg.norm(difference(model, target_q, reached))
    assert err <= 1e-6
    assert trace.objective[-1] <= trace.objective[0]


def test_recover_initial_impulse():
    model = fixed_chain_no_contact(2)
    params = tight_params()
    q0 = np.array([0.2, -0.1])
    impulse_true = np.array([0.03, -0.02])
    taus = np.zeros((4, 2))
    taus[0] = impulse_true / params.dt
    target_q = rollout(model, SimState(q0, np.zeros(2)), taus, horizon=4,
                       params=params)[-1].state.q

    theta, trace = estimate_initial_conditions(
        model, SimState(q0, np.zeros(2)), target_q, horizon=4, params=params,
        theta_kind="tau0",
    )
    assert trace.converged
    np.testing.assert_allclose(theta, impulse_true, atol=1e-7)


def test_tau0_reads_the_first_horizon_rows_of_a_longer_sequence():
    """A torque sequence longer than the horizon acts as its first horizon
    rows, as in rollout, for the FD rollout Jacobian and the estimate."""
    model, state, params = load_scene("cube_slide")
    taus = 0.05 * np.random.default_rng(3).normal(size=(4, 6))
    target_q = rollout(model, state, taus, horizon=3, params=params)[-1].state.q
    target_q[:3] += 1e-3
    long, short = (estimate_initial_conditions(model, state, target_q, 3, params, "tau0",
                                               GnSettings(max_iters=2), tau_seq=seq)
                   for seq in (taus, taus[:3]))
    assert np.array_equal(long[0], short[0])
    assert long[1].objective == short[1].objective
    long, short = (fd_rollout_jacobian(model, state, seq, 3, params, theta="tau0")
                   for seq in (taus, taus[:3]))
    assert all(np.array_equal(a, b) for a, b in zip(long, short))


def test_fd_jacobian_variant_agrees():
    model = sphere_model()
    params = tight_params()
    q0 = np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0])
    v_true = np.array([0.0, 0.0, 0.0, 0.3, -0.2, 0.6])
    target_q = rollout(model, SimState(q0, v_true.copy()), horizon=4,
                       params=params)[-1].state.q
    guess = SimState(q0, np.zeros(6))
    t_an, _ = estimate_initial_conditions(model, guess, target_q, horizon=4,
                                          params=params, jacobian="analytic")
    t_fd, _ = estimate_initial_conditions(model, guess, target_q, horizon=4,
                                          params=params, jacobian="fd")
    np.testing.assert_allclose(t_an, t_fd, atol=1e-6)
    np.testing.assert_allclose(t_an, v_true, atol=1e-6)


def test_estimate_rejects_unknown_theta_kind():
    model = sphere_model()
    state = SimState(np.array([0, 0, 1.0, 0, 0, 0, 1.0]), np.zeros(6))
    with pytest.raises(ValueError):
        estimate_initial_conditions(model, state, state.q, horizon=1,
                                    theta_kind="mu")
