"""Articulated dynamics: mass matrix, bias, inverse dynamics and their
state derivatives.

Oracles: single-rigid-body Newton-Euler closed forms, the chain-rule
Lagrangian identity on vector-space (fixed-base) charts, and tangent-space
central FD for the derivative routines.
"""
import numpy as np

from conftest import (
    chain_model,
    cube_model,
    fixed_chain_no_contact,
    fixed_joint_tree,
    sphere_model,
)
from diffcontact.cli import load_scene
from diffcontact.dynamics import (
    applied_wrench_q_derivative,
    compute_dynamics,
    id_state_derivatives,
    spatial_inertias_world,
)
from diffcontact.model import compute_kinematics, integrate
from diffcontact.spatial import skew, spatial_inertia_local
from oracles import body_jacobian_world, inverse_dynamics, kinetic_energy, potential_energy

rng = np.random.default_rng(23)


def random_config(model, gen, scale=0.8):
    return integrate(model, model.neutral_configuration(), gen.uniform(-scale, scale, model.nv))


def dynamics_at(model, q, v=None):
    """compute_dynamics at configuration q and velocity v (zero if None)."""
    v = np.zeros(model.nv) if v is None else v
    return compute_dynamics(model, compute_kinematics(model, q), v)


def mass_matrix(model, q):
    return dynamics_at(model, q).M


def bias(model, q, v):
    return dynamics_at(model, q, v).bias


def test_spatial_inertia_structure():
    mass, com = 2.0, np.array([0.1, -0.2, 0.05])
    I_com = np.diag([0.01, 0.02, 0.03])
    Iw = spatial_inertia_local(mass, com, I_com)
    np.testing.assert_allclose(Iw, Iw.T, atol=1e-14)
    # lower-right block is mass, off-diagonals the com skew couple
    np.testing.assert_allclose(Iw[3:, 3:], mass * np.eye(3), atol=0)
    np.testing.assert_allclose(Iw[:3, 3:], mass * skew(com), atol=0)
    # rotational block includes the parallel-axis term
    np.testing.assert_allclose(
        Iw[:3, :3], I_com + mass * skew(com) @ skew(com).T, atol=1e-14
    )
    assert np.all(np.linalg.eigvalsh(Iw) > 0)


def test_mass_matrix_spd():
    fourleg = load_scene("fourleg")[0]
    for m in (cube_model(), chain_model(4, foot_links=[3]), fourleg, fixed_joint_tree()):
        for _ in range(5):
            q = random_config(m, rng)
            M = mass_matrix(m, q)
            np.testing.assert_allclose(M, M.T, atol=1e-11)
            assert np.all(np.linalg.eigvalsh(M) > 0)
            # Reference: the per-body sum of J_i^T I_i J_i.
            kin = compute_kinematics(m, q)
            Iw = spatial_inertias_world(m, kin)
            Js = [body_jacobian_world(m, kin, i) for i in range(m.nb)]
            M_ref = sum(J.T @ I @ J for J, I in zip(Js, Iw))
            np.testing.assert_allclose(M, M_ref, rtol=0, atol=1e-12 * np.abs(M_ref).max())


def test_free_body_mass_matrix_closed_form():
    # single free body, com at origin: M = blockdiag(R I_c R^T-free...) in
    # body twist coordinates M is constant: diag(I_c, m I)
    m = sphere_model(mass=2.0, radius=0.1)
    q = random_config(m, rng)
    M = mass_matrix(m, q)
    np.testing.assert_allclose(M[:3, :3], np.diag([0.008, 0.008, 0.008]), atol=1e-12)
    np.testing.assert_allclose(M[3:, 3:], 2.0 * np.eye(3), atol=1e-12)
    np.testing.assert_allclose(M[:3, 3:], 0.0, atol=1e-12)


def test_kinetic_energy_quadratic_form():
    m = chain_model(3)
    q = random_config(m, rng)
    v = rng.uniform(-1, 1, m.nv)
    np.testing.assert_allclose(
        kinetic_energy(m, q, v), 0.5 * v @ mass_matrix(m, q) @ v, atol=1e-12
    )


def test_free_body_newton_euler_oracle():
    # one rigid body: inverse dynamics must equal the Newton-Euler wrench
    # in the body frame, gravity expressed in the body frame
    m = sphere_model(mass=1.5, radius=0.2)
    I_c = 0.4 * 1.5 * 0.2**2 * np.eye(3)
    q = random_config(m, rng)
    v = rng.uniform(-1, 1, 6)
    a = rng.uniform(-1, 1, 6)
    kin = compute_kinematics(m, q)
    R = kin.body_rotations[0]
    w, vel = v[:3], v[3:]
    g_body = R.T @ m.gravity
    torque = I_c @ a[:3] + np.cross(w, I_c @ w)
    # body-frame linear acceleration of the origin point: dv + w x v
    force = 1.5 * (a[3:] + np.cross(w, vel) - g_body)
    tau = inverse_dynamics(m, q, v, a)
    np.testing.assert_allclose(tau[:3], torque, atol=1e-10)
    np.testing.assert_allclose(tau[3:], force, atol=1e-10)


def test_bias_is_inverse_dynamics_at_zero_acceleration():
    m = chain_model(4, foot_links=[3])
    q = random_config(m, rng)
    v = rng.uniform(-1, 1, m.nv)
    np.testing.assert_allclose(
        bias(m, q, v), inverse_dynamics(m, q, v, np.zeros(m.nv)), atol=1e-12
    )


def test_inverse_dynamics_linear_in_acceleration():
    m = chain_model(3)
    q = random_config(m, rng)
    v = rng.uniform(-1, 1, m.nv)
    a = rng.uniform(-1, 1, m.nv)
    lhs = inverse_dynamics(m, q, v, a)
    rhs = mass_matrix(m, q) @ a + bias(m, q, v)
    np.testing.assert_allclose(lhs, rhs, atol=1e-11)


def test_lagrangian_identity_fixed_base():
    # on a vector-space chart: ID(q,v,a) = M a + dM/dt v - grad_q T + grad_q V
    m = fixed_chain_no_contact(3)
    q = rng.uniform(-1, 1, 3)
    v = rng.uniform(-1, 1, 3)
    a = rng.uniform(-1, 1, 3)
    eps = 1e-6

    def T(qq):
        return kinetic_energy(m, qq, v)

    def V(qq):
        return potential_energy(m, qq)

    dM_dt = np.zeros((3, 3))
    gradT = np.zeros(3)
    gradV = np.zeros(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = eps
        dM_dt += (mass_matrix(m, q + e) - mass_matrix(m, q - e)) / (2 * eps) * v[k]
        gradT[k] = (T(q + e) - T(q - e)) / (2 * eps)
        gradV[k] = (V(q + e) - V(q - e)) / (2 * eps)
    expected = mass_matrix(m, q) @ a + dM_dt @ v - gradT + gradV
    np.testing.assert_allclose(inverse_dynamics(m, q, v, a), expected, atol=1e-5)


def test_dynamics_data_solve():
    m = chain_model(4, foot_links=[3])
    q = random_config(m, rng)
    v = rng.uniform(-1, 1, m.nv)
    dyn = compute_dynamics(m, compute_kinematics(m, q), v)
    rhs = rng.uniform(-1, 1, (m.nv, 3))
    np.testing.assert_allclose(
        dyn.solve(rhs), np.linalg.solve(mass_matrix(m, q), rhs), atol=1e-10
    )
    np.testing.assert_allclose(dyn.bias, inverse_dynamics(m, q, v, np.zeros(m.nv)), atol=1e-12)


def test_dynamics_solve_is_forward_dynamics():
    m = chain_model(3)
    q = random_config(m, rng)
    v = rng.uniform(-1, 1, m.nv)
    tau = rng.uniform(-1, 1, m.nv)
    dyn = dynamics_at(m, q, v)
    a = dyn.solve(tau - dyn.bias)
    np.testing.assert_allclose(inverse_dynamics(m, q, v, a), tau, atol=1e-10)


def test_id_state_derivatives_match_fd():
    eps = 1e-6
    fourleg = load_scene("fourleg")[0]
    chain12 = chain_model(12, foot_links=[2, 5, 8, 11])  # long paths: the anc sums matter
    for m in (sphere_model(), chain_model(4, foot_links=[3]), fourleg, fixed_joint_tree(), chain12):
        q = random_config(m, rng)
        v = rng.uniform(-1, 1, m.nv)
        a = rng.uniform(-1, 1, m.nv)
        dID_q, dID_v = id_state_derivatives(m, dynamics_at(m, q, v), a)[:2]
        for k in range(m.nv):
            e = np.zeros(m.nv)
            e[k] = eps
            fd_q = (inverse_dynamics(m, integrate(m, q, e), v, a)
                    - inverse_dynamics(m, integrate(m, q, -e), v, a)) / (2 * eps)
            fd_v = (inverse_dynamics(m, q, v + e, a)
                    - inverse_dynamics(m, q, v - e, a)) / (2 * eps)
            np.testing.assert_allclose(dID_q[:, k], fd_q, atol=2e-5)
            np.testing.assert_allclose(dID_v[:, k], fd_v, atol=2e-5)


def test_applied_wrench_q_derivative_matches_fd():
    # generalized force of world-fixed wrenches phi_b on the bodies,
    # tau = sum_b J_b^T phi_b; its q-derivative at fixed phi. One loaded
    # tip of a chain, then every body of a free-base and a fixed-joint tree.
    eps = 1e-6
    tip = np.zeros((4, 6))
    tip[3] = rng.uniform(-1, 1, 6)
    cases = [(chain_model(4, foot_links=[3]), tip)] + [
        (m, rng.uniform(-1, 1, (m.nb, 6))) for m in (load_scene("fourleg")[0], fixed_joint_tree())
    ]
    for m, wrenches in cases:
        q = random_config(m, rng)
        D = applied_wrench_q_derivative(m, dynamics_at(m, q), wrenches)

        def tau(dq):
            kin = compute_kinematics(m, integrate(m, q, dq))
            return sum(body_jacobian_world(m, kin, b).T @ wrenches[b] for b in range(m.nb))

        for k in range(m.nv):
            e = np.zeros(m.nv)
            e[k] = eps
            np.testing.assert_allclose(D[:, k], (tau(e) - tau(-e)) / (2 * eps), atol=2e-5)


def test_potential_energy_gradient_is_gravity_force():
    # at v = 0 the bias is the gradient of potential energy
    m = fixed_chain_no_contact(3)
    q = rng.uniform(-1, 1, 3)
    eps = 1e-6
    grad = np.array([
        (potential_energy(m, q + e) - potential_energy(m, q - e)) / (2 * eps)
        for e in np.eye(3) * eps
    ])
    np.testing.assert_allclose(bias(m, q, np.zeros(3)), grad, atol=1e-6)
