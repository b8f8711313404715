"""Rigid-body dynamics on the world-frame spatial quantities.

Mass matrix, bias, inverse dynamics and their analytic state derivatives
are dense recursions over body spatial Jacobians J_i = psi masked to the
kinematic path. Gravity enters as the constant world offset (0, -g) added
to every body acceleration, which reproduces the gravity wrench exactly.

Sign conventions: M(q) vdot + b(q, v) = tau + J_c^T lambda, with lambda in
force units here (the simulator converts impulses).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .model import (
    KinematicModel,
    Kinematics,
    compute_kinematics,
    jv_q_derivatives,
)
from .spatial import (
    force_cross,
    force_cross_cols,
    motion_cross,
    motion_cross_cols,
    p_operator,
    skew,
)


def spatial_inertia_local(mass: float, com: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """6x6 body-frame spatial inertia in (angular, linear) layout."""
    C = skew(com)
    I = np.zeros((6, 6))
    I[:3, :3] = inertia - mass * C @ C
    I[:3, 3:] = mass * C
    I[3:, :3] = -mass * C
    I[3:, 3:] = mass * np.eye(3)
    return I


def spatial_inertias_world(model: KinematicModel, kin: Kinematics) -> np.ndarray:
    """World-frame spatial inertia of every body: X^-T I_loc X^-1."""
    out = np.empty((model.nb, 6, 6))
    for i, ine in enumerate(model.inertias):
        I_loc = spatial_inertia_local(ine.mass, ine.com, ine.inertia)
        R, p = kin.body_rotations[i], kin.body_translations[i]
        Xinv = np.zeros((6, 6))
        Xinv[:3, :3] = R.T
        Xinv[3:, 3:] = R.T
        Xinv[3:, :3] = -R.T @ skew(p)
        out[i] = Xinv.T @ I_loc @ Xinv
    return out


def _gravity_offset(model: KinematicModel) -> np.ndarray:
    return np.concatenate([np.zeros(3), -model.gravity])


def _body_motion_terms(model: KinematicModel, kin: Kinematics, v, a=None):
    """Prefix sums of velocity/acceleration twists and the velocity-product
    acceleration xi_i = sum_{j<=i} V_parent(j) x (psi_j vj)."""
    nb = model.nb
    V = np.zeros((nb, 6))
    A = np.zeros((nb, 6))
    Xi = np.zeros((nb, 6))
    for i in range(nb):
        par = int(model.parents[i])
        vs = model.v_slice(i)
        v_par = V[par] if par >= 0 else np.zeros(6)
        w_i = kin.psi[:, vs] @ v[vs]
        V[i] = v_par + w_i
        Xi[i] = (Xi[par] if par >= 0 else 0.0) + np.concatenate(
            [np.cross(v_par[:3], w_i[:3]),
             np.cross(v_par[:3], w_i[3:]) + np.cross(v_par[3:], w_i[:3])]
        )
        if a is not None:
            A[i] = (A[par] if par >= 0 else 0.0) + kin.psi[:, vs] @ a[vs]
    return V, Xi, A


def mass_matrix(model: KinematicModel, q_or_kin) -> np.ndarray:
    kin = q_or_kin if isinstance(q_or_kin, Kinematics) else compute_kinematics(model, q_or_kin)
    Iw = spatial_inertias_world(model, kin)
    M = np.zeros((model.nv, model.nv))
    for i in range(model.nb):
        J = kin.psi * model.support[:, i]
        M += J.T @ Iw[i] @ J
    return M


def inverse_dynamics(model: KinematicModel, q, v, a) -> np.ndarray:
    """tau with M(q) a + b(q, v) = tau, gravity included."""
    kin = compute_kinematics(model, q)
    Iw = spatial_inertias_world(model, kin)
    V, Xi, A = _body_motion_terms(model, kin, v, a)
    gamma = _gravity_offset(model)
    tau = np.zeros(model.nv)
    for i in range(model.nb):
        J = kin.psi * model.support[:, i]
        f = Iw[i] @ (A[i] + Xi[i] + gamma) + force_cross(V[i]) @ (Iw[i] @ V[i])
        tau += J.T @ f
    return tau


def bias(model: KinematicModel, q, v) -> np.ndarray:
    """Coriolis, centrifugal and gravity generalized forces."""
    return inverse_dynamics(model, q, v, np.zeros(model.nv))


@dataclass
class DynamicsData:
    """Per-step dense dynamics workspace: factorized mass matrix and bias."""

    kin: Kinematics
    inertias_world: np.ndarray
    M: np.ndarray
    bias: np.ndarray
    _chol: tuple

    def solve(self, X: np.ndarray) -> np.ndarray:
        """M^-1 X via the cached Cholesky factor."""
        return cho_solve(self._chol, X)


def compute_dynamics(model: KinematicModel, kin: Kinematics, v: np.ndarray) -> DynamicsData:
    Iw = spatial_inertias_world(model, kin)
    V, Xi, _ = _body_motion_terms(model, kin, v)
    gamma = _gravity_offset(model)
    M = np.zeros((model.nv, model.nv))
    b = np.zeros(model.nv)
    for i in range(model.nb):
        J = kin.psi * model.support[:, i]
        JtI = J.T @ Iw[i]
        M += JtI @ J
        b += JtI @ (Xi[i] + gamma) + J.T @ (force_cross(V[i]) @ (Iw[i] @ V[i]))
    return DynamicsData(kin, Iw, M, b, cho_factor(M, lower=True))


def ufd(model: KinematicModel, q, v, tau, J_c=None, lam=None) -> np.ndarray:
    """Forward dynamics under given contact forces:
    vdot = M^-1 (tau + J_c^T lambda - b)."""
    kin = compute_kinematics(model, q)
    dyn = compute_dynamics(model, kin, v)
    rhs = tau - dyn.bias
    if J_c is not None and J_c.size:
        rhs = rhs + J_c.T @ lam
    return dyn.solve(rhs)


def id_state_derivatives(model: KinematicModel, kin: Kinematics, Iw, v, a):
    """Analytic partials of inverse_dynamics w.r.t. the tangent of q and
    w.r.t. v, at fixed a.

    Every body term is built from the world axes psi; perturbing tangent
    column k transports psi_j, the body velocity twists and the world
    inertias by the twist field psi_k on the subtree, which gives closed
    forms accumulated in one sweep. The body twists and their q-derivatives
    come from _body_motion_terms and jv_q_derivatives."""
    nb, nv = model.nb, model.nv
    psi = kin.psi
    gamma = _gravity_offset(model)
    row_support = model.row_support

    V, Xi, A = _body_motion_terms(model, kin, v, a)
    dJv, _ = jv_q_derivatives(model, kin, v)
    dJa, _ = jv_q_derivatives(model, kin, a)
    dID_q = np.zeros((nv, nv))
    dID_v = np.zeros((nv, nv))
    dXi = np.zeros((nb, 6, nv))
    Xi_v = np.zeros((nb, 6, nv))

    for i in range(nb):
        par = int(model.parents[i])
        vs = model.v_slice(i)
        P_i = psi * model.support[:, i]
        v_par = V[par] if par >= 0 else np.zeros(6)
        J_par = psi * model.support[:, par] if par >= 0 else np.zeros((6, nv))
        dJv_par = dJv[par] if par >= 0 else np.zeros((6, nv))
        w_i = psi[:, vs] @ v[vs]
        dXi[i] = (
            (dXi[par] if par >= 0 else 0.0)
            + motion_cross_cols(dJv_par, w_i)
            + motion_cross(v_par) @ (dJv[i] - dJv_par)
        )
        psi_cols = np.zeros((6, nv))
        psi_cols[:, vs] = psi[:, vs]
        Xi_v[i] = (
            (Xi_v[par] if par >= 0 else 0.0)
            - motion_cross(w_i) @ J_par
            + motion_cross(v_par) @ psi_cols
        )

        I_i = Iw[i]
        h_i = I_i @ V[i]
        ahat = A[i] + Xi[i] + gamma
        f_i = I_i @ ahat + force_cross(V[i]) @ h_i

        # delta I applied to a fixed motion x, columnwise over tangent k.
        def dIx(x):
            return force_cross_cols(P_i, I_i @ x) - I_i @ motion_cross_cols(P_i, x)

        df = (
            dIx(ahat)
            + I_i @ (dJa[i] + dXi[i])
            + force_cross_cols(dJv[i], h_i)
            + force_cross(V[i]) @ (dIx(V[i]) + I_i @ dJv[i])
        )
        dID_q += P_i.T @ df
        dID_q -= (P_i.T @ force_cross_cols(psi, f_i)) * row_support

        df_v = (
            I_i @ Xi_v[i]
            + force_cross(V[i]) @ (I_i @ P_i)
            - p_operator(h_i) @ P_i
        )
        dID_v += P_i.T @ df_v
    return dID_q, dID_v


def applied_wrench_q_derivative(model: KinematicModel, kin: Kinematics, wrenches) -> np.ndarray:
    """d/dq of sum_b J_b^T phi_b for constant world wrenches phi_b.

    `wrenches` is (nb, 6); bodies with zero wrench are skipped."""
    out = np.zeros((model.nv, model.nv))
    for b in range(model.nb):
        phi = wrenches[b]
        if not np.any(phi):
            continue
        P_b = kin.psi * model.support[:, b]
        out -= (P_b.T @ force_cross_cols(kin.psi, phi)) * model.row_support
    return out


def kinetic_energy(model: KinematicModel, q, v) -> float:
    kin = compute_kinematics(model, q)
    Iw = spatial_inertias_world(model, kin)
    V, _, _ = _body_motion_terms(model, kin, v)
    return float(0.5 * sum(V[i] @ Iw[i] @ V[i] for i in range(model.nb)))


def potential_energy(model: KinematicModel, q) -> float:
    kin = compute_kinematics(model, q)
    pe = 0.0
    for i, ine in enumerate(model.inertias):
        com_w = kin.body_rotations[i] @ ine.com + kin.body_translations[i]
        pe -= ine.mass * float(model.gravity @ com_w)
    return pe
