"""Rigid-body dynamics on the world-frame spatial quantities.

Mass matrix, bias, inverse dynamics and their analytic state derivatives
are dense sums over body spatial Jacobians J_i = psi masked to the
kinematic path. Gravity enters as the constant world offset (0, -g) added
to every body acceleration, which reproduces the gravity wrench exactly.

Layout: nothing loops over bodies. Per-body terms are stacked on a leading
body axis: J is (nb, 6, nv), twists and wrenches are (nb, 6), inertias are
(nb, 6, 6). The model's masks carry the tree: support[k, i] marks the
tangent columns on body i's path, and the ancestor mask anc[i, j] marks
the bodies j on that path, so anc @ X sums a per-body increment X from
the root down to every body (the body twists are V = anc @ W for the joint
twists W). A sum over bodies of J_i^T X_i is one product of the (nv, 6 nb)
stacked Jacobian rows with the stacked X. The body terms come from
model._body_terms (its twists from model._body_twists, which
model.jv_q_derivatives reads too), so the velocity recursion exists once.

The derivatives apply every cross product as an operator: a twist b gives
the stacked ad(b) (motion_cross) and a wrench y the stacked P(y)
(p_operator), both (nb, 6, 6). The columnwise products of a column stack
A (nb, 6, nv), A_k x b and A_k x* y, are then -ad(b) A and -P(y) A, one
batched product each. The forward terms (Xi and the body wrenches) keep
the component-wise cross helpers on single columns, so a step does not
depend on this form.

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
    _body_terms,
    _body_twists,
    _jv_q,
    _parent_rows,
)
from .spatial import (
    force_cross_cols,
    motion_cross,
    motion_cross_cols,  # noqa: F401  unused; the benchmark tracer patches this name
    p_operator,
    skew,
)


def spatial_inertias_world(model: KinematicModel, kin: Kinematics) -> np.ndarray:
    """World-frame spatial inertia of every body, (nb, 6, 6): X^-T I_loc X^-1."""
    Rt = np.swapaxes(kin.body_rotations, 1, 2)
    Xinv = np.zeros((model.nb, 6, 6))
    Xinv[:, :3, :3] = Xinv[:, 3:, 3:] = Rt
    Xinv[:, 3:, :3] = -Rt @ skew(kin.body_translations)
    return np.swapaxes(Xinv, 1, 2) @ model._inertia_local @ Xinv


def _gravity_offset(model: KinematicModel) -> np.ndarray:
    return np.concatenate([np.zeros(3), -model.gravity])


def _rows(X: np.ndarray) -> np.ndarray:
    """Stack (nb, 6, n) -> (6 nb, n), so that J_rows.T @ X_rows sums
    J_i^T X_i over bodies."""
    return X.reshape(-1, X.shape[-1])


def _times(Iw, x):
    """I_i x_i for every body: (nb, 6, 6) by (nb, 6)."""
    return (Iw @ x[:, :, None])[:, :, 0]


def _body_wrenches(Iw, V, acc):
    """Net wrench I_i acc_i + V_i x* (I_i V_i) of every body, (nb, 6)."""
    return _times(Iw, acc) + force_cross_cols(V[:, :, None], _times(Iw, V))[:, :, 0]


@dataclass
class DynamicsData:
    """Per-step dense dynamics workspace: factorized mass matrix and bias,
    and the stacked body terms of model._body_terms at (kin, v) that built
    them, which id_state_derivatives reuses."""

    kin: Kinematics
    inertias_world: np.ndarray
    M: np.ndarray
    bias: np.ndarray
    _chol: tuple
    J: np.ndarray      # (nb, 6, nv) body Jacobians
    V: np.ndarray      # (nb, 6) body twists
    Vp: np.ndarray     # (nb, 6) parent twists, zero at a root
    Xi: np.ndarray     # (nb, 6) velocity-product accelerations

    def solve(self, X: np.ndarray) -> np.ndarray:
        """M^-1 X via the cached Cholesky factor."""
        return cho_solve(self._chol, X)


def compute_dynamics(model: KinematicModel, kin: Kinematics, v: np.ndarray) -> DynamicsData:
    """M = sum_i J_i^T I_i J_i and the bias b (inverse dynamics at a = 0),
    each one product over the stacked body rows."""
    Iw = spatial_inertias_world(model, kin)
    J, _, V, Vp, Xi = _body_terms(model, kin, v)
    Jt = _rows(J).T
    M = Jt @ _rows(Iw @ J)
    b = Jt @ _body_wrenches(Iw, V, Xi + _gravity_offset(model)).ravel()
    return DynamicsData(kin, Iw, M, b, cho_factor(M, lower=True), J, V, Vp, Xi)


def id_state_derivatives(model: KinematicModel, dyn: DynamicsData, a, wrenches=0.0):
    """Analytic partials of the inverse dynamics tau = M(q) a + b(q, v)
    w.r.t. the tangent of q and w.r.t. v, at fixed a, at the state
    (dyn.kin, v) that compute_dynamics built dyn for; its inertias and body
    terms are reused.

    Returns (dID_q, dID_v, dJv, dJa), the last two the (nb, 6, nv) partials
    d(J_i v)/dq and d(J_i a)/dq that the q partial is built from (see
    jv_q_derivatives). `wrenches` are extra constant world wrenches (nb, 6)
    added to the body wrenches before the one applied_wrench_q_derivative
    product, so dID_q also carries d(sum_b J_b^T wrenches_b)/dq.

    Every body term is built from the world axes psi; perturbing tangent
    column k transports psi_j, the body velocity twists and the world
    inertias by the twist field psi_k on the subtree, which gives closed
    forms. Each body's increment is stacked, the path sums are anc
    products, and every cross product with a column stack is one ad or P
    operator product."""
    nb, nv = model.nb, model.nv
    kin, Iw = dyn.kin, dyn.inertias_world
    J, V, Vp, Xi = dyn.J, dyn.V, dyn.Vp, dyn.Xi
    dJv = _jv_q(model, kin, V, Vp)
    _, A, Ap = _body_twists(model, kin, a)
    dJa = _jv_q(model, kin, A, Ap)
    adV, adVp = motion_cross(V), motion_cross(Vp)

    def dXi_along(dV):
        """Derivative of Xi = anc @ (Vp x W), given the body-twist derivative
        dV (nb, 6, nv): dVp x W + Vp x (dV - dVp) = ad(Vp) dV - ad(V) dVp,
        as W = V - Vp."""
        inc = adVp @ dV - adV @ _parent_rows(model, dV)
        return (model.anc @ inc.reshape(nb, -1)).reshape(nb, 6, nv)

    dXi, Xi_v = dXi_along(dJv), dXi_along(J)
    h = _times(Iw, V)
    ahat = A + Xi + _gravity_offset(model)
    Fv = -np.swapaxes(adV, 1, 2)  # V x* = -ad_V^T

    def dI(x):
        """Operator taking J to the variation of I_i x_i at fixed x_i."""
        return Iw @ motion_cross(x) - p_operator(_times(Iw, x))

    K = Fv @ Iw - p_operator(h)  # variation of V x* (I V) along dV
    df = (dI(ahat) + Fv @ dI(V)) @ J + Iw @ (dJa + dXi) + K @ dJv
    f = _body_wrenches(Iw, V, ahat) + wrenches
    Jt = _rows(J).T
    dID_q = Jt @ _rows(df) + applied_wrench_q_derivative(model, dyn, f)
    return dID_q, Jt @ _rows(Iw @ Xi_v + K @ J), dJv, dJa


def applied_wrench_q_derivative(model: KinematicModel, dyn: DynamicsData, wrenches) -> np.ndarray:
    """d/dq of sum_b J_b^T phi_b for constant world wrenches phi_b (nb, 6), on dyn.J."""
    return (_rows(dyn.J).T @ _rows(p_operator(wrenches) @ dyn.kin.psi)) * model.row_support
