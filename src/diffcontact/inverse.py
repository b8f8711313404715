"""Gauss-Newton solvers for the two inverse problems: initial-condition
estimation over a rollout and inverse dynamics through contact.

Both minimize half a squared residual norm with damped normal equations
(Levenberg); the contact step supplies analytic residual Jacobians, with a
central-difference fallback for comparison runs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import KinematicModel, difference, difference_jacobian
from .simulator import SimParams, SimState, _tau_sequence, rollout, rollout_jacobian, step

_STALL_LIMIT = 10


@dataclass(frozen=True)
class GnSettings:
    max_iters: int = 100
    residual_tol: float = 1e-8
    damping: float = 1e-8
    step_tol: float = 1e-12

    def __post_init__(self):
        if min(self.max_iters, self.residual_tol, self.damping, self.step_tol) <= 0:
            raise ValueError("Gauss-Newton settings must be positive")


@dataclass
class GnTrace:
    objective: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    step_norm: list = field(default_factory=list)
    damping: list = field(default_factory=list)
    accepted: list = field(default_factory=list)
    converged: bool = False
    stalled: bool = False
    wall_time: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.objective)

    def rows(self):
        head = ["iteration", "objective", "grad_norm", "step_norm", "damping", "accepted"]
        body = [
            [i, self.objective[i], self.grad_norm[i], self.step_norm[i],
             self.damping[i], int(self.accepted[i])]
            for i in range(self.iterations)
        ]
        return head, body


def gauss_newton(residual_fn, theta0: np.ndarray, settings: GnSettings = GnSettings()):
    """Minimize 0.5 |r(theta)|^2. residual_fn(theta) -> (r, J).

    Damped normal equations (J^T J + damp I) delta = -J^T r; damping grows
    x10 on rejection, shrinks /10 on acceptance. Stops on small residual,
    small step, iteration budget, or 10 consecutive rejections (stall).
    """
    t0 = time.perf_counter()
    theta = np.asarray(theta0, dtype=float).copy()
    trace = GnTrace()
    r, J = residual_fn(theta)
    cost = 0.5 * float(r @ r)
    damp = settings.damping
    rejects = 0
    for _ in range(settings.max_iters):
        grad = J.T @ r
        trace.objective.append(cost)
        trace.grad_norm.append(float(np.linalg.norm(grad)))
        trace.damping.append(damp)
        if np.sqrt(2.0 * cost) <= settings.residual_tol:
            trace.step_norm.append(0.0)
            trace.accepted.append(True)
            trace.converged = True
            break
        H = J.T @ J + damp * np.eye(len(theta))
        delta = np.linalg.solve(H, -grad)
        step_norm = float(np.linalg.norm(delta))
        trace.step_norm.append(step_norm)
        if step_norm <= settings.step_tol:
            trace.accepted.append(True)
            trace.converged = True
            break
        r_new, J_new = residual_fn(theta + delta)
        cost_new = 0.5 * float(r_new @ r_new)
        if cost_new < cost:
            theta = theta + delta
            r, J, cost = r_new, J_new, cost_new
            damp = max(damp / 10.0, 1e-15)
            trace.accepted.append(True)
            rejects = 0
        else:
            damp *= 10.0
            trace.accepted.append(False)
            rejects += 1
            if rejects >= _STALL_LIMIT:
                trace.stalled = True
                break
    trace.wall_time = time.perf_counter() - t0
    return theta, trace


def estimate_initial_conditions(model: KinematicModel, state0: SimState, target_q: np.ndarray,
                                horizon: int, params: SimParams | None = None,
                                theta_kind: str = "v0", settings: GnSettings = GnSettings(),
                                jacobian: str = "analytic", fd_eps: float = 1e-6,
                                tau_seq=None):
    """Recover an initial velocity or initial generalized impulse so the
    rollout's final configuration matches target_q. Returns (theta, trace).

    Residual: tangent difference between target and reached configuration.
    jacobian='analytic' uses the chained step derivatives, 'fd' central
    differences over whole rollouts.
    """
    params = params or SimParams()
    if theta_kind not in ("v0", "tau0"):
        raise ValueError("theta_kind must be 'v0' or 'tau0'")

    def unpack(theta):
        if theta_kind == "v0":
            return SimState(state0.q.copy(), theta.copy()), tau_seq
        taus = _tau_sequence(tau_seq, horizon, model.nv)
        taus[0] += theta / params.dt
        return state0.copy(), taus

    def residual(theta):
        st, taus = unpack(theta)
        if jacobian == "analytic":
            results, Jq, _ = rollout_jacobian(model, st, taus, horizon, params, theta=theta_kind)
            q_T = results[-1].state.q
        else:
            results = rollout(model, st, taus, horizon, params)
            q_T = results[-1].state.q
            from .fd import fd_rollout_jacobian
            Jq, _ = fd_rollout_jacobian(model, st, taus, horizon, params,
                                        theta=theta_kind, eps=fd_eps)
        r = difference(model, target_q, q_T)
        J = difference_jacobian(model, target_q, q_T) @ Jq
        return r, J

    theta0 = state0.v.copy() if theta_kind == "v0" else np.zeros(model.nv)
    return gauss_newton(residual, theta0, settings)


def inverse_dynamics_contact(model: KinematicModel, state: SimState, v_target: np.ndarray,
                             params: SimParams | None = None,
                             settings: GnSettings = GnSettings()):
    """Actuation torques driving the contact step to v+ = v_target.
    Returns (tau_act, trace); tau_act has one entry per actuated dof."""
    params = params or SimParams()
    S = model.selection_matrix()
    from .derivatives import step_jacobian

    def residual(tau_act):
        tau = S.T @ tau_act
        res = step(model, state, tau, params)
        jac = step_jacobian(model, state, tau, params, res, theta="tau")
        return res.state.v - v_target, jac.dv["tau"] @ S.T

    return gauss_newton(residual, np.zeros(S.shape[0]), settings)
