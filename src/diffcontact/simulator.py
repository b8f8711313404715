"""Impulse-stepping simulator with exact cone-complementarity contact.

One step solves the frictional-contact NCP on the end-of-step contact
velocities sigma = G lambda + g (lambda in impulse units),

    K_mu  ni  lambda  perp  sigma + Gamma(sigma)  in  K_mu*,

then advances v+ = v_free + M^-1 J_c^T lambda and q+ = integrate(q, dt v+).
Penetration recovery adds phi/dt to the normal rows of g, optionally scaled
further by the kp gain when penetrating, and a kd damping term on all rows.
"""
from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from .collision import narrow_phase
from .contact import ContactProblem, ContactSolution, ModeThresholds, solve_ncp
from .dynamics import DynamicsData, compute_dynamics
from .model import KinematicModel, body_jacobian_world, compute_kinematics, integrate
from .spatial import adjoint_inverse

log = logging.getLogger("diffcontact")

_step_calls = 0


def step_call_count() -> int:
    return _step_calls


def reset_step_count() -> None:
    global _step_calls
    _step_calls = 0


@dataclass(frozen=True)
class SimParams:
    dt: float = 1e-3
    baumgarte_kp: float = 0.0
    baumgarte_kd: float = 0.0
    contact_margin: float = 1e-4
    ncp_tol: float = 1e-10
    ncp_max_iters: int = 10000
    thresholds: ModeThresholds = field(default_factory=ModeThresholds)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        for name in ("baumgarte_kp", "baumgarte_kd"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        if self.contact_margin <= 0.0:
            raise ValueError("contact_margin must be positive")
        if self.ncp_tol <= 0.0 or self.ncp_max_iters <= 0:
            raise ValueError("ncp_tol and ncp_max_iters must be positive")


@dataclass
class SimState:
    q: np.ndarray
    v: np.ndarray

    def copy(self) -> "SimState":
        return SimState(self.q.copy(), self.v.copy())


@dataclass
class StepResult:
    """Everything one step produced; enough to differentiate it."""

    state: SimState                 # post-step state
    contacts: list                  # active ContactFrames, pair-major order
    problem: ContactProblem | None
    solution: ContactSolution | None
    J_c: np.ndarray                 # (3n, nv) contact Jacobian at the input q
    v_free: np.ndarray              # unconstrained end-of-step velocity
    dyn: DynamicsData               # dynamics at the input state; dyn.kin is its kinematics

    def warm_start(self) -> dict:
        """Impulses keyed by (pair, feature) for the next step's solver."""
        if self.solution is None:
            return {}
        return {
            (f.pair, f.feature): self.solution.lam[3 * i : 3 * i + 3].copy()
            for i, f in enumerate(self.contacts)
        }


def detect_contacts(model: KinematicModel, kin, margin: float) -> list:
    """Narrow phase over the declared pairs; frames carry pair, bodies and
    friction so downstream code never re-resolves them."""
    contacts = []
    for fp in model.pairs:
        ga = model.geometries[fp.geom_a]
        gb = model.geometries[fp.geom_b]
        frames = narrow_phase(
            ga.shape, gb.shape, kin.geom_placements[fp.geom_a],
            kin.geom_placements[fp.geom_b], margin,
        )
        for f in frames:
            contacts.append(
                dataclasses.replace(
                    f, pair=(fp.geom_a, fp.geom_b), friction=fp.mu,
                    body1=ga.body, body2=gb.body,
                )
            )
    return contacts


def contact_jacobian(model: KinematicModel, kin, contacts) -> np.ndarray:
    """Stacked (3n, nv) map from joint velocities to contact-frame linear
    relative velocities (body 1 relative to body 2)."""
    J = np.zeros((3 * len(contacts), model.nv))
    for i, f in enumerate(contacts):
        J6 = body_jacobian_world(model, kin, f.body1) - body_jacobian_world(model, kin, f.body2)
        J[3 * i : 3 * i + 3] = (adjoint_inverse(f.placement) @ J6)[3:]
    return J


def step(model: KinematicModel, state: SimState, tau=None, params: SimParams | None = None,
         warm_start: dict | None = None) -> StepResult:
    """Advance one time step; exact contact solve, no force relaxation."""
    global _step_calls
    _step_calls += 1
    params = params or SimParams()
    tau = np.zeros(model.nv) if tau is None else np.asarray(tau, dtype=float)
    dt = params.dt

    kin = compute_kinematics(model, state.q)
    dyn = compute_dynamics(model, kin, state.v)
    v_free = state.v + dt * dyn.solve(tau - dyn.bias)

    contacts = detect_contacts(model, kin, params.contact_margin)
    if not contacts:
        q_next = integrate(model, state.q, dt * v_free)
        return StepResult(SimState(q_next, v_free), [], None, None,
                          np.zeros((0, model.nv)), v_free, dyn)

    J_c = contact_jacobian(model, kin, contacts)
    G = J_c @ dyn.solve(J_c.T)
    G = 0.5 * (G + G.T)
    g = J_c @ v_free
    for i, f in enumerate(contacts):
        phi_rate = f.signed_distance / dt
        g[3 * i + 2] += phi_rate - params.baumgarte_kp * min(phi_rate, 0.0)
    if params.baumgarte_kd != 0.0:
        g -= params.baumgarte_kd * (J_c @ state.v)

    mu = np.array([f.friction for f in contacts])
    lam0 = None
    if warm_start:
        lam0 = np.zeros(3 * len(contacts))
        for i, f in enumerate(contacts):
            lam0[3 * i : 3 * i + 3] = warm_start.get((f.pair, f.feature), 0.0)
    problem = ContactProblem(G=G, g=g, mu=mu)
    solution = solve_ncp(problem, tol=params.ncp_tol, max_iters=params.ncp_max_iters,
                         warm_start=lam0, thresholds=params.thresholds)
    if not solution.converged:
        log.warning("NCP solve not converged: %d sweeps, residual %.3g, ncp_tol %.3g",
                    solution.iterations, solution.residual, params.ncp_tol)

    v_next = v_free + dyn.solve(J_c.T @ solution.lam)
    q_next = integrate(model, state.q, dt * v_next)
    return StepResult(SimState(q_next, v_next), contacts, problem, solution, J_c, v_free, dyn)


def _tau_at(tau_seq, t: int, nv: int) -> np.ndarray:
    if tau_seq is None:
        return np.zeros(nv)
    arr = np.asarray(tau_seq, dtype=float)
    if arr.ndim == 1:
        return arr
    return arr[t]


def rollout(model: KinematicModel, state0: SimState, tau_seq=None, horizon: int = 1,
            params: SimParams | None = None) -> list:
    """Run `horizon` steps, chaining contact warm starts. Returns the list
    of StepResults (result t holds the state after step t)."""
    params = params or SimParams()
    results = []
    state = state0
    warm = None
    for t in range(horizon):
        res = step(model, state, _tau_at(tau_seq, t, model.nv), params, warm_start=warm)
        results.append(res)
        state = res.state
        warm = res.warm_start()
    return results


def _check_rollout_theta(model: KinematicModel, theta: str, mu_pair: int):
    """Raise ValueError unless theta is 'q0', 'v0', 'tau0' or 'mu', and,
    for 'mu', mu_pair indexes one of the model's friction pairs."""
    if theta not in ("q0", "v0", "tau0", "mu"):
        raise ValueError("theta must be 'q0', 'v0', 'tau0' or 'mu'")
    npairs = len(model.pairs)
    if theta == "mu" and not (isinstance(mu_pair, int) and 0 <= mu_pair < npairs):
        raise ValueError(f"mu_pair must be an int with 0 <= mu_pair < {npairs}; got {mu_pair!r}")


def rollout_jacobian(model: KinematicModel, state0: SimState, tau_seq=None, horizon: int = 1,
                     params: SimParams | None = None, theta: str = "v0",
                     mu_pair: int = 0):
    """Chain per-step derivatives through a rollout.

    theta: 'q0' | 'v0' | 'tau0' (initial generalized impulse) | 'mu'
    (friction coefficient of pair `mu_pair`); anything else raises
    ValueError. Returns (results, dq_T, dv_T) with the final-configuration
    block in the tangent at q_T. Each step makes one step_jacobian call.
    """
    from .derivatives import step_jacobian

    _check_rollout_theta(model, theta, mu_pair)
    params = params or SimParams()
    nv = model.nv
    if theta == "mu":
        Jq = np.zeros((nv, 1))
        Jv = np.zeros((nv, 1))
    else:
        Jq = np.eye(nv) if theta == "q0" else np.zeros((nv, nv))
        Jv = np.eye(nv) if theta == "v0" else np.zeros((nv, nv))
    results = rollout(model, state0, tau_seq, horizon, params)
    for t, res in enumerate(results):
        blocks = ["q", "v"]
        if theta == "tau0" and t == 0:
            blocks.append("tau")
        elif theta == "mu":
            blocks.append(("mu", mu_pair))
        state = results[t - 1].state if t else state0
        jac = step_jacobian(model, state, _tau_at(tau_seq, t, nv), params, res, theta=blocks)
        Jv_new = jac.dv["q"] @ Jq + jac.dv["v"] @ Jv
        Jq_new = jac.dq["q"] @ Jq + jac.dq["v"] @ Jv
        if "tau" in jac.dv:
            Jv_new += jac.dv["tau"] / params.dt
            Jq_new += jac.dq["tau"] / params.dt
        if "mu" in jac.dv:
            Jv_new += jac.dv["mu"]
            Jq_new += jac.dq["mu"]
        Jq, Jv = Jq_new, Jv_new
    return results, Jq, Jv


def trajectory_rows(results):
    """Flatten a rollout for CSV export. One row per step: step index, q, v,
    solver residual, contact count, then per contact (pair_a, pair_b,
    feature, mode, phi, lam_t1, lam_t2, lam_n)."""
    rows = []
    for t, res in enumerate(results):
        row = [t + 1]
        row.extend(float(x) for x in res.state.q)
        row.extend(float(x) for x in res.state.v)
        row.append(float(res.solution.residual) if res.solution else 0.0)
        row.append(len(res.contacts))
        for i, f in enumerate(res.contacts):
            lam_c = res.solution.lam[3 * i : 3 * i + 3]
            row.extend([f.pair[0], f.pair[1], f.feature, res.solution.modes[i].value,
                        float(f.signed_distance)])
            row.extend(float(x) for x in lam_c)
        rows.append(row)
    return rows
