"""Impulse-stepping simulator with exact cone-complementarity contact.

One step solves the frictional-contact NCP on the end-of-step contact
velocities sigma = G lambda + g (lambda in impulse units),

    K_mu  ni  lambda  perp  sigma + Gamma(sigma)  in  K_mu*,

then advances v+ = v_free + M^-1 J_c^T lambda and q+ = integrate(q, dt v+).
Penetration recovery adds phi/dt to the normal rows of g, optionally scaled
further by the kp gain when penetrating, and a kd damping term on all rows.
The step's contacts are one stacked collision.ContactSet, in J_c row order.
"""
from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from .collision import ContactSet, narrow_phase
from .contact import ContactProblem, ContactSolution, solve_ncp
from .dynamics import DynamicsData, compute_dynamics
from .model import KinematicModel, compute_kinematics, integrate
from .spatial import Placement, adjoint_inverse

log = logging.getLogger("diffcontact")


@dataclass(frozen=True)
class SimParams:
    dt: float = 1e-3
    baumgarte_kp: float = 0.0
    baumgarte_kd: float = 0.0
    contact_margin: float = 1e-4
    ncp_tol: float = 1e-10
    ncp_max_iters: int = 10000

    def __post_init__(self):
        if not self.dt > 0.0:  # written so that NaN fails each check
            raise ValueError(f"dt must be positive, got {self.dt}")
        for name in ("baumgarte_kp", "baumgarte_kd"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        if not self.contact_margin > 0.0:
            raise ValueError("contact_margin must be positive")
        if not (self.ncp_tol > 0.0 and isinstance(self.ncp_max_iters, (int, np.integer))
                and self.ncp_max_iters > 0):
            raise ValueError("ncp_tol must be positive and ncp_max_iters a positive integer")


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
    contacts: ContactSet            # active contacts, stacked in pair-major order
    problem: ContactProblem | None
    solution: ContactSolution | None
    J_c: np.ndarray                 # (3n, nv) contact Jacobian at the input q
    Xc_inv: np.ndarray              # (n, 6, 6) inverse adjoints of the contact frames
    Jc6: np.ndarray                 # (n, 6, nv) frame twist Jacobians; J_c is their [:, 3:] rows
    Minv_JcT: np.ndarray            # (nv, 3n) M^-1 J_c^T, built for G; step_jacobian reuses it
    dyn: DynamicsData               # dynamics at the input state; dyn.kin is its kinematics

    def warm_start(self) -> dict:
        """Impulses keyed by (pair, feature) for the next step's solver."""
        if self.solution is None:
            return {}
        return dict(zip(self.contacts.keys(), self.solution.lam.reshape(-1, 3).copy()))


def _keyed_impulses(keyed: dict, contacts) -> np.ndarray:
    """Impulses (3n,) of contacts looked up by (pair, feature) in a
    StepResult.warm_start dict; zero for a contact it does not hold."""
    return np.array([keyed.get(k, np.zeros(3)) for k in contacts.keys()]).reshape(-1)


def detect_contacts(model: KinematicModel, kin, margin: float) -> ContactSet:
    """Narrow phase over the declared pairs, one call per (shape, shape) kind
    of model.pair_table on the stacked geometry placements, each contact
    labelled with its pair, bodies and friction, merged by the table into
    one ContactSet in pair-major order."""
    R, p, table = kin.geom_rotations, kin.geom_translations, model.pair_table
    return table.merge([narrow_phase(k.shape1, k.shape2, Placement(R[a], p[a]),
                                     Placement(R[b], p[b]), margin, k.ids, k.mu)
                        for k in table.kinds for a, b in [k.geoms]])


def _body_rows(A: np.ndarray, bodies: np.ndarray) -> np.ndarray:
    """A[b] for each body index b of a per-body stack A; zero for the environment (-1)."""
    rows = A[bodies]
    rows[bodies < 0] = 0.0
    return rows


def contact_jacobian(model: KinematicModel, dyn: DynamicsData, contacts):
    """(Xc_inv, Jc6, J_c): the stacked inverse adjoints (n, 6, 6) of the
    contact frames, the relative twist Jacobians (n, 6, nv) of body 1
    against body 2 in those frames, read off the body Jacobians of dyn, and
    their linear rows J_c (3n, nv), the map from joint velocities to
    contact-frame linear relative velocities."""
    Xc_inv = adjoint_inverse(Placement(contacts.rotation, contacts.point))
    J12 = _body_rows(dyn.J, contacts.bodies)
    Jc6 = Xc_inv @ (J12[:, 0] - J12[:, 1])
    return Xc_inv, Jc6, Jc6[:, 3:].reshape(-1, model.nv)


def step(model: KinematicModel, state: SimState, tau=None, params: SimParams | None = None,
         warm_start: dict | None = None) -> StepResult:
    """Advance one time step; exact contact solve, no force relaxation."""
    params = params or SimParams()
    tau = np.zeros(model.nv) if tau is None else np.asarray(tau, dtype=float)
    dt = params.dt

    kin = compute_kinematics(model, state.q)
    dyn = compute_dynamics(model, kin, state.v)
    v_free = state.v + dt * dyn.solve(tau - dyn.bias)

    contacts = detect_contacts(model, kin, params.contact_margin)
    if not contacts:
        q_next = integrate(model, state.q, dt * v_free)
        return StepResult(SimState(q_next, v_free), contacts, None, None,
                          np.zeros((0, model.nv)), np.zeros((0, 6, 6)), np.zeros((0, 6, model.nv)),
                          np.zeros((model.nv, 0)), dyn)

    Xc_inv, Jc6, J_c = contact_jacobian(model, dyn, contacts)
    Minv_JcT = dyn.solve(J_c.T)
    G = J_c @ Minv_JcT
    G = 0.5 * (G + G.T)
    g = J_c @ v_free
    phi_rate = contacts.phi / dt
    g[2::3] += phi_rate - params.baumgarte_kp * np.minimum(phi_rate, 0.0)
    if params.baumgarte_kd != 0.0:
        g -= params.baumgarte_kd * (J_c @ state.v)

    lam0 = _keyed_impulses(warm_start, contacts) if warm_start else None
    problem = ContactProblem(G=G, g=g, mu=contacts.friction)
    solution = solve_ncp(problem, tol=params.ncp_tol, max_iters=params.ncp_max_iters,
                         warm_start=lam0)
    if not solution.converged:
        log.warning("NCP solve not converged: %d sweeps, residual %.3g, ncp_tol %.3g",
                    solution.iterations, solution.residual, params.ncp_tol)

    v_next = v_free + dyn.solve(J_c.T @ solution.lam)
    q_next = integrate(model, state.q, dt * v_next)
    return StepResult(SimState(q_next, v_next), contacts, problem, solution, J_c, Xc_inv, Jc6,
                      Minv_JcT, dyn)


def _tau_sequence(tau_seq, horizon: int, nv: int) -> np.ndarray:
    """The first `horizon` rows of tau_seq as a new (horizon, nv) array, the
    torques rollout and rollout_jacobian apply; None gives zeros, one vector
    every row. A sequence of the wrong shape or with fewer than `horizon`
    rows raises ValueError."""
    if tau_seq is None:
        return np.zeros((horizon, nv))
    arr = np.asarray(tau_seq, dtype=float)
    if arr.ndim == 2 and len(arr) < horizon:
        raise ValueError(f"tau_seq has {len(arr)} rows, fewer than horizon = {horizon}")
    return np.broadcast_to(arr[:horizon] if arr.ndim == 2 else arr, (horizon, nv)).copy()


def rollout(model: KinematicModel, state0: SimState, tau_seq=None, horizon: int = 1,
            params: SimParams | None = None) -> list:
    """Run `horizon` steps, chaining contact warm starts. Returns the list
    of StepResults (result t holds the state after step t)."""
    params = params or SimParams()
    results = []
    state = state0
    warm = None
    for tau in _tau_sequence(tau_seq, horizon, model.nv):
        res = step(model, state, tau, params, warm_start=warm)
        results.append(res)
        state = res.state
        warm = res.warm_start()
    return results


def _is_pair_index(k, npairs: int) -> bool:
    """k is an integer (Python or numpy, not a bool) with 0 <= k < npairs."""
    return isinstance(k, numbers.Integral) and not isinstance(k, bool) and 0 <= k < npairs


def _check_rollout_theta(model: KinematicModel, theta: str, mu_pair: int):
    """Raise ValueError unless theta is 'q0', 'v0', 'tau0' or 'mu', and,
    for 'mu', mu_pair indexes one of the model's friction pairs."""
    if theta not in ("q0", "v0", "tau0", "mu"):
        raise ValueError("theta must be 'q0', 'v0', 'tau0' or 'mu'")
    npairs = len(model.pairs)
    if theta == "mu" and not _is_pair_index(mu_pair, npairs):
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
    taus = _tau_sequence(tau_seq, horizon, nv)
    results = rollout(model, state0, taus, horizon, params)
    for t, (res, tau) in enumerate(zip(results, taus)):
        blocks = ["q", "v"]
        if theta == "tau0" and t == 0:
            blocks.append("tau")
        elif theta == "mu":
            blocks.append(("mu", mu_pair))
        state = results[t - 1].state if t else state0
        jac = step_jacobian(model, state, tau, params, res, theta=blocks)
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


def trajectory_header(model: KinematicModel) -> list:
    """CSV header of trajectory_rows: one name per fixed column, then one
    entry naming the eight columns that each contact adds."""
    return ["step", *(f"q{i}" for i in range(model.nq)), *(f"v{i}" for i in range(model.nv)),
            "residual", "n_contacts",
            "per-contact: pair_a,pair_b,feature,mode,phi,lam_t1,lam_t2,lam_n"]


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
        if res.solution is not None:
            cs, sol = res.contacts, res.solution
            for (a, b), feature, mode, phi, lam_c in zip(
                    cs.pair.tolist(), cs.feature.tolist(), sol.modes, cs.phi.tolist(),
                    sol.lam.reshape(-1, 3).tolist()):
                row.extend([a, b, feature, mode.value, phi, *lam_c])
        rows.append(row)
    return rows
