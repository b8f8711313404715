"""Finite-difference step and rollout derivatives.

Central differences through the full step, perturbing configurations in
their tangent chart. Every perturbed solve is warm started from the base
impulses so the comparison against the analytic derivatives is not polluted
by solver nondeterminism. Contact impulses are aligned across perturbations
by (pair, feature); a contact that appears or vanishes under perturbation
means the state sits on an activation boundary where the step is not
differentiable, and FD output there is unreliable by nature.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from .derivatives import StepJacobian, _parse_theta
from .model import KinematicModel, difference, integrate
from .simulator import SimParams, SimState, _check_rollout_theta, rollout, step


def _basis(n: int, k: int) -> np.ndarray:
    e = np.zeros(n)
    e[k] = 1.0
    return e


def perturb_state(model: KinematicModel, state: SimState, theta: str, k: int,
                  eps: float) -> SimState:
    """State displaced by eps along tangent direction k of q or v."""
    if theta == "q":
        return SimState(integrate(model, state.q, eps * _basis(model.nv, k)), state.v.copy())
    if theta == "v":
        return SimState(state.q.copy(), state.v + eps * _basis(model.nv, k))
    raise ValueError("theta must be 'q' or 'v'")


def with_pair_mu(model: KinematicModel, pair_index: int, mu: float) -> KinematicModel:
    pairs = list(model.pairs)
    pairs[pair_index] = dataclasses.replace(pairs[pair_index], mu=mu)
    return KinematicModel(model.joints, model.inertias, model.geometries, pairs,
                          gravity=model.gravity, actuated=model.actuated, name=model.name)


def _lam_keyed(result) -> dict:
    if result.solution is None:
        return {}
    return {
        (f.pair, f.feature): result.solution.lam[3 * i : 3 * i + 3]
        for i, f in enumerate(result.contacts)
    }


def _aligned_lam(result, base_contacts) -> np.ndarray:
    keyed = _lam_keyed(result)
    out = np.zeros(3 * len(base_contacts))
    for i, f in enumerate(base_contacts):
        out[3 * i : 3 * i + 3] = keyed.get((f.pair, f.feature), 0.0)
    return out


def fd_step_jacobian(model: KinematicModel, state: SimState, tau=None,
                     params: SimParams | None = None, theta="all",
                     eps: float = 1e-6, base=None) -> StepJacobian:
    """Central-difference analogue of step_jacobian, with the same theta
    forms and the same block columns.

    Costs 2 step calls per perturbed direction, plus one for the base solve
    when a precomputed StepResult is not passed in.
    """
    smooth, mu_cols = _parse_theta(theta, len(model.pairs))
    params = params or SimParams()
    tau = np.zeros(model.nv) if tau is None else np.asarray(tau, dtype=float)
    if base is None:
        base = step(model, state, tau, params)
    warm = base.warm_start()
    q_plus = base.state.q

    def perturbed(t, k, s):
        """The step with column k of block t moved by s."""
        if t == "mu":
            return step(with_pair_mu(model, k, model.pairs[k].mu + s), state, tau, params, warm)
        if t == "tau":
            return step(model, state, tau + s * _basis(model.nv, k), params, warm)
        return step(model, perturb_state(model, state, t, k, s), tau, params, warm)

    blocks = {t: range(model.nv) for t in smooth}
    if mu_cols is not None:
        blocks["mu"] = mu_cols
    out = StepJacobian()
    for t, cols in blocks.items():
        diffs = []
        for k in cols:
            res_p, res_m = perturbed(t, k, eps), perturbed(t, k, -eps)
            diffs.append((res_p.state.v - res_m.state.v,
                          difference(model, q_plus, res_p.state.q)
                          - difference(model, q_plus, res_m.state.q),
                          _aligned_lam(res_p, base.contacts) - _aligned_lam(res_m, base.contacts)))
        out.dv[t], out.dq[t], out.dlam[t] = (np.stack(d, axis=1) / (2 * eps) for d in zip(*diffs))
    return out


def fd_rollout_jacobian(model: KinematicModel, state0: SimState, tau_seq=None,
                        horizon: int = 1, params: SimParams | None = None,
                        theta: str = "v0", eps: float = 1e-6, mu_pair: int = 0):
    """Final-state rollout derivative by central differences. Returns
    (dq_T, dv_T) in the tangent at the unperturbed final configuration."""
    _check_rollout_theta(model, theta, mu_pair)
    params = params or SimParams()
    base = rollout(model, state0, tau_seq, horizon, params)
    q_T = base[-1].state.q
    nv = model.nv

    def final(state, mdl=model, taus=tau_seq):
        res = rollout(mdl, state, taus, horizon, params)
        return res[-1].state

    if theta == "mu":
        mu0 = model.pairs[mu_pair].mu
        s_p = final(state0, mdl=with_pair_mu(model, mu_pair, mu0 + eps))
        s_m = final(state0, mdl=with_pair_mu(model, mu_pair, mu0 - eps))
        dq = ((difference(model, q_T, s_p.q) - difference(model, q_T, s_m.q)) / (2 * eps))
        dv = (s_p.v - s_m.v) / (2 * eps)
        return dq.reshape(-1, 1), dv.reshape(-1, 1)

    ncols = nv
    dq = np.zeros((nv, ncols))
    dv = np.zeros((nv, ncols))
    for k in range(ncols):
        if theta == "q0":
            s_p = final(perturb_state(model, state0, "q", k, eps))
            s_m = final(perturb_state(model, state0, "q", k, -eps))
        elif theta == "v0":
            s_p = final(perturb_state(model, state0, "v", k, eps))
            s_m = final(perturb_state(model, state0, "v", k, -eps))
        else:  # "tau0"
            if tau_seq is None:
                taus = np.zeros((horizon, nv))
            else:
                taus = np.broadcast_to(np.asarray(tau_seq, dtype=float),
                                       (horizon, nv)).copy()
            tp = taus.copy()
            tp[0, k] += eps / params.dt
            tm = taus.copy()
            tm[0, k] -= eps / params.dt
            s_p = final(state0, taus=tp)
            s_m = final(state0, taus=tm)
        dq[:, k] = (difference(model, q_T, s_p.q) - difference(model, q_T, s_m.q)) / (2 * eps)
        dv[:, k] = (s_p.v - s_m.v) / (2 * eps)
    return dq, dv
