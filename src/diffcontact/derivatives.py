"""Analytic step derivatives by implicit differentiation of the contact NCP.

At the solution the contact modes hold as the equations F = L lambda +
K sigma = 0 of contact.mode_equations, the ones the solver's polish takes
Newton steps on. With sigma = G lambda + g, they keep holding under a
change of theta when (L + K G) dlambda = -dF/dtheta, the partial of F at
fixed lambda, so:
  breaking:     dlambda_c = 0 (one-sided at the mode boundary);
  sticking:     the 3 rows of G dlambda + rhs vanish;
  frictionless: its normal row does, and dlambda_T = 0;
  sliding:      its normal row does, and its tangent rows keep lambda_T +
                mu lambda_N u on the cone as u = sigma_T/|sigma_T| turns.
The linear system is kept on the free impulse rows of contact.mode_rows:
A X = -b with A = C^T (L + K G) C, C the identity columns of those rows,
b = C^T dF/dtheta and dlambda = C X. A is factored once per step by an SVD
cut at _RANK_RTOL, and every theta block solves with those factors. For q,
v and tau, dF/dtheta = K rhs with rhs = dG lambda + dg, so b = B rhs with
B = C^T K. For mu, dF/dtheta is mode_equations' F_mu (lambda_N u on a
sliding contact's tangent rows), kept on the contacts of the pair each
column belongs to.

The right-hand side rhs = dG lambda + dg is the derivative of the contact
velocity at frozen impulse; it collects the smooth-dynamics partials, the
kinematic variation of the contact Jacobian at a fixed frame, the
contact-frame variation (collision.frame_derivative of the step's own
ContactSet along the rows of its body Jacobians, once per (shape, shape)
kind), and the stabilization terms. The contact packs are stacked along a
leading contact axis around the inverse adjoints and frame Jacobians that
simulator.step built for J_c (StepResult.Xc_inv and Jc6), so the wrench,
correction and rhs terms are too. The rhs builds no kinematic derivative
of its own: d(J_i w)/dq is linear in w, so the jv_q blocks that
id_state_derivatives returns, dJ(v) v and dJ(a) a with a = (v+ - v)/dt,
give d(J v+)/dq = dJv + dt dJa and the K_d term's d(J v)/dq = dJv, and the
contact wrenches ride along with the body wrenches into its one
applied_wrench_q_derivative product.

Each block's velocity derivative is dv = dvp + M^-1 J_c^T dlambda, with dvp
the derivative of v+ at frozen impulse. M^-1 is formed once per
step_jacobian call, by the call's one Cholesky solve, and only when a q, v
or tau block is asked for; the q block sums its generalized forces before
that one product. M^-1 J_c^T is the array simulator.step built for G
(StepResult.Minv_JcT), so a mu-only call solves with M not at all.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import svd

from .contact import _RANK_RTOL, ContactProblem, ContactSolution, mode_equations, mode_rows
from .dynamics import (
    applied_wrench_q_derivative,  # noqa: F401  unused; the benchmark tracer patches this name
    compute_dynamics,  # noqa: F401  unused; the benchmark tracer patches this name
    id_state_derivatives,
)
from .model import (
    KinematicModel,
    compute_kinematics,  # noqa: F401  unused; the benchmark tracer patches this name
    integrate_jacobians,
    jv_q_derivatives,  # noqa: F401  unused; the benchmark tracer patches this name
)
from .simulator import _body_rows, _is_pair_index
from .spatial import motion_cross, p_operator


@dataclass
class ReducedSystem:
    """The mode equations' Jacobian on the free impulse rows, A = C^T (L + K G) C,
    for A X = -b with b = C^T dF/dtheta and dlambda = C X. A = U diag(s) Vt
    is factored once, with its rank decision."""

    B: np.ndarray      # (m, 3n) rows of K: b = B rhs for rhs = dG lambda + dg
    C: np.ndarray      # (3n, m) identity columns of the free rows
    F_mu: np.ndarray   # (3n,) partial of F in each contact's own mu
    U: np.ndarray      # (m, m)
    Vt: np.ndarray     # (m, m)
    s_inv: np.ndarray  # (m,) 1/s on the kept singular values, 0 on the cut ones
    deficient: bool    # redundant active set: a singular value was cut


def assemble_reduced_system(problem: ContactProblem, solution: ContactSolution) -> ReducedSystem:
    """A = C^T (L + K G) C from contact.mode_equations at the solution, on
    the free impulse rows of contact.mode_rows, with B = C^T K and F_mu."""
    L, K, F_mu = mode_equations(problem.mus, solution.modes, solution.lam, solution.sigma)
    free = mode_rows(problem.mus, solution.modes)[1]
    U, s, Vt = svd((K @ problem.G + L)[np.ix_(free, free)])
    keep = s > _RANK_RTOL * s.max(initial=0.0)
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return ReducedSystem(B=K[free], C=np.eye(len(free))[:, free], F_mu=F_mu, U=U, Vt=Vt,
                         s_inv=s_inv, deficient=not keep.all())


def solve_reduced(rs: ReducedSystem, b: np.ndarray):
    """dlambda = C X with X = Vt^T diag(s_inv) U^T (-b), the minimum-norm
    solution of A X = -b on the kept singular values, for b (m, k) on the
    free rows; returns it with the rank flag. The expanded impulse derivative
    is unique in J_c^T dlambda even when dlambda itself is not."""
    X = rs.Vt.T @ (rs.s_inv[:, None] * (rs.U.T @ -b))
    return rs.C @ X, rs.deficient


@dataclass
class _ContactDiff:
    """Kinematic packs of the step's contacts, stacked along a leading
    contact axis, used by the correction terms."""

    Xc_inv: np.ndarray    # (n, 6, 6) inverse adjoints of the contact frames
    Jc6: np.ndarray       # (n, 6, nv) relative twist Jacobians in the frames
    dM: np.ndarray        # (n, 6, nv) frame local twists per tangent
    dphi_dq: np.ndarray   # (n, nv)


def _contact_packs(model, result):
    """The packs of the step's ContactSet: the frame Jacobians the step built
    for J_c, and the frames' derivatives along the rows of the step's body
    Jacobians (model.pair_table.frame_derivative, one call per (shape, shape)
    kind); no narrow phase runs again."""
    kin, contacts = result.dyn.kin, result.contacts
    T12 = _body_rows(result.dyn.J, contacts.bodies)
    dM, dphi = model.pair_table.frame_derivative(
        contacts, kin.geom_rotations, kin.geom_translations, T12[:, 0], T12[:, 1])
    return _ContactDiff(Xc_inv=result.Xc_inv, Jc6=result.Jc6, dM=dM, dphi_dq=dphi)


def _frame_wrenches(lam: np.ndarray) -> np.ndarray:
    """Contact-frame wrenches (0, lam_c) of the impulses lam (3n,), (n, 6)."""
    y = np.zeros((len(lam) // 3, 6))
    y[:, 3:] = lam.reshape(-1, 3)
    return y


def collision_correction_jv(packs: _ContactDiff, v: np.ndarray) -> np.ndarray:
    """Frame-variation part of d(J_c v)/dq at fixed v, per contact (n, 3, nv):
    the relative twist seen from a frame moving with local twist dM dq."""
    return (motion_cross(packs.Jc6 @ v) @ packs.dM)[:, 3:]


def collision_correction_jtl(packs: _ContactDiff, lam: np.ndarray) -> np.ndarray:
    """Frame-variation part of d(J_c^T lambda)/dq at fixed lambda (3n,), summed
    over the contacts in contact order (nv x nv).

    Adjoint of collision_correction_jv: <d(J_c^T lam) dq, v> =
    <lam, d(J_c v) dq> holds exactly."""
    Y = p_operator(_frame_wrenches(lam))
    return (-np.swapaxes(packs.Jc6, -1, -2) @ (Y @ packs.dM)).sum(axis=0)


@dataclass
class StepJacobian:
    """Analytic derivatives of one step. Config-block derivatives are
    expressed in the tangent at the new configuration; q-derivatives are
    w.r.t. the tangent of the input configuration (through integrate)."""

    dv: dict = field(default_factory=dict)
    dq: dict = field(default_factory=dict)
    dlam: dict = field(default_factory=dict)
    rank_deficient: bool = False
    boundary: bool = False
    ambiguous: bool = False
    converged: bool = True          # the NCP solve of the step met its tolerance


_THETAS = ("q", "v", "tau")


def _parse_theta(theta, npairs: int):
    """Split a step_jacobian theta into the smooth blocks (in _THETAS order)
    and the friction pair columns (None when no mu block is wanted)."""
    smooth, mu_cols = set(), None
    for t in theta if isinstance(theta, list) else [theta]:
        if t == "all":
            smooth.update(_THETAS)
        elif t in _THETAS:
            smooth.add(t)
        elif t == "mu":
            mu_cols = list(range(npairs))
        elif isinstance(t, tuple) and len(t) == 2 and t[0] == "mu" and _is_pair_index(t[1], npairs):
            mu_cols = [int(t[1])]
        else:
            raise ValueError(
                f"theta must be 'all', 'q', 'v', 'tau', 'mu', ('mu', k) with 0 <= k < "
                f"{npairs}, or a list of these; got {t!r}")
    if not smooth and mu_cols is None:
        raise ValueError("theta requests no block")
    return [t for t in _THETAS if t in smooth], mu_cols


def _frozen_impulse_rhs(model, state, params, result, smooth):
    """Per smooth theta block: dvp, the derivative of v+ at frozen impulse,
    and rhs = dG lambda* + dg, the frozen-impulse derivative of the contact
    velocity sigma (3n x nv). The contact packs are built for q only."""
    dyn = result.dyn
    v = state.v
    dt = params.dt
    nv = model.nv
    kd = params.baumgarte_kd
    v_plus = result.state.v
    contacts = result.contacts
    if "q" in smooth and contacts:
        packs = _contact_packs(model, result)

    dvp = {}
    if smooth:
        Minv = dyn.solve(np.eye(nv))  # the one solve with M of the Jacobian
    if "q" in smooth or "v" in smooth:
        wrenches = 0.0
        if "q" in smooth and contacts:
            # Frozen-impulse generalized force: a fixed world wrench per
            # contact, whose q-derivative enters through the ID derivatives'
            # one applied_wrench_q_derivative product (-dt dID_q below undoes
            # the -1/dt), plus the frame-variation collision_correction_jtl.
            # The last row stands for the environment (body -1) and is dropped;
            # each contact adds its wrench to body 1, then subtracts it from body 2.
            lam = result.solution.lam
            phi_w = (np.swapaxes(packs.Xc_inv, -1, -2) @ _frame_wrenches(lam)[:, :, None])[:, :, 0]
            w_c = np.zeros((model.nb + 1, 6))
            np.add.at(w_c, contacts.bodies.ravel(),
                      np.stack([phi_w, -phi_w], axis=1).reshape(-1, 6))
            wrenches = -w_c[:-1] / dt
        dID_q, dID_v, dJv, dJa = id_state_derivatives(model, dyn, (v_plus - v) / dt, wrenches)
    if "q" in smooth:
        force_q = -dt * dID_q
        if contacts:
            force_q = force_q + collision_correction_jtl(packs, lam)
        dvp["q"] = Minv @ force_q
    if "v" in smooth:
        dvp["v"] = np.eye(nv) - dt * (Minv @ dID_v)
    if "tau" in smooth:
        dvp["tau"] = dt * Minv

    rhs = {t: result.J_c @ dvp[t] for t in smooth}
    # Kinematic + frame variation of J_c v+ and the stabilization terms:
    # theta = q only, except the K_d term, which v has too; tau has none.
    # d(J_i w)/dq is linear in w, so the ID derivatives' blocks give it for
    # w = v (dJv) and w = v+ = v + dt a (dJv + dt dJa).
    if "q" in smooth and contacts:
        def contact_rows(dJw, w):
            """d(J_c w)/dq per contact (n, 3, nv) from d(J_i w)/dq per body."""
            dJw12 = _body_rows(dJw, contacts.bodies)
            dJwd = dJw12[:, 0] - dJw12[:, 1]
            return (packs.Xc_inv @ dJwd)[:, 3:] + collision_correction_jv(packs, w)

        rows = contact_rows(dJv + dt * dJa, v_plus)
        gain = (1.0 - params.baumgarte_kp * (contacts.phi < 0.0)) / dt
        rows[:, 2] += gain[:, None] * packs.dphi_dq
        if kd != 0.0:
            rows -= kd * contact_rows(dJv, v)
        rhs["q"] += rows.reshape(-1, nv)
    if "v" in smooth and kd != 0.0:
        rhs["v"] -= kd * result.J_c
    return dvp, rhs


def step_jacobian(model: KinematicModel, state, tau, params, result, theta="all") -> StepJacobian:
    """Derivatives of (v+, q+, lambda*) w.r.t. theta in {q, v, tau, mu}.

    theta is "all" (q, v, tau), one of "q", "v", "tau", "mu" (one column
    per friction pair) or ("mu", k) (pair k), or a list of these; anything
    else raises ValueError. `result` must come from simulator.step at
    (state, tau, params); its kinematics, dynamics and M^-1 J_c^T are reused.
    Breaking contacts contribute zero derivative rows; at the activation
    boundary this is the one-sided derivative from the inactive side."""
    smooth, mu_cols = _parse_theta(theta, len(model.pairs))
    contacts = result.contacts

    out = StepJacobian()
    dvp, rhs = _frozen_impulse_rhs(model, state, params, result, smooth)
    if mu_cols is not None:
        dvp["mu"] = np.zeros((model.nv, len(mu_cols)))
    if contacts:
        out.boundary = bool(contacts.boundary.any())
        out.ambiguous = bool(result.solution.ambiguous.any())
        out.converged = result.solution.converged
        rs = assemble_reduced_system(result.problem, result.solution)
        out.rank_deficient = rs.deficient
        b = {t: rs.B @ rhs_t for t, rhs_t in rhs.items()}
        if mu_cols is not None:  # dF/dmu: F_mu on the contacts of each column's pair
            pair = np.repeat(model.pair_table.pair_index(contacts.pair), 3)
            b["mu"] = rs.C.T @ np.where(pair[:, None] == mu_cols, rs.F_mu[:, None], 0.0)

    for t, dvp_t in dvp.items():
        if not contacts:
            out.dlam[t], out.dv[t] = np.zeros((0, dvp_t.shape[1])), dvp_t
            continue
        out.dlam[t] = solve_reduced(rs, b[t])[0]
        out.dv[t] = dvp_t + result.Minv_JcT @ out.dlam[t]

    dt = params.dt
    Dq, Dd = integrate_jacobians(model, dt * result.state.v)
    for t, dv_t in out.dv.items():
        out.dq[t] = dt * (Dd @ dv_t)
        if t == "q":
            out.dq[t] = Dq + out.dq[t]
    return out
