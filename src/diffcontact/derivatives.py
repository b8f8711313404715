"""Analytic step derivatives by implicit differentiation of the contact NCP.

Differentiating the solved contact modes gives, per contact:
  breaking: dlambda = 0 (one-sided at the mode boundary);
  sticking: the 3x3 rows of G dlambda = -(dG lambda + dg);
  sliding:  a 2D tangent-plane system in the basis R = [lambda/|lambda|,
            e_z x u], with the weighting P = blockdiag((1/alpha)(I - u u^T), 1),
            alpha = |sigma_T| / (mu lambda_N), and Q = diag(0, 1).
Active contacts couple through the Delassus matrix into one reduced linear
system A X = -B rhs with A = B G C + diag(Q) and dlambda = C X; B stacks
identity rows (sticking) and R^T P rows (sliding), C the matching columns.
Frictionless (mu = 0) active contacts reduce to their normal row alone.
A is factored once per step by an SVD cut at _RANK_RTOL, and every theta
block (q, v, tau, mu) solves with those factors. For mu, rhs = G p with p
the impulse direction along the sliding cone at fixed sigma, and p is
added back to the solved dlambda.

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

from .contact import _RANK_RTOL, ContactProblem, ContactSolution, Mode
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


class SingularSlidingMode(ValueError):
    pass


@dataclass(frozen=True)
class SlidingBasis:
    """Tangent-plane basis at a sliding impulse: columns of R are the
    impulse ray and the in-plane direction orthogonal to the slip."""

    R: np.ndarray      # (..., 3, 2)
    P: np.ndarray      # (..., 3, 3)


def sliding_basis(lam_c: np.ndarray, sigma_c: np.ndarray, mu) -> SlidingBasis:
    """The basis at one contact (lam_c, sigma_c of shape (3,)) or at k
    stacked ones ((k, 3), mu (k,)); SingularSlidingMode if any is degenerate."""
    lam_c, sigma_c = np.asarray(lam_c, dtype=float), np.asarray(sigma_c, dtype=float)
    s_t = np.hypot(sigma_c[..., 0], sigma_c[..., 1])
    if ((mu <= 0.0) | (s_t < 1e-14) | (mu * lam_c[..., 2] < 1e-14)).any():
        raise SingularSlidingMode("sliding basis undefined: no slip or apex impulse")
    u = sigma_c[..., :2] / s_t[..., None]
    alpha = s_t / (mu * lam_c[..., 2])
    R = np.zeros(lam_c.shape + (2,))
    R[..., 0] = lam_c / np.sqrt(lam_c[..., None, :] @ lam_c[..., None])[..., 0]
    R[..., 0, 1] = -u[..., 1]
    R[..., 1, 1] = u[..., 0]
    P = np.zeros(lam_c.shape[:-1] + (3, 3))
    P[..., :2, :2] = (np.eye(2) - u[..., :, None] * u[..., None, :]) / alpha[..., None, None]
    P[..., 2, 2] = 1.0
    return SlidingBasis(R=R, P=P)


@dataclass
class ReducedSystem:
    """Mode-reduced implicit system A X = -B rhs on the active contacts, with
    dlambda = C X. A = U diag(s) Vt is factored once, with its rank decision."""

    A: np.ndarray      # (m, m) B G C + diag(Q)
    B: np.ndarray      # (m, 3n)
    C: np.ndarray      # (3n, m)
    U: np.ndarray      # (m, m)
    Vt: np.ndarray     # (m, m)
    s_inv: np.ndarray  # (m,) 1/s on the kept singular values, 0 on the cut ones
    deficient: bool    # redundant active set: a singular value was cut


def assemble_reduced_system(problem: ContactProblem, solution: ContactSolution) -> ReducedSystem:
    """Build A = B G C + diag(Q) over the non-breaking contacts: per contact,
    B rows and C columns I (sticking), R^T P and R (sliding, with Q =
    diag(0, 1)) or e_z^T and e_z (frictionless), in contact order. Each
    contact fills a 3x3 block, and the block rows its mode does not use are cut:
    all of a breaking contact, the tangent rows of a frictionless one and the
    last of a sliding one."""
    n, tangent = problem.n, np.array([True, True, False])
    modes = np.array(solution.modes, dtype=object)[:, None]
    sticking, sliding = (modes == [Mode.STICKING, Mode.SLIDING]).T
    st, sl = np.flatnonzero(sticking), np.flatnonzero(sliding)
    # Block-diagonal (n, 3, n, 3) forms of B and C: [c, :, c] is contact c's block.
    B, C, Q = np.zeros((n, 3, n, 3)), np.zeros((n, 3, n, 3)), np.zeros((n, 3))
    B[st, :, st] = C[st, :, st] = np.eye(3)
    if sl.size:
        basis = sliding_basis(solution.lam.reshape(-1, 3)[sl],
                              solution.sigma.reshape(-1, 3)[sl], problem.mu[sl])
        B[sl, :2, sl], C[sl, :, sl, :2] = np.swapaxes(basis.R, -1, -2) @ basis.P, basis.R
        Q[sl, 1] = 1.0
    used = (sticking[:, None] & ~(tangent & (problem.mu == 0.0)[:, None])
            | sliding[:, None] & tangent).ravel()
    B = B.reshape(3 * n, 3 * n).compress(used, axis=0)
    C = C.reshape(3 * n, 3 * n).compress(used, axis=1)
    A = B @ problem.G @ C + np.diag(Q.ravel()[used])
    U, s, Vt = svd(A)
    keep = s > _RANK_RTOL * s.max(initial=0.0)
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return ReducedSystem(A=A, B=B, C=C, U=U, Vt=Vt, s_inv=s_inv, deficient=not keep.all())


def solve_reduced(rs: ReducedSystem, rhs: np.ndarray):
    """dlambda = C X with X = Vt^T diag(s_inv) U^T (-B rhs), the minimum-norm
    solution of A X = -B rhs on the kept singular values; returns it with
    the rank flag. The expanded impulse derivative is unique in
    J_c^T dlambda even when dlambda itself is not."""
    X = rs.Vt.T @ (rs.s_inv[:, None] * (rs.U.T @ -(rs.B @ rhs)))
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


def _mu_impulse_direction(model, result, cols) -> np.ndarray:
    """d lambda / d mu along the sliding cone boundary at fixed sigma, one
    column per pair in `cols`; zero for non-sliding contacts."""
    contacts, sol = result.contacts, result.solution
    sl = np.flatnonzero(np.array(sol.modes, dtype=object) == Mode.SLIDING)
    mu, lam_n, sig = contacts.friction[sl], sol.lam[3 * sl + 2], sol.sigma.reshape(-1, 3)[sl]
    u = sig[:, :2] / np.hypot(sig[:, 0], sig[:, 1])[:, None]
    along = (-lam_n / (1.0 + mu * mu))[:, None] * np.column_stack([u, mu])
    in_col = model.pair_table.pair_index(contacts.pair[sl])[:, None] == np.array(cols)
    p_dir = np.zeros((len(contacts), 3, len(cols)))
    p_dir[sl] = np.where(in_col[:, None, :], along[:, :, None], 0.0)
    return p_dir.reshape(-1, len(cols))


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
        if mu_cols is not None:
            p_dir = _mu_impulse_direction(model, result, mu_cols)
            rhs["mu"] = result.problem.G @ p_dir

    for t, dvp_t in dvp.items():
        if not contacts:
            out.dlam[t], out.dv[t] = np.zeros((0, dvp_t.shape[1])), dvp_t
            continue
        dlam_t = solve_reduced(rs, rhs[t])[0]
        if t == "mu":
            dlam_t = dlam_t + p_dir
        out.dlam[t] = dlam_t
        out.dv[t] = dvp_t + result.Minv_JcT @ dlam_t

    dt = params.dt
    Dq, Dd = integrate_jacobians(model, dt * result.state.v)
    for t, dv_t in out.dv.items():
        out.dq[t] = dt * (Dd @ dv_t)
        if t == "q":
            out.dq[t] = Dq + out.dq[t]
    return out
