"""Output checks computed apart from the program under test.

Every check here uses its own arithmetic: it reads the program's outputs
(Delassus matrix G, free velocity g, friction mu, impulses lambda, states,
Jacobians) and never calls back into the library's solver, residual,
dynamics or chart code. Each checker returns a list of failure messages;
an empty list means the output passed.

The self-tests (`self_test_cone`, `corrupt_column` and the corruptions in
workloads.py) feed each checker a deliberately corrupted copy of a real
output and record whether it was rejected, which shows that the checks can
fail.
"""
from __future__ import annotations

import numpy as np

# Tolerances. PGS runs to ncp_tol = 1e-14 (residual normalized by
# max(1, |g|_inf)); 1e-9 leaves five orders of margin while still catching
# any impulse or velocity error that matters to the dynamics.
NCP_TOL = 1e-9
# Deepest admissible penetration of an active contact, in metres. The
# scenes' geometry is 0.1 m; velocity-level stabilization keeps drift at
# the 1e-5 .. 1e-4 m level.
PENETRATION_BOUND = 1e-3
# Directional central differences: step size and relative agreement.
FD_EPS = 1e-6
FD_TOL = 1e-4
# Closed-form ballistic update and GN target reproduction.
BALLISTIC_TOL = 1e-10
TARGET_TOL = 1e-7


# ---------------------------------------------------------------------------
# contact solution: cone, dual cone, complementarity, penetration
# ---------------------------------------------------------------------------

def check_contact_step(G, g, mu, lam, phis):
    """Coulomb cone on lambda, dual cone on y = sigma + Gamma(sigma),
    complementarity lambda . y ~ 0 per contact, and bounded penetration,
    with sigma = G lambda + g recomputed here."""
    G = np.asarray(G, dtype=float)
    g = np.asarray(g, dtype=float)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma = G @ lam + g
    L = lam.reshape(-1, 3)
    S = sigma.reshape(-1, 3)
    lam_scale = max(float(np.abs(lam).max(initial=0.0)), 1e-300)
    vel_scale = max(1.0, float(np.abs(g).max(initial=0.0)))
    errors = []
    lam_t = np.hypot(L[:, 0], L[:, 1])
    sig_t = np.hypot(S[:, 0], S[:, 1])
    y_n = S[:, 2] + mu * sig_t
    for c in range(len(mu)):
        cone = max(lam_t[c] - mu[c] * L[c, 2], -L[c, 2])
        if cone > NCP_TOL * lam_scale:
            errors.append(f"contact {c}: impulse outside the friction cone by {cone:.3e}")
        # Dual cone K_mu^* = {y : mu |y_T| <= y_N}; y_T = sigma_T.
        dual = mu[c] * sig_t[c] - y_n[c]
        if dual > NCP_TOL * vel_scale:
            errors.append(f"contact {c}: sigma + Gamma(sigma) outside the dual cone by {dual:.3e}")
        comp = abs(float(L[c] @ np.array([S[c, 0], S[c, 1], y_n[c]])))
        if comp > NCP_TOL * vel_scale * lam_scale:
            errors.append(f"contact {c}: complementarity gap {comp:.3e}")
        if phis[c] < -PENETRATION_BOUND:
            errors.append(f"contact {c}: penetration {-phis[c]:.3e} m beyond the bound")
    return errors


def check_step_result(res):
    """check_contact_step on a StepResult (no-op without contacts)."""
    if res.solution is None:
        return []
    p = res.problem
    phis = [f.signed_distance for f in res.contacts]
    return check_contact_step(p.G, p.g, p.mu, res.solution.lam, phis)


def self_test_cone(res):
    """Scale one contact's tangential impulse out of its cone."""
    p = res.problem
    lam = res.solution.lam.copy()
    c = int(np.argmax(lam.reshape(-1, 3)[:, 2]))
    lt = lam[3 * c : 3 * c + 2]
    bound = p.mu[c] * lam[3 * c + 2]
    target = 2.0 * bound if bound > 0.0 else 1.0
    norm = float(np.hypot(*lt))
    direction = lt / norm if norm > 0.0 else np.array([1.0, 0.0])
    lam[3 * c : 3 * c + 2] = target * direction
    phis = [f.signed_distance for f in res.contacts]
    return bool(check_contact_step(p.G, p.g, p.mu, lam, phis))


# ---------------------------------------------------------------------------
# directional central differences
# ---------------------------------------------------------------------------

def contact_signature(res):
    """Contact set and modes: a FD sample is only comparable when both
    perturbed solves keep the base signature."""
    if res.solution is None:
        return ()
    return tuple((f.pair, f.feature, m) for f, m in zip(res.contacts, res.solution.modes))


def directional_error(analytic, fd):
    """Relative 2-norm disagreement of two directional derivatives."""
    analytic = np.asarray(analytic, dtype=float)
    fd = np.asarray(fd, dtype=float)
    scale = max(float(np.linalg.norm(fd)), float(np.linalg.norm(analytic)), 1e-12)
    return float(np.linalg.norm(analytic - fd)) / scale


def check_directional(analytic, fd):
    err = directional_error(analytic, fd)
    if not err <= FD_TOL:
        return [f"analytic and central-difference directional derivatives "
                f"disagree by {err:.3e} (tolerance {FD_TOL:.0e})"]
    return []


def corrupt_column(J, d):
    """Copy of J with the column that d weights most moved so that J d
    changes by 1% of its norm, 100x the FD tolerance."""
    J = np.asarray(J, dtype=float)
    k = int(np.argmax(np.abs(d)))
    Jc = J.copy()
    Jc[:, k] += 0.01 * np.linalg.norm(J @ d) / abs(d[k]) / np.sqrt(J.shape[0])
    return Jc


# ---------------------------------------------------------------------------
# free-joint chart (scalar-last quaternions), independent of the library
# ---------------------------------------------------------------------------

def _skew(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def quat_rotation(quat):
    x, y, z, w = quat / np.linalg.norm(quat)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _exp_and_v(phi):
    """Rodrigues rotation Exp(phi) and the SE(3) left Jacobian V(phi)."""
    th = float(np.linalg.norm(phi))
    K = _skew(phi)
    if th < 1e-8:
        return np.eye(3) + K + 0.5 * K @ K, np.eye(3) + 0.5 * K + K @ K / 6.0
    a = np.sin(th) / th
    b = (1.0 - np.cos(th)) / th**2
    c = (th - np.sin(th)) / th**3
    return np.eye(3) + a * K + b * K @ K, np.eye(3) + b * K + c * K @ K


def free_body_tangent(q_ref, q):
    """First-order body-frame tangent (omega, v) from q_ref to q, for a
    single free joint. Exact to O(|dq|^2), enough for central differences
    at eps = 1e-6 and for the target-reproduction distance."""
    R0 = quat_rotation(q_ref[3:7])
    R1 = quat_rotation(q[3:7])
    W = R0.T @ R1
    w = 0.5 * np.array([W[2, 1] - W[1, 2], W[0, 2] - W[2, 0], W[1, 0] - W[0, 1]])
    return np.concatenate([w, R0.T @ (q[:3] - q_ref[:3])])


def ballistic_step(q, v, dt, gravity, inertia):
    """One contact-free symplectic-Euler step of a single free body with
    its centre of mass at the body origin, in body-frame twist coordinates:
        omega+ = omega - dt I^-1 (omega x I omega)
        v+     = v - dt omega x v + dt R^T g
        (R+, p+) = (R Exp(dt omega+), p + R V(dt omega+) dt v+)."""
    R = quat_rotation(q[3:7])
    w, lin = v[:3], v[3:]
    w_new = w - dt * np.linalg.solve(inertia, np.cross(w, inertia @ w))
    lin_new = lin - dt * np.cross(w, lin) + dt * R.T @ gravity
    E, V = _exp_and_v(dt * w_new)
    return R @ E, q[:3] + R @ V @ (dt * lin_new), np.concatenate([w_new, lin_new])


def check_ballistic(q, v, q_out, v_out, dt, gravity, inertia):
    """A flight step from (q, v) to (q_out, v_out) must match the
    closed-form update."""
    R_new, p_new, v_new = ballistic_step(q, v, dt, gravity, inertia)
    scale = max(1.0, float(np.abs(v).max()))
    err = max(float(np.abs(v_out - v_new).max()) / scale,
              float(np.abs(q_out[:3] - p_new).max()),
              float(np.abs(quat_rotation(q_out[3:7]) - R_new).max()))
    if not err <= BALLISTIC_TOL:
        return [f"flight step differs from the closed-form ballistic update by {err:.3e}"]
    return []


def check_target(q_reached, q_target):
    """A GN solution must reproduce its target final configuration."""
    miss = float(np.linalg.norm(free_body_tangent(q_target, q_reached)))
    if not miss <= TARGET_TOL:
        return [f"GN solution misses its target final state by {miss:.3e}"]
    return []
