"""Reference functions that only the tests use: the friction-cone
projections and the De Saxce correction written out on numpy vectors, the
force cross operator, the ad and P operators assembled block by block,
the SO(3) exponential alone, inverse dynamics and the energies, body
Jacobians and placements, point maps, the frozen-impulse contact-velocity
derivative, the contact layer run one declared pair at a time, and the
tangent-plane basis of a sliding contact, in which the tests restate the
derivative's sliding rows.

cone_project wraps the solver's own scalar projection, so the tests of the
projection check the code the PGS sweep runs. The dynamics oracles are
built from the same stacked body terms as compute_dynamics.
"""
from dataclasses import dataclass

import numpy as np

from diffcontact.collision import NO_CONTACTS, ContactSet, frame_derivative, narrow_phase
from diffcontact.contact import _project
from diffcontact.derivatives import _THETAS, _ContactDiff, _frozen_impulse_rhs
from diffcontact.dynamics import (
    _body_terms,
    _body_wrenches,
    _gravity_offset,
    _rows,
    _times,
    spatial_inertias_world,
)
from diffcontact.model import compute_kinematics
from diffcontact.simulator import _body_rows
from diffcontact.spatial import (
    Placement,
    _so3_exp_and_left_jacobian,
    adjoint_inverse,
    motion_cross,
    skew,
)


def cone_project(lam: np.ndarray, mu: float) -> np.ndarray:
    """Euclidean projection onto the friction cone |lam_T| <= mu lam_N."""
    return np.array(_project(float(lam[0]), float(lam[1]), float(lam[2]), mu))


def dual_cone_project(y: np.ndarray, mu: float) -> np.ndarray:
    """Projection onto the dual cone K_mu^* (= K_{1/mu}; halfspace y_N >= 0
    at mu = 0)."""
    a, b, n = float(y[0]), float(y[1]), float(y[2])
    if mu == 0.0:
        return np.array([a, b, max(n, 0.0)])
    return np.array(_project(a, b, n, 1.0 / mu))


def de_saxce_correction(sigma: np.ndarray, mu) -> np.ndarray:
    """Gamma(sigma): (0, 0, mu |sigma_T|) per contact; accepts stacked
    (3n,) input with mu of shape (n,)."""
    sig = sigma.reshape(-1, 3)
    out = np.zeros_like(sig)
    out[:, 2] = np.asarray(mu) * np.hypot(sig[:, 0], sig[:, 1])
    return out.reshape(sigma.shape)


def force_cross(x: np.ndarray) -> np.ndarray:
    """x x* operator (motion-cross-force): equals -ad_x^T. Stacked like
    motion_cross."""
    return -np.swapaxes(motion_cross(x), -1, -2)


def motion_cross_blocks(x: np.ndarray) -> np.ndarray:
    """ad_x written into zeros as its three skew blocks, stacked over the
    leading axes of x (..., 6)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = skew(x[..., :3])
    out[..., 3:, :3] = skew(x[..., 3:])
    return out


def p_operator_blocks(y: np.ndarray) -> np.ndarray:
    """P_y written into zeros as its three skew blocks, stacked like
    motion_cross_blocks."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[:-1] + (6, 6))
    out[..., :3, :3] = skew(y[..., :3])
    out[..., :3, 3:] = out[..., 3:, :3] = skew(y[..., 3:])
    return out


def so3_exp(w: np.ndarray) -> np.ndarray:
    """exp(skew(w)), the rotation of the library's SO(3) exponential."""
    return _so3_exp_and_left_jacobian(w)[0]


def inverse_dynamics(model, q, v, a) -> np.ndarray:
    """tau with M(q) a + b(q, v) = tau, gravity included."""
    kin = compute_kinematics(model, q)
    J, _, V, _, Xi = _body_terms(model, kin, v)
    f = _body_wrenches(spatial_inertias_world(model, kin), V, J @ a + Xi + _gravity_offset(model))
    return _rows(J).T @ f.ravel()


def kinetic_energy(model, q, v) -> float:
    kin = compute_kinematics(model, q)
    _, _, V, _, _ = _body_terms(model, kin, v)
    return float(0.5 * np.sum(V * _times(spatial_inertias_world(model, kin), V)))


def potential_energy(model, q) -> float:
    """-sum_i m_i g . c_i over the world centers of mass c_i = R_i com_i + p_i."""
    kin = compute_kinematics(model, q)
    mass = np.array([b.mass for b in model.inertias], dtype=float)
    com = np.array([b.com for b in model.inertias], dtype=float).reshape(model.nb, 3)
    com_w = (kin.body_rotations @ com[:, :, None])[:, :, 0] + kin.body_translations
    return -float(mass @ (com_w @ model.gravity))


def body_jacobian_world(model, kin, body: int) -> np.ndarray:
    """World spatial Jacobian of a body: columns vanish off the kinematic
    path."""
    if body < 0:
        return np.zeros((6, model.nv))
    return kin.psi * model.support[:, body]


def body_placement(kin, i: int) -> Placement:
    return Placement(kin.body_rotations[i], kin.body_translations[i])


def act(M: Placement, point: np.ndarray) -> np.ndarray:
    """The image M point of a point under a placement."""
    return M.rotation @ point + M.translation


def orthonormality_error(M: Placement) -> float:
    R = M.rotation
    return float(np.abs(R.T @ R - np.eye(3)).max())


def rhs_contact_velocity(model, state, tau, params, result, theta="q") -> np.ndarray:
    """dG lambda* + dg for one smooth theta block: the frozen-impulse
    derivative of the contact velocity sigma (3n x n_theta)."""
    if theta not in _THETAS:
        raise ValueError("theta must be one of 'q', 'v', 'tau'")
    return _frozen_impulse_rhs(model, state, params, result, [theta])[1][theta]


def detect_contacts_per_pair(model, kin, margin: float) -> ContactSet:
    """simulator.detect_contacts with one narrow_phase call per declared
    pair, each a kind of one, concatenated in pair order: the reference for
    the contacts and the order of the call batched by kind."""
    geoms, R, p = model.geometries, kin.geom_rotations, kin.geom_translations
    found = [narrow_phase(geoms[a].shape, geoms[b].shape, Placement(R[a], p[a]),
                          Placement(R[b], p[b]), margin, (a, b, geoms[a].body, geoms[b].body),
                          pr.mu)
             for pr in model.pairs for a, b in [(pr.geom_a, pr.geom_b)]]
    found = [cs for cs in found if len(cs)]
    if len(found) < 2:
        return found[0] if found else NO_CONTACTS
    return ContactSet(*(np.concatenate(f) for f in zip(*(vars(cs).values() for cs in found))))


def contact_packs_per_pair(model, dyn, contacts) -> _ContactDiff:
    """derivatives._contact_packs with the frame Jacobians rebuilt from dyn
    and one frame_derivative call per contact pair, on that pair's single
    shapes, placements and body twists: the reference for the packs built
    by kind from the step's frame Jacobians."""
    Xc_inv = adjoint_inverse(Placement(contacts.rotation, contacts.point))
    J12 = _body_rows(dyn.J, contacts.bodies)
    cuts = (np.flatnonzero((contacts.pair[1:] != contacts.pair[:-1]).any(axis=1)) + 1).tolist()
    first, ends = [0, *cuts], [*cuts, len(contacts)]
    geoms, R, p = model.geometries, dyn.kin.geom_rotations, dyn.kin.geom_translations
    dM, dphi = zip(*(frame_derivative(geoms[a].shape, geoms[b].shape, Placement(R[a], p[a]),
                                      Placement(R[b], p[b]), contacts[s:e], *J12[s])
                     for (a, b), s, e in zip(contacts.pair[first].tolist(), first, ends)))
    return _ContactDiff(Xc_inv=Xc_inv, Jc6=Xc_inv @ (J12[:, 0] - J12[:, 1]),
                        dM=np.concatenate(dM), dphi_dq=np.concatenate(dphi))


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
    stacked ones ((k, 3), mu (k,)), with the weighting P = blockdiag((1/alpha)
    (I - u u^T), 1), alpha = |sigma_T| / (mu lambda_N); SingularSlidingMode if
    any is degenerate. The sliding rows of the mode equations, in the
    coordinates dlambda = R X, are R^T P (G dlambda + rhs) + diag(0, 1) X = 0."""
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
