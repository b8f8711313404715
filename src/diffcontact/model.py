"""Articulated rigid-body model: joints, configuration chart, kinematics.

Configurations live on a product of SE(3) blocks (free joints, stored as
translation plus unit quaternion (x, y, z, w)) and scalars (revolute and
prismatic joints). Tangents use body-frame twists for free joints; every
configuration derivative in this package is taken through `integrate`.

Bodies and joints are 1:1; joint i connects body parent(i) (or the world,
parent = -1) to body i. Models are immutable after construction and all
kinematics functions are read-only, so concurrent evaluation on shared
models is safe.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spatial import (
    Placement,
    _cross,
    adjoint,
    adjoint_inverse,
    motion_cross,
    motion_cross_cols,
    quat_to_rotation,
    rotation_to_quat,
    se3_exp,
    se3_log,
    se3_right_jacobian,
    se3_right_jacobian_inverse,
    so3_exp,
    spatial_inertia_local,
)

_JOINT_NQ = {"free": 7, "revolute": 1, "prismatic": 1, "fixed": 0}
_JOINT_NV = {"free": 6, "revolute": 1, "prismatic": 1, "fixed": 0}


@dataclass(frozen=True)
class JointSpec:
    """One joint: kind, parent body index (-1 = world), mounting placement
    in the parent frame, and axis (unit, in the joint frame) for scalar
    joints."""

    kind: str
    parent: int
    placement: Placement = field(default_factory=Placement.identity)
    axis: np.ndarray | None = None


@dataclass(frozen=True)
class BodyInertia:
    """Mass, center of mass (body frame) and rotational inertia about the
    center of mass (body frame)."""

    mass: float
    com: np.ndarray
    inertia: np.ndarray


@dataclass(frozen=True)
class Geometry:
    """Collision geometry attached to a body (-1 = static environment).

    `shape` is one of the primitives from the collision module; this module
    treats it as opaque."""

    body: int
    shape: object
    placement: Placement = field(default_factory=Placement.identity)


@dataclass(frozen=True)
class FrictionPair:
    """Declared collision pair between two geometry indices."""

    geom_a: int
    geom_b: int
    mu: float


class KinematicModel:
    """Immutable articulated model with collision geometry and actuation."""

    def __init__(self, joints, inertias, geometries=(), pairs=(),
                 gravity=(0.0, 0.0, -9.81), actuated=None, name=""):
        self.joints = list(joints)
        self.inertias = list(inertias)
        self.geometries = list(geometries)
        self.pairs = list(pairs)
        self.gravity = np.asarray(gravity, dtype=float)
        self.name = name
        self.nb = len(self.joints)
        self._validate_structure()

        self.q_offsets = np.zeros(self.nb + 1, dtype=int)
        self.v_offsets = np.zeros(self.nb + 1, dtype=int)
        for i, j in enumerate(self.joints):
            self.q_offsets[i + 1] = self.q_offsets[i] + _JOINT_NQ[j.kind]
            self.v_offsets[i + 1] = self.v_offsets[i] + _JOINT_NV[j.kind]
        self.nq = int(self.q_offsets[-1])
        self.nv = int(self.v_offsets[-1])
        self.parents = np.array([j.parent for j in self.joints], dtype=int)

        # support[k, i]: tangent column k belongs to a joint on the path
        # from the root to body i (inclusive). anc[i, b]: body b is on that
        # path, so anc @ X sums a per-body term X over each body's path.
        self.support = np.zeros((self.nv, self.nb), dtype=bool)
        self.anc = np.zeros((self.nb, self.nb), dtype=bool)
        body_of_col = np.zeros(self.nv, dtype=int)
        for i in range(self.nb):
            b = i
            while b >= 0:
                self.support[self.v_slice(b), i] = True
                self.anc[i, b] = True
                body_of_col[self.v_slice(b)] = b
                b = int(self.parents[b])
        self.body_of_col = body_of_col
        # col_owner[k, i]: tangent column k belongs to body i's own joint.
        self.col_owner = body_of_col[:, None] == np.arange(self.nb)
        # row_support[r, k]: column k's joint supports the body carrying
        # tangent row r. Used by the analytic inverse-dynamics derivatives.
        self.row_support = self.support[:, self.body_of_col].T
        # Stacked body-frame spatial inertias (nb, 6, 6) for the dynamics.
        self._inertia_local = np.array(
            [spatial_inertia_local(b.mass, b.com, b.inertia) for b in self.inertias]
        ).reshape(self.nb, 6, 6)

        if actuated is None:
            actuated = list(range(self.nv))
        self.actuated = list(actuated)
        if any(a < 0 or a >= self.nv for a in self.actuated):
            raise ValueError("actuated indices out of range")

    def _validate_structure(self):
        if len(self.inertias) != self.nb:
            raise ValueError("need one inertia per body")
        for i, j in enumerate(self.joints):
            if j.kind not in _JOINT_NQ:
                raise ValueError(f"unknown joint kind {j.kind!r}")
            if not -1 <= j.parent < i:
                raise ValueError(f"joint {i} parent {j.parent} breaks tree order")
            if j.kind in ("revolute", "prismatic"):
                if j.axis is None or abs(np.linalg.norm(j.axis) - 1.0) > 1e-9:
                    raise ValueError(f"joint {i} needs a unit axis")
        for i, ine in enumerate(self.inertias):
            if ine.mass <= 0.0:
                raise ValueError(f"body {i} mass must be positive")
            I = np.asarray(ine.inertia, dtype=float)
            if np.abs(I - I.T).max() > 1e-12 or np.linalg.eigvalsh(I).min() <= 0.0:
                raise ValueError(f"body {i} inertia must be symmetric positive definite")
        for g in self.geometries:
            if not -1 <= g.body < self.nb:
                raise ValueError("geometry attached to unknown body")
        for p in self.pairs:
            ng = len(self.geometries)
            if not (0 <= p.geom_a < ng and 0 <= p.geom_b < ng):
                raise ValueError("pair references unknown geometry")
            if p.mu < 0.0:
                raise ValueError("friction coefficient must be >= 0")

    def q_slice(self, i: int) -> slice:
        return slice(int(self.q_offsets[i]), int(self.q_offsets[i + 1]))

    def v_slice(self, i: int) -> slice:
        return slice(int(self.v_offsets[i]), int(self.v_offsets[i + 1]))

    def neutral_configuration(self) -> np.ndarray:
        q = np.zeros(self.nq)
        for i, j in enumerate(self.joints):
            if j.kind == "free":
                q[self.q_offsets[i] + 6] = 1.0
        return q

    def selection_matrix(self) -> np.ndarray:
        S = np.zeros((len(self.actuated), self.nv))
        for row, idx in enumerate(self.actuated):
            S[row, idx] = 1.0
        return S

    def check_configuration(self, q: np.ndarray):
        if q.shape != (self.nq,):
            raise ValueError(f"configuration must have shape ({self.nq},)")
        for i, j in enumerate(self.joints):
            if j.kind == "free":
                quat = q[self.q_offsets[i] + 3 : self.q_offsets[i] + 7]
                if abs(np.linalg.norm(quat) - 1.0) > 1e-9:
                    raise ValueError(f"joint {i} quaternion is not unit norm")


@dataclass
class Kinematics:
    """Forward-kinematics cache for one configuration."""

    q: np.ndarray
    body_rotations: np.ndarray     # (nb, 3, 3)
    body_translations: np.ndarray  # (nb, 3)
    psi: np.ndarray                # (6, nv) world motion-subspace columns
    geom_placements: list

    def body_placement(self, i: int) -> Placement:
        return Placement(self.body_rotations[i], self.body_translations[i])


def compute_kinematics(model: KinematicModel, q: np.ndarray) -> Kinematics:
    """Forward kinematics: body placements and world joint axes."""
    if q.shape != (model.nq,):
        raise ValueError(f"configuration must have shape ({model.nq},)")
    nb = model.nb
    R = np.empty((nb, 3, 3))
    p = np.empty((nb, 3))
    psi = np.zeros((6, model.nv))
    for i, joint in enumerate(model.joints):
        par = joint.parent
        if par >= 0:
            Rx = R[par] @ joint.placement.rotation
            px = R[par] @ joint.placement.translation + p[par]
        else:
            Rx = joint.placement.rotation
            px = joint.placement.translation
        qi = q[model.q_slice(i)]
        c0 = int(model.v_offsets[i])
        if joint.kind == "revolute":
            axis_w = Rx @ joint.axis
            R[i] = Rx @ so3_exp(joint.axis * qi[0])
            p[i] = px
            psi[:3, c0] = axis_w
            psi[3:, c0] = _cross(px, axis_w)
        elif joint.kind == "prismatic":
            axis_w = Rx @ joint.axis
            R[i] = Rx
            p[i] = px + axis_w * qi[0]
            psi[3:, c0] = axis_w
        elif joint.kind == "free":
            R[i] = Rx @ quat_to_rotation(qi[3:])
            p[i] = Rx @ qi[:3] + px
            psi[:, c0 : c0 + 6] = adjoint(Placement(R[i], p[i]))
        else:  # fixed
            R[i], p[i] = Rx, px
    geom_placements = []
    for g in model.geometries:
        if g.body < 0:
            geom_placements.append(g.placement)
        else:
            geom_placements.append(
                Placement(R[g.body], p[g.body]).compose(g.placement)
            )
    return Kinematics(q, R, p, psi, geom_placements)


def integrate(model: KinematicModel, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Configuration update q (+) dq; free-joint blocks compose with the
    SE(3) exponential of the body-frame twist."""
    if q.shape != (model.nq,) or dq.shape != (model.nv,):
        raise ValueError("integrate: dimension mismatch")
    out = q.copy()
    for i, joint in enumerate(model.joints):
        qs, vs = model.q_slice(i), model.v_slice(i)
        if joint.kind in ("revolute", "prismatic"):
            out[qs] = q[qs] + dq[vs]
        elif joint.kind == "free":
            M = Placement(quat_to_rotation(q[qs][3:]), q[qs][:3])
            M2 = M.compose(se3_exp(dq[vs]))
            out[qs.start : qs.start + 3] = M2.translation
            out[qs.start + 3 : qs.stop] = rotation_to_quat(M2.rotation)
    return out


def difference(model: KinematicModel, q0: np.ndarray, q1: np.ndarray) -> np.ndarray:
    """Tangent dv with integrate(model, q0, dv) == q1 (shortest arc)."""
    if q0.shape != (model.nq,) or q1.shape != (model.nq,):
        raise ValueError("difference: dimension mismatch")
    out = np.zeros(model.nv)
    for i, joint in enumerate(model.joints):
        qs, vs = model.q_slice(i), model.v_slice(i)
        if joint.kind in ("revolute", "prismatic"):
            out[vs] = q1[qs] - q0[qs]
        elif joint.kind == "free":
            M0 = Placement(quat_to_rotation(q0[qs][3:]), q0[qs][:3])
            M1 = Placement(quat_to_rotation(q1[qs][3:]), q1[qs][:3])
            out[vs] = se3_log(M0.inverse().compose(M1))
    return out


def integrate_jacobians(model: KinematicModel, q, dq):
    """Partials of integrate(q, dq) w.r.t. the tangents of q and dq.

    Both are nv x nv block-diagonal; the q block is expressed in the tangent
    at the result."""
    Dq = np.eye(model.nv)
    Dd = np.eye(model.nv)
    for i, joint in enumerate(model.joints):
        if joint.kind == "free":
            vs = model.v_slice(i)
            delta = dq[vs]
            Dq[vs, vs] = adjoint_inverse(se3_exp(delta))
            Dd[vs, vs] = se3_right_jacobian(delta)
    return Dq, Dd


def difference_jacobian(model: KinematicModel, q0, q1) -> np.ndarray:
    """Partial of difference(q0, q1) w.r.t. the tangent of q1."""
    D = np.eye(model.nv)
    for i, joint in enumerate(model.joints):
        if joint.kind == "free":
            qs, vs = model.q_slice(i), model.v_slice(i)
            M0 = Placement(quat_to_rotation(q0[qs][3:]), q0[qs][:3])
            M1 = Placement(quat_to_rotation(q1[qs][3:]), q1[qs][:3])
            r = se3_log(M0.inverse().compose(M1))
            D[vs, vs] = se3_right_jacobian_inverse(r)
    return D


def body_jacobian_world(model: KinematicModel, kin: Kinematics, body: int) -> np.ndarray:
    """World spatial Jacobian of a body: columns vanish off the kinematic
    path."""
    if body < 0:
        return np.zeros((6, model.nv))
    return kin.psi * model.support[:, body]


def _parent_rows(model: KinematicModel, X: np.ndarray) -> np.ndarray:
    """X[parent(i)] for every body i along axis 0; zero where i is a root."""
    return np.concatenate([X, np.zeros_like(X[:1])])[model.parents]


def _body_terms(model: KinematicModel, kin: Kinematics, v: np.ndarray):
    """Stacked per-body terms at tangent velocity v, read off the masks in
    one pass with no loop over bodies.

    Returns (J, W, V, Vp, Xi): the body Jacobians J_i = psi * support[:, i]
    (nb, 6, nv); the joint twists W_i = psi v on body i's own columns; the
    body twists V = anc @ W; the parent twists Vp (zero at a root); and the
    velocity-product accelerations Xi = anc @ (Vp x W), all (nb, 6)."""
    J = kin.psi * model.support.T[:, None, :]
    W, V, Vp = _body_twists(model, kin, v)
    Xi = model.anc @ motion_cross_cols(Vp[:, :, None], W)[:, :, 0]
    return J, W, V, Vp, Xi


def _body_twists(model: KinematicModel, kin: Kinematics, v: np.ndarray):
    """(W, V, Vp) of _body_terms alone: joint, body and parent twists."""
    W = ((kin.psi * v) @ model.col_owner).T
    V = model.anc @ W
    return W, V, _parent_rows(model, V)


def jv_q_derivatives(model: KinematicModel, kin: Kinematics, v: np.ndarray):
    """d(J_i^w v)/dq for every body i, with v held fixed.

    Returns (dJv, V): dJv has shape (nb, 6, nv), V the body velocities.
    Column k of body i is psi_k x (V_i - V_above(k)) on the kinematic path
    and zero elsewhere, where V_above(k) is the twist of the parent of the
    body that owns column k."""
    _, V, Vp = _body_twists(model, kin, v)
    return _jv_q(model, kin, V, Vp), V


def _jv_q(model: KinematicModel, kin: Kinematics, V: np.ndarray, Vp: np.ndarray):
    """jv_q_derivatives from given body and parent twists V, Vp (nb, 6).

    psi_k x (V_i - Vp_b) = ad(Vp_b) psi_k - ad(V_i) psi_k, and the first
    term (b the body owning column k) is the same for every body i."""
    C = (motion_cross(Vp[model.body_of_col]) @ kin.psi.T[:, :, None])[:, :, 0].T
    return (C - motion_cross(V) @ kin.psi) * model.support.T[:, None, :]
