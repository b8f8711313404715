"""Articulated rigid-body model: joints, configuration chart, kinematics.

Configurations live on a product of SE(3) blocks (free joints, stored as
translation plus unit quaternion (x, y, z, w)) and scalars (revolute and
prismatic joints). Tangents use body-frame twists for free joints; every
configuration derivative in this package is taken through `integrate`.

Bodies and joints are 1:1; joint i connects body parent(i) (or the world,
parent = -1) to body i. Models are immutable after construction and all
kinematics functions are read-only, so concurrent evaluation on shared
models is safe.

Layout: nothing in the forward kinematics loops over joints. The model
stacks, once, the joint mounting placements, the per-kind body and q
indices, the revolute skew axes K and K^2, the local motion subspace of
every tangent column, and a pointer-jumping schedule: a list of
(dst, src) body indices, one pair per round, with src the body 2^r joints
above dst in round r. compute_kinematics builds every local transform in
one stacked pass per joint kind, then composes them down the tree in
ceil(log2 depth) rounds of T[dst] = T[src] T[dst] (a 48-joint chain takes
6 rounds). Index sets that are consecutive, as on a chain, are stored as
slices, so those reads and writes are views. integrate adds the revolute
and prismatic coordinates with one indexed add; only free joints take the
SE(3) exponential, one by one.

The model also stacks every geometry placement, which compute_kinematics
moves with the bodies as stacked arrays, and builds its collision.PairTable,
which groups the declared pairs by (shape, shape) kind for the contact layer.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .collision import PairTable
from .spatial import (
    Placement,
    _index,
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
    skew,
    spatial_inertia_local,
)

_EYE3 = np.eye(3)
_JOINT_NQ = {"free": 7, "revolute": 1, "prismatic": 1, "fixed": 0}
_JOINT_NV = {"free": 6, "revolute": 1, "prismatic": 1, "fixed": 0}


def _stack_placements(placements):
    """Rotations (n, 3, 3) and translations (n, 3) of a sequence of placements."""
    placements = list(placements)
    return (np.array([m.rotation for m in placements], dtype=float).reshape(-1, 3, 3),
            np.array([m.translation for m in placements], dtype=float).reshape(-1, 3))


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
        self._stack_joints()
        self.pair_table = PairTable(self.geometries, self.pairs)

        if actuated is None:
            actuated = list(range(self.nv))
        self.actuated = list(actuated)
        if any(a < 0 or a >= self.nv for a in self.actuated):
            raise ValueError("actuated indices out of range")

    def _stack_joints(self):
        """Stacked joint data for compute_kinematics and integrate, built once:
        mounting placements, per-kind body and q indices, axes, the local
        motion subspace of every tangent column, the jump schedule and the
        geometry placements."""
        self._mount_rot, self._mount_trans = _stack_placements(j.placement for j in self.joints)

        def of_kind(kind):
            return np.array([i for i, j in enumerate(self.joints) if j.kind == kind], dtype=int)

        def axes(bodies):
            return np.array([self.joints[i].axis for i in bodies], dtype=float).reshape(-1, 3)

        rev, pri, free = of_kind("revolute"), of_kind("prismatic"), of_kind("free")
        self._rev, self._pri, self._free = _index(rev), _index(pri), _index(free)
        self._free_bodies = free
        self._rev_q, self._pri_q = self.q_offsets[rev], self.q_offsets[pri]
        self._free_q = self.q_offsets[free][:, None] + np.arange(7)
        self._scalar_q = _index(np.concatenate([self._rev_q, self._pri_q]))
        self._scalar_v = _index(self.v_offsets[np.concatenate([rev, pri])])
        # Revolute: exp(q K) = I + sin(q) K + (1 - cos(q)) K^2 with K = skew(axis).
        self._rev_K = skew(axes(rev))
        self._rev_K2 = self._rev_K @ self._rev_K
        # Prismatic: the local offset moves along the axis seen in the parent frame.
        self._pri_mount_axis = (self._mount_rot[pri] @ axes(pri)[:, :, None])[:, :, 0]
        # Local motion subspace of each tangent column, (angular, linear):
        # (a, 0) revolute, (0, a) prismatic, the unit twists of a free joint.
        # psi[:, k] is the adjoint of its body's placement applied to it.
        subspace = np.zeros((self.nv, 6))
        subspace[self.v_offsets[rev], :3] = axes(rev)
        subspace[self.v_offsets[pri], 3:] = axes(pri)
        free_cols = (self.v_offsets[free][:, None] + np.arange(6)).ravel()
        subspace[free_cols] = np.tile(np.eye(6), (free.size, 1))
        self._subspace = subspace[:, :, None]
        self._col_body = _index(self.body_of_col)

        # Pointer jumping: after round r, T[i] is the product of the 2^r local
        # transforms ending at i, and jump[i] the body above them (-1 past the
        # root). A round composes T[dst] = T[src] T[dst] with src = jump[dst].
        self._jumps = []
        jump = self.parents.copy()
        while (jump >= 0).any():
            dst = np.flatnonzero(jump >= 0)
            self._jumps.append((_index(dst), _index(jump[dst])))
            jump[dst] = jump[jump[dst]]

        # Every geometry's placement: world for a static one, body-frame for
        # an attached one, which compute_kinematics moves with its body.
        att = [k for k, g in enumerate(self.geometries) if g.body >= 0]
        self._geom_att = _index(att) if att else None
        self._geom_body = _index([self.geometries[k].body for k in att])
        self._geom_rot, self._geom_trans = _stack_placements(g.placement for g in self.geometries)

    def _validate_structure(self):
        if len(self.inertias) != self.nb:
            raise ValueError("need one inertia per body")
        for i, j in enumerate(self.joints):
            if j.kind not in _JOINT_NQ:
                raise ValueError(f"unknown joint kind {j.kind!r}")
            if not -1 <= j.parent < i:
                raise ValueError(f"joint {i} parent {j.parent} breaks tree order")
            if j.kind in ("revolute", "prismatic"):
                if j.axis is None or not abs(np.linalg.norm(j.axis) - 1.0) <= 1e-9:
                    raise ValueError(f"joint {i} needs a unit axis")
        for i, ine in enumerate(self.inertias):
            if not ine.mass > 0.0:  # NaN fails this check and the next
                raise ValueError(f"body {i} mass must be positive")
            I = np.asarray(ine.inertia, dtype=float)
            if not (np.abs(I - I.T).max() <= 1e-12 and np.linalg.eigvalsh(I).min() > 0.0):
                raise ValueError(f"body {i} inertia must be symmetric positive definite")
        for g in self.geometries:
            if not -1 <= g.body < self.nb:
                raise ValueError("geometry attached to unknown body")

    def q_slice(self, i: int) -> slice:
        return slice(int(self.q_offsets[i]), int(self.q_offsets[i + 1]))

    def v_slice(self, i: int) -> slice:
        return slice(int(self.v_offsets[i]), int(self.v_offsets[i + 1]))

    def neutral_configuration(self) -> np.ndarray:
        q = np.zeros(self.nq)
        q[self._free_q[:, 6]] = 1.0
        return q

    def selection_matrix(self) -> np.ndarray:
        return np.eye(self.nv)[self.actuated]

    def check_configuration(self, q: np.ndarray):
        if q.shape != (self.nq,):
            raise ValueError(f"configuration must have shape ({self.nq},)")
        for i, j in enumerate(self.joints):
            if j.kind == "free":
                quat = q[self.q_offsets[i] + 3 : self.q_offsets[i] + 7]
                if not abs(np.linalg.norm(quat) - 1.0) <= 1e-9:
                    raise ValueError(f"joint {i} quaternion is not unit norm")


@dataclass
class Kinematics:
    """Forward-kinematics cache for one configuration."""

    body_rotations: np.ndarray     # (nb, 3, 3)
    body_translations: np.ndarray  # (nb, 3)
    psi: np.ndarray                # (6, nv) world motion-subspace columns
    geom_rotations: np.ndarray     # (ng, 3, 3) world geometry placements
    geom_translations: np.ndarray  # (ng, 3)


def compute_kinematics(model: KinematicModel, q: np.ndarray) -> Kinematics:
    """Forward kinematics: body placements, world joint axes and geometry
    placements, in one stacked pass with no loop over joints.

    Local transforms (mount, then joint motion) are built per joint kind:
    batched Rodrigues I + sin(q) K + (1 - cos(q)) K^2 for revolute joints,
    an offset along the axis for prismatic ones, quat_to_rotation for free
    ones, the mount alone for fixed ones. Pointer jumping composes them in
    ceil(log2 depth) rounds of T[dst] = T[src] T[dst] over the model's jump
    schedule. psi applies each body's adjoint to the local motion subspace
    of its columns; a revolute column is (R_i a_i, p_i x R_i a_i), as the
    joint rotation fixes its own axis."""
    if q.shape != (model.nq,):
        raise ValueError(f"configuration must have shape ({model.nq},)")
    R, p = model._mount_rot.copy(), model._mount_trans.copy()
    if model._rev_q.size:
        th = q[model._rev_q][:, None, None]
        R[model._rev] = R[model._rev] @ (_EYE3 + np.sin(th) * model._rev_K
                                         + (1.0 - np.cos(th)) * model._rev_K2)
    if model._pri_q.size:
        p[model._pri] += model._pri_mount_axis * q[model._pri_q][:, None]
    if model._free_q.size:
        qf = q[model._free_q]
        Rf = R[model._free]
        p[model._free] += (Rf @ qf[:, :3, None])[:, :, 0]
        R[model._free] = Rf @ quat_to_rotation(qf[:, 3:])
    for dst, src in model._jumps:
        Rs = R[src]
        p[dst] = (Rs @ p[dst, :, None])[:, :, 0] + p[src]
        R[dst] = Rs @ R[dst]

    X = adjoint(Placement(R, p))
    psi = np.ascontiguousarray((X[model._col_body] @ model._subspace)[:, :, 0].T)

    Rg, pg = model._geom_rot.copy(), model._geom_trans.copy()
    if model._geom_att is not None:
        att, Rb = model._geom_att, R[model._geom_body]
        Rg[att] = Rb @ model._geom_rot[att]
        pg[att] = (Rb @ model._geom_trans[att, :, None])[:, :, 0] + p[model._geom_body]
    return Kinematics(R, p, psi, Rg, pg)


def integrate(model: KinematicModel, q: np.ndarray, dq: np.ndarray) -> np.ndarray:
    """Configuration update q (+) dq: one indexed add on the revolute and
    prismatic coordinates; free-joint blocks compose with the SE(3)
    exponential of the body-frame twist."""
    if q.shape != (model.nq,) or dq.shape != (model.nv,):
        raise ValueError("integrate: dimension mismatch")
    out = q.copy()
    out[model._scalar_q] = q[model._scalar_q] + dq[model._scalar_v]
    for i in model._free_bodies:
        qs, vs = model.q_slice(i), model.v_slice(i)
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
    out[model._scalar_v] = q1[model._scalar_q] - q0[model._scalar_q]
    for i in model._free_bodies:
        qs, vs = model.q_slice(i), model.v_slice(i)
        M0 = Placement(quat_to_rotation(q0[qs][3:]), q0[qs][:3])
        M1 = Placement(quat_to_rotation(q1[qs][3:]), q1[qs][:3])
        out[vs] = se3_log(M0.inverse().compose(M1))
    return out


def integrate_jacobians(model: KinematicModel, dq):
    """Partials of integrate(q, dq) w.r.t. the tangents of q and dq; in this
    chart they depend on dq alone.

    Both are nv x nv block-diagonal; the q block is expressed in the tangent
    at the result."""
    Dq = np.eye(model.nv)
    Dd = np.eye(model.nv)
    for i in model._free_bodies:
        vs = model.v_slice(i)
        delta = dq[vs]
        Dq[vs, vs] = adjoint_inverse(se3_exp(delta))
        Dd[vs, vs] = se3_right_jacobian(delta)
    return Dq, Dd


def difference_jacobian(model: KinematicModel, q0, q1) -> np.ndarray:
    """Partial of difference(q0, q1) w.r.t. the tangent of q1."""
    r = difference(model, q0, q1)
    D = np.eye(model.nv)
    for i in model._free_bodies:
        vs = model.v_slice(i)
        D[vs, vs] = se3_right_jacobian_inverse(r[vs])
    return D


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
