"""Collision primitives, narrow phase and contact-frame derivatives.

Supported pairs: sphere-halfspace, sphere-sphere, box-halfspace (body
geometry first, environment halfspace second). Contact frames have z along
the contact normal, which points from geometry 2 toward geometry 1.
Plane contacts are placed on the plane; sphere-sphere contacts at the
midpoint of the two surface points.

Contacts travel as one ContactSet of stacked arrays. Each pair has one
contact normal, so every contact of the pair (each box corner) shares one
frame rotation.

frame_derivative differentiates the contacts of one pair in closed form
along the world twists of the two geometries, one column per joint-space
direction: pass rows of the step's body Jacobians and it returns the
frames' local twists and signed-distance rates, with no second
narrow-phase pass. The rotation rates are read off the frame's own axes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import Placement, _cross, skew


class UnsupportedCollisionPair(ValueError):
    pass


@dataclass(frozen=True)
class Halfspace:
    """Points x with normal . x <= offset (in the geometry frame) are
    inside the support; the boundary plane is the collision surface."""

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        n = np.linalg.norm(self.normal)
        if not abs(n - 1.0) <= 1e-9:
            raise ValueError("halfspace normal must be unit length")


@dataclass(frozen=True)
class Sphere:
    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("sphere radius must be positive")


@dataclass(frozen=True)
class Box:
    half_extents: np.ndarray

    def __post_init__(self):
        he = np.asarray(self.half_extents, dtype=float)
        if he.shape != (3,) or np.any(he <= 0.0):
            raise ValueError("box half extents must be three positive numbers")


@dataclass(frozen=True)
class ContactFrame:
    """One contact, as indexing or iterating a ContactSet yields it: world
    placement (z axis = normal), signed distance and warm-start key."""

    placement: Placement
    signed_distance: float
    pair: tuple
    feature: int
    boundary: bool


@dataclass(frozen=True, eq=False)
class ContactSet:
    """Contacts stacked in pair-major order, carrying pair, bodies and
    friction. `boundary` marks a box face tie or a normal on the tangent-basis
    reference switch, where the contact frame is not differentiable. An int
    index gives a ContactFrame, a slice or index array a ContactSet."""

    rotation: np.ndarray   # (n, 3, 3) frame rotations, shared within a pair
    point: np.ndarray      # (n, 3) world contact points
    phi: np.ndarray        # (n,) signed distances
    feature: np.ndarray    # (n,) int feature ids (box corner bits)
    boundary: np.ndarray   # (n,) bool
    pair: np.ndarray       # (n, 2) int geometry indices
    bodies: np.ndarray     # (n, 2) int bodies of the two geometries, -1 = environment
    friction: np.ndarray   # (n,)

    def __len__(self) -> int:
        return len(self.phi)

    def __getitem__(self, i):
        if not isinstance(i, (int, np.integer)):
            return ContactSet(*[a[i] for a in vars(self).values()])
        return ContactFrame(Placement(self.rotation[i], self.point[i]), float(self.phi[i]),
                            tuple(self.pair[i].tolist()), int(self.feature[i]),
                            bool(self.boundary[i]))

    def keys(self) -> list:
        """(pair, feature) of each contact, the key of its warm start."""
        return list(zip(map(tuple, self.pair.tolist()), self.feature.tolist()))


NO_CONTACTS = ContactSet(np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros(0), np.zeros(0, int),
                         np.zeros(0, bool), np.zeros((0, 2), int), np.zeros((0, 2), int),
                         np.zeros(0))


_REF_SWITCH = 0.99


def frame_from_normal(n: np.ndarray) -> np.ndarray:
    """Deterministic tangent basis: x from projecting world-x onto the
    tangent plane (world-y when nearly parallel), y completes right-handed."""
    if abs(n[0]) <= _REF_SWITCH:
        ref = np.array([1.0, 0.0, 0.0])
    else:
        ref = np.array([0.0, 1.0, 0.0])
    x = ref - (n @ ref) * n
    x = x / np.linalg.norm(x)
    return np.stack([x, np.array(_cross(n, x)), n], axis=1)


def _records_sphere_halfspace(s: Sphere, h: Halfspace, M1, M2):
    n = M2.rotation @ h.normal
    c = M1.translation
    phi = float(n @ (c - M2.translation) - h.offset - s.radius)
    return n, (c - (phi + s.radius) * n)[None], np.array([phi]), np.zeros(1, dtype=int), False


def _records_sphere_sphere(s1: Sphere, s2: Sphere, M1, M2):
    d = M1.translation - M2.translation
    dist = float(np.linalg.norm(d))
    if dist < 1e-9:
        raise ValueError("sphere centers coincide; contact normal undefined")
    n = d / dist
    phi = dist - s1.radius - s2.radius
    p = 0.5 * (M1.translation + M2.translation) + 0.5 * (s2.radius - s1.radius) * n
    return n, p[None], np.array([phi]), np.zeros(1, dtype=int), False


# Signs (sa, sb) of a box's four corners along its two free axes, in corner order.
_CORNER_SIGNS = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


def _records_box_halfspace(b: Box, h: Halfspace, M1, M2):
    n = M2.rotation @ h.normal
    n_body = M1.rotation.T @ n
    order = np.argsort(-np.abs(n_body))
    k_face = int(order[0])
    face_tie = bool(abs(abs(n_body[order[0]]) - abs(n_body[order[1]])) < 1e-6)
    free = [a for a in range(3) if a != k_face]
    he = np.asarray(b.half_extents, dtype=float)
    x = np.empty((4, 3))
    x[:, k_face] = -np.sign(n_body[k_face]) * he[k_face]
    x[:, free] = _CORNER_SIGNS * he[free]
    w = M1.translation + (M1.rotation @ x[:, :, None])[:, :, 0]
    phi = ((w - M2.translation)[:, None, :] @ n)[:, 0] - h.offset
    return n, w - phi[:, None] * n, phi, (x > 0) @ np.array([1, 2, 4]), face_tie


def _contact_records(shape1, shape2, M1, M2):
    """(normal, points, phis, features, face_tie) of one pair: its one
    normal, the stacked candidate contacts before the margin test, and
    whether two box faces tie."""
    if isinstance(shape1, Sphere) and isinstance(shape2, Halfspace):
        return _records_sphere_halfspace(shape1, shape2, M1, M2)
    if isinstance(shape1, Sphere) and isinstance(shape2, Sphere):
        return _records_sphere_sphere(shape1, shape2, M1, M2)
    if isinstance(shape1, Box) and isinstance(shape2, Halfspace):
        return _records_box_halfspace(shape1, shape2, M1, M2)
    raise UnsupportedCollisionPair(
        f"no narrow phase for ({type(shape1).__name__}, {type(shape2).__name__}); "
        "supported: (Sphere|Box, Halfspace) and (Sphere, Sphere)"
    )


def pair_supported(shape1, shape2) -> bool:
    """True if narrow_phase handles (shape1, shape2) in this order."""
    if isinstance(shape1, Sphere):
        return isinstance(shape2, (Halfspace, Sphere))
    return isinstance(shape1, Box) and isinstance(shape2, Halfspace)


def narrow_phase(shape1, shape2, M1: Placement, M2: Placement, margin: float = 1e-4,
                 ids=(-1, -1, -1, -1), mu: float = 0.0) -> ContactSet:
    """Contacts between two geometries, at most margin above touch, sharing
    one frame rotation (the pair has one normal). Each is labelled with
    ids = (geom_a, geom_b, body1, body2) and friction mu."""
    n, points, phi, features, face_tie = _contact_records(shape1, shape2, M1, M2)
    keep = phi <= margin
    if not keep.any():
        return NO_CONTACTS
    if not keep.all():
        points, phi, features = points[keep], phi[keep], features[keep]
    boundary, k = bool(face_tie or abs(abs(n[0]) - _REF_SWITCH) < 1e-6), len(phi)
    ids = np.array([ids] * k, dtype=int)
    return ContactSet(np.array([frame_from_normal(n)] * k), points, phi, features,
                      np.array([boundary] * k), ids[:, :2], ids[:, 2:], np.array([mu] * k, float))


def _point_velocity(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Velocities (..., 3, m) of the points x (..., 3) moving with world
    twist columns T (6, m)."""
    return T[3:] - skew(x) @ T[:3]


def frame_derivative(shape1, shape2, M1: Placement, M2: Placement, contacts: ContactSet,
                     T1: np.ndarray, T2: np.ndarray):
    """Differential of the k narrow_phase contacts of one pair along world
    twist columns T1, T2 (6, m) of the two geometries (zero for a static one).

    Returns dM (k, 6, m), the frames' local twists (angular first), and dphi
    (k, m), the signed-distance rates. A halfspace contact lies below the
    anchor a = p + (phi + s) n on geometry 1 (s the sphere radius, or 0 at a
    box corner); the normal turns with geometry 2, dn = -skew(n) T2[:3].

    The rotation rates are read off the frame's own axes R_c = [x y n]:
    dn = w x n gives the tangential rates (-y.dn, x.dn), and dx = w x x with
    x[k] = ref.x = |ref - (n.ref) n| (ref = e_k of frame_from_normal) gives
    the normal rate -(n[k] / x[k]) y.dn. A static normal gives exactly zero."""
    R_c = contacts.rotation[0]
    x, y, n = R_c.T
    if isinstance(shape2, Sphere):
        c1, c2 = M1.translation, M2.translation
        v1, v2 = _point_velocity(T1, c1), _point_velocity(T2, c2)
        dd = v1 - v2
        dn = (dd - np.outer(n, n @ dd)) / float(np.linalg.norm(c1 - c2))
        dphi = (n @ dd)[None]
        dp = (0.5 * (v1 + v2) + 0.5 * (shape2.radius - shape1.radius) * dn)[None]
    else:
        depth = contacts.phi + (shape1.radius if isinstance(shape1, Sphere) else 0.0)
        a = contacts.point + depth[:, None] * n
        va = _point_velocity(T1, a)
        dn = -skew(n) @ T2[:3]
        dphi = n @ (va - _point_velocity(T2, a))
        dp = va - n[:, None] * dphi[:, None, :] - depth[:, None, None] * dn
    k = 0 if abs(n[0]) <= _REF_SWITCH else 1
    y_dn = y @ dn
    dM = np.empty((len(dp), 6, dn.shape[1]))
    dM[:, :3] = -y_dn, x @ dn, -(n[k] / x[k]) * y_dn
    dM[:, 3:] = R_c.T @ dp
    return dM, dphi
