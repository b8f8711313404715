"""Collision primitives, narrow phase and contact-frame derivatives.

Supported pairs: sphere-halfspace, sphere-sphere, box-halfspace (body
geometry first, environment halfspace second). Contact frames have z along
the contact normal, which points from geometry 2 toward geometry 1.
Plane contacts are placed on the plane; sphere-sphere contacts at the
midpoint of the two surface points.

The layer is batched by (shape, shape) kind. A PairTable groups a model's
declared pairs by kind once, with each side's shapes stacked into one shape
of the class (stack_shapes: every field gains a leading pair axis), and
owns every lookup from a contact back to its pair. narrow_phase then runs
once per kind over the stacked placements, the table merges the kinds'
contacts into pair-major order, and its frame_derivative runs the module's
frame_derivative once per kind over the kind's contacts. One pair's single
shapes and placements are a kind of one and take the same code.

Contacts travel as one ContactSet of stacked arrays. Each pair has one
contact normal, so every contact of the pair (each box corner) shares one
frame rotation.

frame_derivative differentiates contacts in closed form along the world
twists of their two geometries, one column per joint-space direction:
pass rows of the step's body Jacobians and it returns the frames' local
twists and signed-distance rates, with no second narrow-phase pass. The
rotation rates are read off the frame's own axes.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .spatial import Placement, _cross, _index, skew


class UnsupportedCollisionPair(ValueError):
    pass


@dataclass(frozen=True)
class Halfspace:
    """Points x with normal . x <= offset (in the geometry frame) are
    inside the support; the boundary plane is the collision surface."""

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        n = np.linalg.norm(self.normal, axis=-1)
        if not np.all(np.abs(n - 1.0) <= 1e-9):
            raise ValueError("halfspace normal must be unit length")


@dataclass(frozen=True)
class Sphere:
    radius: float

    def __post_init__(self):
        if np.any(np.asarray(self.radius) <= 0.0):
            raise ValueError("sphere radius must be positive")


@dataclass(frozen=True)
class Box:
    half_extents: np.ndarray

    def __post_init__(self):
        he = np.asarray(self.half_extents, dtype=float)
        if he.shape[-1:] != (3,) or np.any(he <= 0.0):
            raise ValueError("box half extents must be three positive numbers")


def stack_shapes(shapes):
    """Shapes of one class as one shape of that class whose fields are
    stacked along a leading axis, in the given order."""
    cls = type(shapes[0])
    return cls(*(np.array([getattr(s, f.name) for s in shapes], dtype=float)
                 for f in fields(cls)))


def take_shapes(stacked, idx):
    """The stacked shapes at positions idx, as a stack of the same class. Its
    fields are read off shapes that were validated when they were built, so
    the copy is not validated again."""
    out = object.__new__(type(stacked))
    out.__dict__.update((name, value[idx]) for name, value in vars(stacked).items())
    return out


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
_EYE3 = np.eye(3)


def _dots(a, b):
    """Row-wise a . b of (..., 3) vectors, each as the 1 x 3 by 3 x 1 product
    that a 1-D a @ b computes."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def frame_from_normal(n: np.ndarray) -> np.ndarray:
    """Deterministic tangent bases [x y n] of a normal (3,) or of normals
    (k, 3), shaped (3, 3) or (k, 3, 3): x from projecting world-x onto the
    tangent plane (world-y when nearly parallel), y completes right-handed."""
    n = np.asarray(n, dtype=float)
    ref_x = np.abs(n[..., 0]) <= _REF_SWITCH
    x = _EYE3[np.where(ref_x, 0, 1)] - np.where(ref_x, n[..., 0], n[..., 1])[..., None] * n
    x = x / np.sqrt(_dots(x, x))[..., None]
    frames = np.empty(n.shape + (3,))
    frames[..., 0], frames[..., 2] = x, n
    for i, y_i in enumerate(_cross(n.T, x.T)):
        frames[..., i, 1] = y_i
    return frames


# The record functions take k pairs of one kind: stacked shapes and
# placements (rotations (k, 3, 3), translations (k, 3)). Each returns the
# pairs' normals (k, 3), candidate points (k, c, 3), signed distances and
# features (k, c) before the margin test, and face ties (k,).

def _records_sphere_halfspace(s: Sphere, h: Halfspace, M1, M2):
    n = (M2.rotation @ h.normal[:, :, None])[:, :, 0]
    c = M1.translation
    phi = _dots(n, c - M2.translation) - h.offset - s.radius
    points = c - (phi + s.radius)[:, None] * n
    k = len(phi)
    return n, points[:, None], phi[:, None], np.zeros((k, 1), dtype=int), np.zeros(k, bool)


def _records_sphere_sphere(s1: Sphere, s2: Sphere, M1, M2):
    d = M1.translation - M2.translation
    dist = np.sqrt(_dots(d, d))
    if (dist < 1e-9).any():
        raise ValueError("sphere centers coincide; contact normal undefined")
    n = d / dist[:, None]
    phi = dist - s1.radius - s2.radius
    p = 0.5 * (M1.translation + M2.translation) + (0.5 * (s2.radius - s1.radius))[:, None] * n
    k = len(phi)
    return n, p[:, None], phi[:, None], np.zeros((k, 1), dtype=int), np.zeros(k, bool)


# A box's four corners (x > 0 bits, features) and their signs on each axis,
# in corner order, by the axis k that faces the plane and whether the normal
# points down it (n_body[k] < 0): signs (sa, sb) on the two free axes, and on
# axis k the sign of the face's side, -sign(n_body[k]).
_CORNER_SIGNS = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
_CORNERS = np.ones((3, 2, 4, 3))
for _k, _free in enumerate(([1, 2], [0, 2], [0, 1])):
    _CORNERS[_k, 0, :, _k] = -1.0
    for _i, _a in enumerate(_free):
        _CORNERS[_k, :, :, _a] = _CORNER_SIGNS[:, _i]
_CORNER_FEATURES = (_CORNERS > 0) @ np.array([1, 2, 4])


def _records_box_halfspace(b: Box, h: Halfspace, M1, M2):
    n = (M2.rotation @ h.normal[:, :, None])[:, :, 0]
    n_body = (np.swapaxes(M1.rotation, -1, -2) @ n[:, :, None])[:, :, 0]
    mag = np.abs(n_body)
    k_face, top = np.argmax(mag, axis=-1), np.sort(mag, axis=-1)
    face_tie = np.abs(top[:, 2] - top[:, 1]) < 1e-6
    corner = (k_face, (n_body[np.arange(len(n)), k_face] < 0.0).astype(int))
    x = b.half_extents[:, None, :] * _CORNERS[corner]
    w = M1.translation[:, None, :] + (M1.rotation[:, None] @ x[..., None])[..., 0]
    phi = _dots(w - M2.translation[:, None, :], n[:, None, :]) - h.offset[:, None]
    return n, w - phi[..., None] * n[:, None, :], phi, _CORNER_FEATURES[corner], face_tie


_RECORDS = {
    (Sphere, Halfspace): _records_sphere_halfspace,
    (Sphere, Sphere): _records_sphere_sphere,
    (Box, Halfspace): _records_box_halfspace,
}


def _unsupported(shape1, shape2) -> str:
    return (f"no narrow phase for ({type(shape1).__name__}, {type(shape2).__name__}); "
            "supported: (Sphere|Box, Halfspace) and (Sphere, Sphere)")


def _contact_records(shape1, shape2, M1, M2):
    """(normals, points, phis, features, face_ties) of k pairs of one kind:
    each pair's one normal, its stacked candidate contacts before the margin
    test, and whether two box faces tie."""
    records = _RECORDS.get((type(shape1), type(shape2)))
    if records is None:
        raise UnsupportedCollisionPair(_unsupported(shape1, shape2))
    return records(shape1, shape2, M1, M2)


def pair_supported(shape1, shape2) -> bool:
    """True if narrow_phase handles (shape1, shape2) in this order."""
    return (type(shape1), type(shape2)) in _RECORDS


@dataclass(frozen=True)
class PairKind:
    """The declared pairs of one (shape, shape) kind, in declaration order."""

    pairs: np.ndarray     # (k,) positions in the declared pair list
    shape1: object        # the k shapes of side 1 (geom_a), stacked (stack_shapes)
    shape2: object
    ids: np.ndarray       # (k, 4) geom_a, geom_b, body of geom_a, body of geom_b
    mu: np.ndarray        # (k,) friction coefficients
    geoms: tuple          # rows of geom_a and geom_b, as slices when consecutive


class PairTable:
    """A model's declared pairs grouped by (shape, shape) kind, built once
    with the model: the kinds (in order of first appearance), and from a
    contact's geometry pair its declared position, kind and slot in the
    kind. It merges the kinds' contact sets into pair-major order and
    differentiates a step's contacts once per kind.

    A pair that narrow_phase does not handle in its order raises
    UnsupportedCollisionPair. A pair of an unknown geometry or with negative
    friction, a geometry paired with itself, and two geometries paired twice
    (in either order) raise ValueError."""

    def __init__(self, geometries, pairs):
        ng, groups = len(geometries), {}
        self._index = np.full((ng, ng), -1)
        for i, pr in enumerate(pairs):
            a, b = pr.geom_a, pr.geom_b
            if not (0 <= a < ng and 0 <= b < ng):
                raise ValueError(f"pairs[{i}]: pair references unknown geometry")
            if pr.mu < 0.0:
                raise ValueError(f"pairs[{i}]: friction coefficient must be >= 0")
            if a == b:
                raise ValueError(f"pairs[{i}]: geometry {a} is paired with itself")
            first = max(self._index[a, b], self._index[b, a])
            if first >= 0:
                raise ValueError(f"pairs[{i}]: geometries {a} and {b} are already paired "
                                 f"by pairs[{first}]")
            s1, s2 = geometries[a].shape, geometries[b].shape
            if not pair_supported(s1, s2):
                raise UnsupportedCollisionPair(f"pairs[{i}]: {_unsupported(s1, s2)}")
            self._index[a, b] = i
            groups.setdefault((type(s1), type(s2)), []).append(i)
        self.kinds = []
        for idx in groups.values():
            ps = [pairs[i] for i in idx]
            g1, g2 = [geometries[p.geom_a] for p in ps], [geometries[p.geom_b] for p in ps]
            self.kinds.append(PairKind(
                np.array(idx), *(stack_shapes([g.shape for g in gs]) for gs in (g1, g2)),
                np.array([(p.geom_a, p.geom_b, a.body, b.body) for p, a, b in zip(ps, g1, g2)]),
                np.array([p.mu for p in ps], dtype=float),
                (_index([p.geom_a for p in ps]), _index([p.geom_b for p in ps]))))
        # Each declared pair's kind and slot in the kind.
        self._kind, self._slot = np.zeros((2, len(pairs)), int)
        for k, kind in enumerate(self.kinds):
            self._kind[kind.pairs] = k
            self._slot[kind.pairs] = np.arange(len(kind.pairs))
        # Only when concatenating the kinds breaks the declared order must merge reorder.
        order = [i for kind in self.kinds for i in kind.pairs.tolist()]
        self._interleave = order != list(range(len(pairs)))

    def pair_index(self, pair: np.ndarray) -> np.ndarray:
        """Declared positions of the geometry pairs (n, 2) of contacts."""
        return self._index[pair[:, 0], pair[:, 1]]

    def merge(self, found) -> ContactSet:
        """The kinds' ContactSets, one per kind in kind order, as one set in
        pair-major order; reordered only when the kinds interleave in the
        declared pair list."""
        found = [cs for cs in found if len(cs)]
        if len(found) < 2:
            return found[0] if found else NO_CONTACTS
        cs = ContactSet(*(np.concatenate(f) for f in zip(*(vars(cs).values() for cs in found))))
        return cs[np.argsort(self.pair_index(cs.pair), kind="stable")] if self._interleave else cs

    def frame_derivative(self, contacts: ContactSet, R: np.ndarray, p: np.ndarray,
                         T1: np.ndarray, T2: np.ndarray):
        """frame_derivative of contacts of these pairs, one call per kind over
        its contacts, each with its own pair's shapes and placements (out of
        the stacked geometry rotations R and translations p) and world twist
        columns T1, T2 (n, 6, m). Returns dM (n, 6, m) and dphi (n, m) in
        contact order."""
        pairs = self.pair_index(contacts.pair)
        kind_of, slot = self._kind[pairs], self._slot[pairs]
        n, m = len(contacts), T1.shape[-1]
        dM, dphi = np.empty((n, 6, m)), np.empty((n, m))
        for k, kind in enumerate(self.kinds):
            at = np.flatnonzero(kind_of == k) if len(self.kinds) > 1 else slice(None)
            a, b, s = contacts.pair[at, 0], contacts.pair[at, 1], slot[at]
            if not len(s):
                continue
            dM[at], dphi[at] = frame_derivative(
                take_shapes(kind.shape1, s), take_shapes(kind.shape2, s),
                Placement(R[a], p[a]), Placement(R[b], p[b]), contacts[at], T1[at], T2[at])
        return dM, dphi


def narrow_phase(shape1, shape2, M1: Placement, M2: Placement, margin: float = 1e-4,
                 ids=(-1, -1, -1, -1), mu=0.0) -> ContactSet:
    """Contacts of k pairs of one kind, at most margin above touch, in
    pair-major order. shape1 and shape2 are stacked shapes, M1 and M2
    stacked placements, ids (k, 4) the labels (geom_a, geom_b, body1, body2)
    and mu (k,) the friction of each pair. One pair's shapes, placements,
    ids and mu are a kind of one. The contacts of a pair share one frame
    rotation (the pair has one normal)."""
    if np.ndim(M1.translation) == 1:
        shape1, shape2 = stack_shapes([shape1]), stack_shapes([shape2])
        M1, M2 = (Placement(M.rotation[None], M.translation[None]) for M in (M1, M2))
        ids, mu = [ids], [mu]
    n, points, phi, features, face_tie = _contact_records(shape1, shape2, M1, M2)
    keep = phi <= margin
    of = np.nonzero(keep)[0]  # the pair of each kept contact
    if not of.size:
        return NO_CONTACTS
    boundary = face_tie | (np.abs(np.abs(n[:, 0]) - _REF_SWITCH) < 1e-6)
    ids = np.asarray(ids, dtype=int)[of]
    return ContactSet(frame_from_normal(n)[of], points[keep], phi[keep], features[keep],
                      boundary[of], ids[:, :2], ids[:, 2:], np.asarray(mu, dtype=float)[of])


def _point_velocity(T: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Velocities (..., 3, m) of the points x (..., 3) moving with world
    twist columns T (..., 6, m), given S = skew(x)."""
    return T[..., 3:, :] - S @ T[..., :3, :]


def _row_products(a: np.ndarray, B: np.ndarray) -> np.ndarray:
    """a[i] @ B[i] for rows a (n, 3) and matrices B (n, 3, m) or one (3, m); (n, m)."""
    return (a[:, None, :] @ B)[:, 0]


def frame_derivative(shape1, shape2, M1: Placement, M2: Placement, contacts: ContactSet,
                     T1: np.ndarray, T2: np.ndarray):
    """Differential of n narrow_phase contacts of one kind along world twist
    columns T1, T2 (n, 6, m) of their two geometries (zero for a static
    one). The shapes and placements are stacked per contact too; one pair's
    single shapes, placements and twists (6, m) broadcast over its contacts.

    Returns dM (n, 6, m), the frames' local twists (angular first), and dphi
    (n, m), the signed-distance rates. A halfspace contact lies below the
    anchor a = p + (phi + s) n on geometry 1 (s the sphere radius, or 0 at a
    box corner); the normal turns with geometry 2, dn = -skew(n) T2[:3].

    The rotation rates are read off the frame's own axes R_c = [x y n]:
    dn = w x n gives the tangential rates (-y.dn, x.dn), and dx = w x x with
    x[k] = ref.x = |ref - (n.ref) n| (ref = e_k of frame_from_normal) gives
    the normal rate -(n[k] / x[k]) y.dn. A static normal gives exactly zero."""
    R_c = contacts.rotation
    x, y, n = R_c[..., 0], R_c[..., 1], R_c[..., 2]
    if isinstance(shape2, Sphere):
        c1, c2 = M1.translation, M2.translation
        v1, v2 = _point_velocity(T1, skew(c1)), _point_velocity(T2, skew(c2))
        dd = v1 - v2
        dphi = _row_products(n, dd)
        dist = np.sqrt(_dots(c1 - c2, c1 - c2))
        dn = (dd - n[:, :, None] * dphi[:, None, :]) / dist[..., None, None]
        along_n = np.asarray(0.5 * (shape2.radius - shape1.radius))  # the point's offset on n
        dp = 0.5 * (v1 + v2) + along_n[..., None, None] * dn
    else:
        depth = contacts.phi + (shape1.radius if isinstance(shape1, Sphere) else 0.0)
        S_a = skew(contacts.point + depth[:, None] * n)
        va = _point_velocity(T1, S_a)
        dn = -skew(n) @ T2[..., :3, :]
        dphi = _row_products(n, va - _point_velocity(T2, S_a))
        dp = va - n[:, :, None] * dphi[:, None, :] - depth[:, None, None] * dn
    k, ar = np.where(np.abs(n[:, 0]) <= _REF_SWITCH, 0, 1), np.arange(len(n))
    y_dn = _row_products(y, dn)
    dM = np.empty((len(n), 6, dn.shape[-1]))
    dM[:, 0], dM[:, 1] = -y_dn, _row_products(x, dn)
    dM[:, 2] = -(n[ar, k] / x[ar, k])[:, None] * y_dn
    dM[:, 3:] = np.swapaxes(R_c, -1, -2) @ dp
    return dM, dphi
