"""Collision primitives, narrow phase and contact-frame derivatives.

Supported pairs: sphere-halfspace, sphere-sphere, box-halfspace (body
geometry first, environment halfspace second). Contact frames have z along
the contact normal, which points from geometry 2 toward geometry 1.
Plane contacts are placed on the plane; sphere-sphere contacts at the
midpoint of the two surface points.

Derivatives of the contact data w.r.t. geometry placements are exact: the
closed-form differential of (point, normal, distance, tangent basis) is
applied to the six basis twists of each placement. Twists are body-local.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .spatial import Placement, skew


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
        if abs(n - 1.0) > 1e-9:
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
    """One contact: world placement (z axis = normal), signed distance and
    bookkeeping for warm starts and scene wiring. `boundary` marks a box
    face tie or a normal on the tangent-basis reference switch, where the
    contact frame is not differentiable."""

    placement: Placement
    signed_distance: float
    pair: tuple = (-1, -1)
    friction: float = 0.0
    body1: int = -1
    body2: int = -1
    feature: int = 0
    boundary: bool = False

    @property
    def normal(self) -> np.ndarray:
        return self.placement.rotation[:, 2].copy()

    @property
    def point(self) -> np.ndarray:
        return self.placement.translation.copy()


@dataclass
class CdDerivatives:
    """Contact-frame local twist per unit local twist of each geometry
    placement (6x6 each)."""

    d_m1: np.ndarray
    d_m2: np.ndarray


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
    y = np.cross(n, x)
    return np.stack([x, y, n], axis=1)


def _frame_rotation_differential(n, dn):
    """World angular velocities of the n -> frame_from_normal(n) frame, one
    column per normal perturbation column of dn (3, m).

    With frame axes (x, y, n), each column is 0.5 (x × dx + y × dy + n × dn),
    the axial part of dR R^T."""
    if abs(n[0]) <= _REF_SWITCH:
        ref = np.array([1.0, 0.0, 0.0])
    else:
        ref = np.array([0.0, 1.0, 0.0])
    x_raw = ref - (n @ ref) * n
    nr = np.linalg.norm(x_raw)
    x = x_raw / nr
    dx_raw = -np.outer(n, ref @ dn) - (n @ ref) * dn
    dx = (dx_raw - np.outer(x, x @ dx_raw)) / nr
    Sx, Sn = skew(x), skew(n)
    y = Sn @ x
    dy = Sn @ dx - Sx @ dn
    return 0.5 * (Sx @ dx + skew(y) @ dy + Sn @ dn)


@dataclass
class _Record:
    """Raw contact with world-frame differential maps over the 12 basis
    twists (geometry 1 columns 0:6, geometry 2 columns 6:12)."""

    point: np.ndarray
    normal: np.ndarray
    phi: float
    feature: int
    boundary: bool
    dp: np.ndarray = None     # (3, 12)
    dn: np.ndarray = None     # (3, 12)
    dphi: np.ndarray = None   # (12,)


def _basis_motions(M: Placement):
    """World angular velocity and origin velocity for the six local basis
    twists (angular first) of a placement."""
    R = M.rotation
    omega = np.zeros((3, 6))
    dt = np.zeros((3, 6))
    omega[:, :3] = R
    dt[:, 3:] = R
    return omega, dt


def _records_sphere_halfspace(s: Sphere, h: Halfspace, M1, M2, derivatives):
    n = M2.rotation @ h.normal
    c = M1.translation
    phi = float(n @ (c - M2.translation) - h.offset - s.radius)
    p = c - (phi + s.radius) * n
    rec = _Record(p, n, phi, 0, False)
    if derivatives:
        w1, dt1 = _basis_motions(M1)
        w2, dt2 = _basis_motions(M2)
        dn = np.cross(w2.T, n).T  # (3, 6) from geometry 2 rotations
        dn12 = np.hstack([np.zeros((3, 6)), dn])
        rel = c - M2.translation
        dphi = rel @ dn12 + n @ np.hstack([dt1, -dt2])
        dp = np.hstack([dt1, np.zeros((3, 6))]) - np.outer(n, dphi) - (phi + s.radius) * dn12
        rec.dp, rec.dn, rec.dphi = dp, dn12, dphi
    return [rec]


def _records_sphere_sphere(s1: Sphere, s2: Sphere, M1, M2, derivatives):
    d = M1.translation - M2.translation
    dist = float(np.linalg.norm(d))
    if dist < 1e-9:
        raise ValueError("sphere centers coincide; contact normal undefined")
    n = d / dist
    phi = dist - s1.radius - s2.radius
    p = 0.5 * (M1.translation + M2.translation) + 0.5 * (s2.radius - s1.radius) * n
    rec = _Record(p, n, float(phi), 0, False)
    if derivatives:
        _, dt1 = _basis_motions(M1)
        _, dt2 = _basis_motions(M2)
        ddc = np.hstack([dt1, -dt2])  # d(c1 - c2)
        dn = (ddc - np.outer(n, n @ ddc)) / dist
        dphi = n @ ddc
        dp = 0.5 * np.hstack([dt1, dt2]) + 0.5 * (s2.radius - s1.radius) * dn
        rec.dp, rec.dn, rec.dphi = dp, dn, dphi
    return [rec]


def _records_box_halfspace(b: Box, h: Halfspace, M1, M2, margin, derivatives):
    n = M2.rotation @ h.normal
    n_body = M1.rotation.T @ n
    order = np.argsort(-np.abs(n_body))
    k_face = int(order[0])
    boundary = bool(abs(abs(n_body[order[0]]) - abs(n_body[order[1]])) < 1e-6)
    free = [a for a in range(3) if a != k_face]
    he = np.asarray(b.half_extents, dtype=float)
    if derivatives:
        w1, dt1 = _basis_motions(M1)
        w2, dt2 = _basis_motions(M2)
        dn = np.hstack([np.zeros((3, 6)), np.cross(w2.T, n).T])
    recs = []
    for sa in (-1.0, 1.0):
        for sb in (-1.0, 1.0):
            x = np.empty(3)
            x[k_face] = -np.sign(n_body[k_face]) * he[k_face]
            x[free[0]] = sa * he[free[0]]
            x[free[1]] = sb * he[free[1]]
            arm = M1.rotation @ x
            w = M1.translation + arm
            phi = float(n @ (w - M2.translation) - h.offset)
            if phi > margin:
                continue
            feature = int((x[0] > 0) + 2 * (x[1] > 0) + 4 * (x[2] > 0))
            rec = _Record(w - phi * n, n, phi, feature, boundary)
            if derivatives:
                dw = np.hstack([dt1 + np.cross(w1.T, arm).T, np.zeros((3, 6))])
                rel = w - M2.translation
                dphi = rel @ dn + n @ (dw - np.hstack([np.zeros((3, 6)), dt2]))
                rec.dp = dw - np.outer(n, dphi) - phi * dn
                rec.dn = dn
                rec.dphi = dphi
            recs.append(rec)
    return recs


def _contact_records(shape1, shape2, M1, M2, margin, derivatives):
    if isinstance(shape1, Sphere) and isinstance(shape2, Halfspace):
        recs = _records_sphere_halfspace(shape1, shape2, M1, M2, derivatives)
    elif isinstance(shape1, Sphere) and isinstance(shape2, Sphere):
        recs = _records_sphere_sphere(shape1, shape2, M1, M2, derivatives)
    elif isinstance(shape1, Box) and isinstance(shape2, Halfspace):
        return _records_box_halfspace(shape1, shape2, M1, M2, margin, derivatives)
    else:
        raise UnsupportedCollisionPair(
            f"no narrow phase for ({type(shape1).__name__}, {type(shape2).__name__}); "
            "supported: (Sphere|Box, Halfspace) and (Sphere, Sphere)"
        )
    return [r for r in recs if r.phi <= margin]


def pair_supported(shape1, shape2) -> bool:
    """True if narrow_phase handles (shape1, shape2) in this order."""
    if isinstance(shape1, Sphere):
        return isinstance(shape2, (Halfspace, Sphere))
    return isinstance(shape1, Box) and isinstance(shape2, Halfspace)


def narrow_phase(shape1, shape2, M1: Placement, M2: Placement, margin: float = 1e-4):
    """Contact frames between two geometries, at most margin above touch."""
    frames = []
    for rec in _contact_records(shape1, shape2, M1, M2, margin, derivatives=False):
        frames.append(
            ContactFrame(
                placement=Placement(frame_from_normal(rec.normal), rec.point),
                signed_distance=rec.phi,
                feature=rec.feature,
                boundary=bool(rec.boundary or abs(abs(rec.normal[0]) - _REF_SWITCH) < 1e-6),
            )
        )
    return frames


def _match_record(records, frame: ContactFrame):
    for rec in records:
        if rec.feature == frame.feature:
            return rec
    raise ValueError("contact frame does not match any current contact feature")


def _cd_from_record(rec: _Record, frame: ContactFrame) -> CdDerivatives:
    R_c = frame.placement.rotation
    w = _frame_rotation_differential(rec.normal, rec.dn)
    out = np.vstack([R_c.T @ w, R_c.T @ rec.dp])
    return CdDerivatives(d_m1=out[:, :6], d_m2=out[:, 6:])


def cd_derivatives(shape1, shape2, M1, M2, frame: ContactFrame, margin: float = 1e-4) -> CdDerivatives:
    """Differential of the contact-frame placement w.r.t. both geometry
    placements, all in body-local twist coordinates."""
    recs = _contact_records(shape1, shape2, M1, M2, margin, derivatives=True)
    return _cd_from_record(_match_record(recs, frame), frame)


def signed_distance_derivative(shape1, shape2, M1, M2, margin: float = 1e-4) -> np.ndarray:
    """Rows of d(signed distance)/d(local twists of M1, M2), one per
    contact, aligned with narrow_phase order."""
    recs = _contact_records(shape1, shape2, M1, M2, margin, derivatives=True)
    if not recs:
        return np.zeros((0, 12))
    return np.stack([rec.dphi for rec in recs], axis=0)
