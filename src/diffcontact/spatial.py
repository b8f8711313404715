"""Spatial (6D) algebra over SE(3).

Six-vectors stack as (angular, linear): motions are (omega, v), forces are
(torque, force). Everything here is a pure function on small numpy arrays,
safe to call from multiple threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS_ANGLE = 1e-8


def _index(indices):
    """Index for a set of rows: a slice when they are consecutive, which
    numpy reads and writes as a view, else the integer array."""
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0 or np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        start = int(idx[0]) if idx.size else 0
        return slice(start, start + idx.size)
    return idx


# skew(u).ravel() == u @ _SKEW_BASIS. Each entry of skew(u) is +-1 times one
# component of u, so the product is exact, and it stacks over leading axes.
_SKEW_BASIS = np.array([[0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                        [0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]])


def skew(v: np.ndarray) -> np.ndarray:
    """3x3 matrix S with S @ b == np.cross(v, b); stacked for v of shape (..., 3)."""
    v = np.asarray(v, dtype=float)
    return (v @ _SKEW_BASIS).reshape(v.shape[:-1] + (3, 3))


def unskew(S: np.ndarray) -> np.ndarray:
    return np.array([S[2, 1], S[0, 2], S[1, 0]])


@dataclass(frozen=True)
class Placement:
    """Rigid placement: rotation matrix and translation vector. `inverse` and
    the adjoints also take stacks: rotations (..., 3, 3), translations (..., 3)."""

    rotation: np.ndarray
    translation: np.ndarray

    @staticmethod
    def identity() -> "Placement":
        return Placement(np.eye(3), np.zeros(3))

    def compose(self, other: "Placement") -> "Placement":
        return Placement(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "Placement":
        Rt = np.swapaxes(self.rotation, -1, -2)
        return Placement(Rt, ((-Rt) @ self.translation[..., None])[..., 0])


def adjoint(M: Placement) -> np.ndarray:
    """6x6 adjoint of a placement; maps local motions to world motions.
    Stacked for rotations (..., 3, 3) and translations (..., 3)."""
    R = M.rotation
    X = np.zeros(R.shape[:-2] + (6, 6))
    X[..., :3, :3] = R
    X[..., 3:, 3:] = R
    X[..., 3:, :3] = skew(M.translation) @ R
    return X


def adjoint_inverse(M: Placement) -> np.ndarray:
    return adjoint(M.inverse())


def spatial_inertia_local(mass: float, com: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """6x6 body-frame spatial inertia in (angular, linear) layout."""
    C = skew(com)
    I = np.zeros((6, 6))
    I[:3, :3] = inertia - mass * C @ C
    I[:3, 3:] = mass * C
    I[3:, :3] = -mass * C
    I[3:, 3:] = mass * np.eye(3)
    return I


def _operator_basis(blocks) -> np.ndarray:
    """(6, 36) map from a six-vector x to the flattened 6x6 operator whose
    3x3 block (r, c) is skew of half h of x, for each ((r, c), h) in blocks."""
    basis = np.zeros((2, 3, 2, 3, 2, 3))  # (half, component, r, row, c, col)
    for (r, c), h in blocks:
        basis[h, :, r, :, c, :] = _SKEW_BASIS.reshape(3, 3, 3)
    return basis.reshape(6, 36)


# motion_cross(x).ravel() == x @ _AD_BASIS and p_operator(y).ravel() == y @
# _P_BASIS. As with _SKEW_BASIS, every entry is +-1 times one component or
# 0, so each operator is one exact product that stacks over leading axes.
_AD_BASIS = _operator_basis([((0, 0), 0), ((1, 1), 0), ((1, 0), 1)])
_P_BASIS = _operator_basis([((0, 0), 0), ((0, 1), 1), ((1, 0), 1)])


def motion_cross(x: np.ndarray) -> np.ndarray:
    """ad_x for a motion x = (omega, v): motion-cross-motion operator
    [[skew(omega), 0], [skew(v), skew(omega)]]. Stacked for x of shape (..., 6)."""
    x = np.asarray(x, dtype=float)
    return (x @ _AD_BASIS).reshape(x.shape[:-1] + (6, 6))


def p_operator(y: np.ndarray) -> np.ndarray:
    """P_y = [[skew(torque), skew(force)], [skew(force), 0]], with ad_x^T y ==
    P_y x for every motion x; y = (torque, force). Stacked like motion_cross,
    so P_y @ A == -force_cross_cols(A, y)."""
    y = np.asarray(y, dtype=float)
    return (y @ _P_BASIS).reshape(y.shape[:-1] + (6, 6))


def _cross(a, b):
    """a x b on component triples, as np.cross computes it (a1*b2 - a2*b1, ...)."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _cols_and_vector(A, b):
    """The six rows of A (..., 6, n) and the six components of b (..., 6),
    shaped to broadcast over the columns."""
    return [A[..., r, :] for r in range(6)], [b[..., r, None] for r in range(6)]


def motion_cross_cols(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Columnwise A[..., :, k] x b for motions A (..., 6, n) and b (..., 6);
    leading axes broadcast. Bit-identical to np.cross on each 3-block."""
    a, c = _cols_and_vector(A, b)
    top = _cross(a[:3], c[:3])
    bottom = [s + t for s, t in zip(_cross(a[:3], c[3:]), _cross(a[3:], c[:3]))]
    return np.stack([*top, *bottom], axis=-2)


def force_cross_cols(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Columnwise A[..., :, k] x* y for motions A (..., 6, n) and forces
    y (..., 6); leading axes broadcast."""
    a, c = _cols_and_vector(A, y)
    top = [s + t for s, t in zip(_cross(a[:3], c[:3]), _cross(a[3:], c[3:]))]
    bottom = _cross(a[:3], c[3:])
    return np.stack([*top, *bottom], axis=-2)


def _so3_exp_and_left_jacobian(w: np.ndarray):
    """exp(skew(w)) and the SO(3) left Jacobian of w from one norm, one skew,
    one sine and cosine, and the shared (1 - cos t) / t^2 skew(w) term."""
    theta = float(np.linalg.norm(w))
    W = skew(w)
    if theta < _EPS_ANGLE:
        half = 0.5 * W
        return np.eye(3) + W + half @ W, np.eye(3) + half + W @ W / 6.0
    sin = np.sin(theta)
    cW = (1.0 - np.cos(theta)) / theta**2 * W
    b = (theta - sin) / theta**3
    return np.eye(3) + sin / theta * W + cW @ W, np.eye(3) + cW + b * W @ W


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of R, angle in [0, pi] (shortest arc).

    Past pi/2 (cos(theta) <= 0), where arccos and the skew part lose
    precision, theta = atan2(|vee(R - R^T)| / 2, cos(theta)), and the axis is
    the largest column of (R + R^T) / 2 - cos(theta) I = (1 - cos(theta)) a a^T,
    signed along vee(R - R^T) = 2 sin(theta) a."""
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    s = unskew(R - R.T)
    if cos_theta <= 0.0:
        B = 0.5 * (R + R.T) - cos_theta * np.eye(3)
        axis = B[:, int(np.argmax(np.diag(B)))]
        axis = axis / np.linalg.norm(axis) * (-1.0 if axis @ s < 0.0 else 1.0)
        return float(np.arctan2(np.linalg.norm(s) / 2.0, cos_theta)) * axis
    theta = float(np.arccos(cos_theta))
    if theta < _EPS_ANGLE:
        return s / 2.0
    return theta / (2.0 * np.sin(theta)) * s


def se3_exp(xi: np.ndarray) -> Placement:
    """Exponential of a twist (omega, v)."""
    R, V = _so3_exp_and_left_jacobian(xi[:3])
    return Placement(R, V @ xi[3:])


def se3_log(M: Placement) -> np.ndarray:
    """Twist xi with se3_exp(xi) == M, rotation angle in [0, pi]."""
    w = so3_log(M.rotation)
    V = _so3_exp_and_left_jacobian(w)[1]
    v = np.linalg.solve(V, M.translation)
    return np.concatenate([w, v])


def se3_right_jacobian(xi: np.ndarray) -> np.ndarray:
    """J_r with se3_exp(xi + d) ~ se3_exp(xi) * se3_exp(J_r(xi) d).

    Computed as phi1(-ad_xi) = sum_k (-ad_xi)^k / (k+1)! which converges
    fast for the step-sized twists seen in integration.
    """
    A = -motion_cross(xi)
    term = np.eye(6)
    out = np.eye(6)
    for k in range(1, 40):
        term = term @ A / (k + 1.0)
        out = out + term
        if np.abs(term).max() < 1e-17:
            break
    return out


def se3_right_jacobian_inverse(xi: np.ndarray) -> np.ndarray:
    return np.linalg.inv(se3_right_jacobian(xi))


def _quat_basis() -> np.ndarray:
    """(16, 9) map from the flattened outer product q q^T of a quaternion
    q = (v, w) to R - I = 2 w [v]x + 2 (v v^T - |v|^2 I), entry by entry."""
    basis, eye = np.zeros((4, 4, 3, 3)), np.eye(3)
    for a in range(3):
        basis[a, a] -= 2.0 * eye
        basis[a, 3] += 2.0 * skew(eye[a])
        for b in range(3):
            basis[a, b, a, b] += 2.0
    return basis.reshape(16, 9)


# Each entry of R - I has two terms +-2 q_a q_b (the |v|^2 terms cancel on
# the diagonal). The product with this basis rounds their sum once, and
# adding I rounds once more, exactly as the explicit formula 1 - 2 (y y +
# z z), 2 (x y - z w), ... does, so the result is bit-identical to it.
_QUAT_BASIS = _quat_basis()
_EYE3_FLAT = np.eye(3).ravel()


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Unit quaternion (x, y, z, w) to rotation matrix; stacked for q of
    shape (..., 4)."""
    q = np.asarray(q, dtype=float)
    qq = (q[..., :, None] * q[..., None, :]).reshape(q.shape[:-1] + (16,))
    return (_EYE3_FLAT + qq @ _QUAT_BASIS).reshape(q.shape[:-1] + (3, 3))


def rotation_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to unit quaternion (x, y, z, w), w >= 0."""
    tr = np.trace(R)
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s,
             (R[1, 0] - R[0, 1]) / s, 0.25 * s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(R[i, i] - R[j, j] - R[k, k] + 1.0, 0.0)) * 2.0
        q = np.zeros(4)
        q[i] = 0.25 * s
        q[j] = (R[j, i] + R[i, j]) / s
        q[k] = (R[k, i] + R[i, k]) / s
        q[3] = (R[k, j] - R[j, k]) / s
    if q[3] < 0.0:
        q = -q
    return q / np.linalg.norm(q)
