"""Spatial (6D) algebra over SE(3).

Six-vectors stack as (angular, linear): motions are (omega, v), forces are
(torque, force). Everything here is a pure function on small numpy arrays,
safe to call from multiple threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS_ANGLE = 1e-8


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
    """Rigid placement: rotation matrix and translation vector."""

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
        Rt = self.rotation.T
        return Placement(Rt, -Rt @ self.translation)

    def act(self, point: np.ndarray) -> np.ndarray:
        return self.rotation @ point + self.translation

    def orthonormality_error(self) -> float:
        R = self.rotation
        return float(np.abs(R.T @ R - np.eye(3)).max())


def adjoint(M: Placement) -> np.ndarray:
    """6x6 adjoint of a placement; maps local motions to world motions."""
    R = M.rotation
    X = np.zeros((6, 6))
    X[:3, :3] = R
    X[3:, 3:] = R
    X[3:, :3] = skew(M.translation) @ R
    return X


def adjoint_inverse(M: Placement) -> np.ndarray:
    return adjoint(M.inverse())


def adjoint_dual(M: Placement) -> np.ndarray:
    """Maps local forces to world forces: adjoint(M^-1)^T."""
    return adjoint_inverse(M).T


def spatial_inertia_local(mass: float, com: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """6x6 body-frame spatial inertia in (angular, linear) layout."""
    C = skew(com)
    I = np.zeros((6, 6))
    I[:3, :3] = inertia - mass * C @ C
    I[:3, 3:] = mass * C
    I[3:, :3] = -mass * C
    I[3:, 3:] = mass * np.eye(3)
    return I


def motion_cross(x: np.ndarray) -> np.ndarray:
    """ad_x for a motion x = (omega, v): motion-cross-motion operator.
    Stacked for x of shape (..., 6)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1] + (6, 6))
    out[..., :3, :3] = out[..., 3:, 3:] = skew(x[..., :3])
    out[..., 3:, :3] = skew(x[..., 3:])
    return out


def force_cross(x: np.ndarray) -> np.ndarray:
    """x x* operator (motion-cross-force): equals -ad_x^T. Stacked like
    motion_cross."""
    return -np.swapaxes(motion_cross(x), -1, -2)


def p_operator(y: np.ndarray) -> np.ndarray:
    """P_y with ad_x^T y == P_y x for every motion x; y = (torque, force).
    Stacked like motion_cross, so P_y @ A == -force_cross_cols(A, y)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[:-1] + (6, 6))
    out[..., :3, :3] = skew(y[..., :3])
    out[..., :3, 3:] = out[..., 3:, :3] = skew(y[..., 3:])
    return out


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


def so3_exp(w: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(w))
    W = skew(w)
    if theta < _EPS_ANGLE:
        return np.eye(3) + W + 0.5 * W @ W
    s = np.sin(theta) / theta
    c = (1.0 - np.cos(theta)) / theta**2
    return np.eye(3) + s * W + c * W @ W


def so3_log(R: np.ndarray) -> np.ndarray:
    """Rotation vector of R, angle in [0, pi] (shortest arc)."""
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < _EPS_ANGLE:
        return unskew(R - R.T) / 2.0
    if np.pi - theta < 1e-6:
        # Near-antipodal: axis from the dominant column of R + I.
        A = R + np.eye(3)
        k = int(np.argmax(np.diag(A)))
        axis = A[:, k] / np.linalg.norm(A[:, k])
        w = theta * axis
        # Fix the sign so exp matches.
        if np.linalg.norm(so3_exp(w) - R, ord="fro") > np.linalg.norm(
            so3_exp(-w) - R, ord="fro"
        ):
            w = -w
        return w
    return theta / (2.0 * np.sin(theta)) * unskew(R - R.T)


def _so3_left_jacobian(w: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(w))
    W = skew(w)
    if theta < _EPS_ANGLE:
        return np.eye(3) + 0.5 * W + W @ W / 6.0
    a = (1.0 - np.cos(theta)) / theta**2
    b = (theta - np.sin(theta)) / theta**3
    return np.eye(3) + a * W + b * W @ W


def se3_exp(xi: np.ndarray) -> Placement:
    """Exponential of a twist (omega, v)."""
    w, v = xi[:3], xi[3:]
    R = so3_exp(w)
    t = _so3_left_jacobian(w) @ v
    return Placement(R, t)


def se3_log(M: Placement) -> np.ndarray:
    """Twist xi with se3_exp(xi) == M, rotation angle in [0, pi]."""
    w = so3_log(M.rotation)
    V = _so3_left_jacobian(w)
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


def quat_to_rotation(q: np.ndarray) -> np.ndarray:
    """Unit quaternion (x, y, z, w) to rotation matrix."""
    x, y, z, w = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


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
