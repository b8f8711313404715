"""Spatial algebra: group operations, exponentials, cross operators.

Oracles are direct definitions (cross products, matrix exponentials via
scipy) rather than the implementation's own closed forms.
"""
import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcontact.spatial import (
    Placement,
    adjoint,
    adjoint_dual,
    adjoint_inverse,
    force_cross,
    force_cross_cols,
    motion_cross,
    motion_cross_cols,
    p_operator,
    quat_to_rotation,
    rotation_to_quat,
    se3_exp,
    se3_log,
    se3_right_jacobian,
    se3_right_jacobian_inverse,
    skew,
    so3_exp,
    so3_log,
    unskew,
)

rng = np.random.default_rng(7)


def random_placement(gen):
    return se3_exp(gen.uniform(-2.0, 2.0, 6))


vec3 = st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3).map(np.array)


@given(vec3, vec3)
def test_skew_is_cross_product(a, b):
    np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-12)


@given(vec3)
def test_unskew_inverts_skew(a):
    np.testing.assert_allclose(unskew(skew(a)), a, atol=0)


def test_so3_exp_matches_matrix_exponential():
    for _ in range(20):
        w = rng.uniform(-3, 3, 3)
        np.testing.assert_allclose(so3_exp(w), scipy.linalg.expm(skew(w)), atol=1e-12)


def test_so3_log_round_trip():
    for _ in range(50):
        w = rng.uniform(-1, 1, 3) * rng.uniform(0, 3)
        if np.linalg.norm(w) > np.pi - 1e-3:
            continue
        np.testing.assert_allclose(so3_log(so3_exp(w)), w, atol=1e-9)


def test_so3_exp_tiny_angle():
    w = np.array([1e-12, -2e-13, 3e-12])
    R = so3_exp(w)
    np.testing.assert_allclose(R, np.eye(3) + skew(w), atol=1e-15)


def test_se3_exp_matches_matrix_exponential():
    for _ in range(20):
        xi = rng.uniform(-2, 2, 6)
        A = np.zeros((4, 4))
        A[:3, :3] = skew(xi[:3])
        A[:3, 3] = xi[3:]
        T = scipy.linalg.expm(A)
        M = se3_exp(xi)
        np.testing.assert_allclose(M.rotation, T[:3, :3], atol=1e-11)
        np.testing.assert_allclose(M.translation, T[:3, 3], atol=1e-11)


def test_se3_log_round_trip():
    for _ in range(50):
        xi = rng.uniform(-1.5, 1.5, 6)
        np.testing.assert_allclose(se3_log(se3_exp(xi)), xi, atol=1e-9)


def test_placement_compose_inverse():
    for _ in range(20):
        M1, M2 = random_placement(rng), random_placement(rng)
        M = M1.compose(M2)
        p = rng.uniform(-1, 1, 3)
        np.testing.assert_allclose(M.act(p), M1.act(M2.act(p)), atol=1e-12)
        Minv = M.inverse()
        np.testing.assert_allclose(Minv.act(M.act(p)), p, atol=1e-12)
        assert M.orthonormality_error() < 1e-12


def test_adjoint_is_group_homomorphism():
    for _ in range(20):
        M1, M2 = random_placement(rng), random_placement(rng)
        np.testing.assert_allclose(
            adjoint(M1.compose(M2)), adjoint(M1) @ adjoint(M2), atol=1e-11
        )


def test_adjoint_inverse_and_dual():
    for _ in range(10):
        M = random_placement(rng)
        np.testing.assert_allclose(adjoint_inverse(M) @ adjoint(M), np.eye(6), atol=1e-12)
        np.testing.assert_allclose(adjoint_dual(M), np.linalg.inv(adjoint(M)).T, atol=1e-11)


def test_adjoint_of_exponential_is_exponential_of_ad():
    for _ in range(10):
        xi = rng.uniform(-1, 1, 6)
        np.testing.assert_allclose(
            adjoint(se3_exp(xi)), scipy.linalg.expm(motion_cross(xi)), atol=1e-10
        )


def test_motion_cross_is_twist_bracket():
    for _ in range(20):
        x, y = rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6)
        expected = np.concatenate([
            np.cross(x[:3], y[:3]),
            np.cross(x[3:], y[:3]) + np.cross(x[:3], y[3:]),
        ])
        np.testing.assert_allclose(motion_cross(x) @ y, expected, atol=1e-12)


def test_force_cross_is_negative_ad_transpose():
    for _ in range(10):
        x = rng.uniform(-2, 2, 6)
        np.testing.assert_allclose(force_cross(x), -motion_cross(x).T, atol=0)
    X = rng.uniform(-2, 2, (3, 6))
    for i in range(3):
        np.testing.assert_array_equal(motion_cross(X)[i], motion_cross(X[i]))
        np.testing.assert_array_equal(force_cross(X)[i], force_cross(X[i]))


def test_p_operator_swaps_arguments_of_ad_transpose():
    for _ in range(30):
        x, y = rng.uniform(-2, 2, 6), rng.uniform(-2, 2, 6)
        np.testing.assert_allclose(motion_cross(x).T @ y, p_operator(y) @ x, atol=1e-12)


def test_p_operator_antisymmetric_pairing():
    # <y, ad_x z> = -<y, ad_z x> makes P_y x antisymmetric in (x, z)
    for _ in range(20):
        x, z, y = (rng.uniform(-1, 1, 6) for _ in range(3))
        lhs = y @ (motion_cross(x) @ z)
        rhs = -(y @ (motion_cross(z) @ x))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_columnwise_cross_helpers():
    A = rng.uniform(-1, 1, (6, 5))
    b = rng.uniform(-1, 1, 6)
    y = rng.uniform(-1, 1, 6)
    expect_m = np.stack([motion_cross(A[:, k]) @ b for k in range(5)], axis=1)
    expect_f = np.stack([force_cross(A[:, k]) @ y for k in range(5)], axis=1)
    np.testing.assert_allclose(motion_cross_cols(A, b), expect_m, atol=1e-12)
    np.testing.assert_allclose(force_cross_cols(A, y), expect_f, atol=1e-12)
    # The 3-blocks are computed as np.cross computes them.
    np.testing.assert_array_equal(motion_cross_cols(A, b)[:3], np.cross(A[:3].T, b[:3]).T)
    # Leading axes broadcast: a stack of (A, b) pairs gives each pair's result.
    As, bs = rng.uniform(-1, 1, (4, 6, 5)), rng.uniform(-1, 1, (4, 6))
    for fn in (motion_cross_cols, force_cross_cols):
        stacked = fn(As, bs)
        for i in range(4):
            np.testing.assert_array_equal(stacked[i], fn(As[i], bs[i]))


def test_p_operator_stacks_bit_for_bit():
    Y = rng.uniform(-2, 2, (2, 5, 6))
    stacked = p_operator(Y)
    assert stacked.shape == (2, 5, 6, 6)
    for i in range(2):
        for j in range(5):
            np.testing.assert_array_equal(stacked[i, j], p_operator(Y[i, j]))


def test_cross_cols_are_stacked_operator_products():
    """motion_cross_cols(A, b) == -ad(b) @ A and force_cross_cols(A, y) ==
    -P(y) @ A on stacks, which the analytic derivatives rest on; only the
    summation order differs, so they agree to 1e-15 relative."""
    for shape_A, shape_b in (((48, 6, 48), (48, 6)), ((6, 12), (9, 6)), ((3, 6, 7), (6,))):
        scale = rng.uniform(0.1, 10.0)
        A, b = scale * rng.normal(size=shape_A), rng.normal(size=shape_b)
        for cols, op in ((motion_cross_cols, motion_cross), (force_cross_cols, p_operator)):
            expected = cols(A, b)
            got = -op(b) @ A
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


def test_quaternion_round_trip():
    for _ in range(50):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        R = quat_to_rotation(q)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        q2 = rotation_to_quat(R)
        # antipodal quaternions encode the same rotation
        sign = np.sign(q2 @ q) or 1.0
        np.testing.assert_allclose(sign * q2, q, atol=1e-9)


def test_quat_xyzw_convention():
    # quarter turn about z: q = (0, 0, sin(pi/4), cos(pi/4)) in xyzw order
    q = np.array([0.0, 0.0, np.sin(np.pi / 4), np.cos(np.pi / 4)])
    R = quat_to_rotation(q)
    np.testing.assert_allclose(R @ np.array([1.0, 0, 0]), [0, 1, 0], atol=1e-12)


def test_right_jacobian_matches_fd_of_exp():
    # d/dt exp(xi + t delta) at t=0 equals exp(xi) * (Jr(xi) delta)^
    eps = 1e-6
    for _ in range(10):
        xi = rng.uniform(-1.5, 1.5, 6)
        Jr = se3_right_jacobian(xi)
        np.testing.assert_allclose(
            se3_right_jacobian_inverse(xi) @ Jr, np.eye(6), atol=1e-9
        )
        for k in range(6):
            d = np.zeros(6)
            d[k] = eps
            Mp, Mm = se3_exp(xi + d), se3_exp(xi - d)
            body_twist = se3_log(Mm.inverse().compose(Mp)) / (2 * eps)
            np.testing.assert_allclose(body_twist, Jr[:, k], atol=1e-6)
