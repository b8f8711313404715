"""Narrow phase and contact-frame derivatives.

Geometry oracles are hand closed forms; derivative oracles are central FD
of the narrow-phase output under local twists of the geometry placements.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcontact import collision
from diffcontact.collision import (
    Box,
    ContactFrame,
    ContactSet,
    Halfspace,
    Sphere,
    UnsupportedCollisionPair,
    frame_derivative,
    frame_from_normal,
    narrow_phase,
    pair_supported,
)
from diffcontact.spatial import Placement, adjoint, se3_exp

rng = np.random.default_rng(31)

GROUND = Halfspace(np.array([0.0, 0.0, 1.0]), 0.0)


def placement_at(t, xi=None):
    M = Placement(np.eye(3), np.asarray(t, dtype=float))
    if xi is not None:
        M = M.compose(se3_exp(xi))
    return M


def test_shape_validation():
    with pytest.raises(ValueError):
        Sphere(-1.0)
    with pytest.raises(ValueError):
        Box(np.array([0.1, -0.1, 0.1]))
    with pytest.raises(ValueError):
        Halfspace(np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        Halfspace(np.array([np.nan, 0.0, 0.0]))


unit_vec = st.lists(
    st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3
).map(np.array).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
    lambda v: v / np.linalg.norm(v)
)


@given(unit_vec)
@settings(max_examples=100, deadline=None)
def test_frame_from_normal_is_right_handed_orthonormal(n):
    R = frame_from_normal(n)
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) > 0.99
    np.testing.assert_allclose(R[:, 2], n, atol=1e-12)


def test_sphere_halfspace_closed_form():
    s = Sphere(0.25)
    for _ in range(20):
        c = rng.uniform(-1, 1, 3)
        c[2] = rng.uniform(0.0, 0.4)
        frames = narrow_phase(s, GROUND, placement_at(c), Placement.identity(), margin=1.0)
        assert len(frames) == 1
        assert abs(frames.phi[0] - (c[2] - 0.25)) < 1e-12
        np.testing.assert_allclose(frames.rotation[0][:, 2], [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(frames.point[0], [c[0], c[1], 0.0], atol=1e-12)


def test_sphere_halfspace_respects_margin():
    s = Sphere(0.1)
    high = placement_at([0, 0, 0.5])
    assert len(narrow_phase(s, GROUND, high, Placement.identity(), margin=1e-4)) == 0
    touching = placement_at([0, 0, 0.10005])
    assert len(narrow_phase(s, GROUND, touching, Placement.identity(), margin=1e-4)) == 1


def test_tilted_halfspace_distance():
    n = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
    plane = Halfspace(n, 0.1)
    s = Sphere(0.2)
    c = np.array([0.5, 0.3, 0.4])
    frames = narrow_phase(s, plane, placement_at(c), Placement.identity(), margin=10.0)
    expected = n @ c - 0.1 - 0.2
    assert abs(frames[0].signed_distance - expected) < 1e-12
    np.testing.assert_allclose(frames.rotation[0][:, 2], n, atol=1e-12)


def test_sphere_sphere_closed_form():
    s1, s2 = Sphere(0.2), Sphere(0.3)
    c1, c2 = np.array([0.0, 0.0, 1.0]), np.array([0.3, 0.0, 1.0])
    frames = narrow_phase(s1, s2, placement_at(c1), placement_at(c2), margin=10.0)
    assert abs(frames.phi[0] - (0.3 - 0.5)) < 1e-12
    np.testing.assert_allclose(frames.rotation[0][:, 2], [-1, 0, 0], atol=1e-12)  # 2 toward 1
    # midpoint of the surface points (0.2,0,1) and (0,0,1)
    np.testing.assert_allclose(frames.point[0], [0.1, 0, 1.0], atol=1e-12)


def test_sphere_sphere_coincident_centers_error():
    with pytest.raises(ValueError):
        narrow_phase(Sphere(0.1), Sphere(0.1), placement_at([0, 0, 0]),
                     placement_at([0, 0, 0]))


def test_box_halfspace_flat_patch():
    b = Box(np.array([0.1, 0.2, 0.05]))
    frames = narrow_phase(b, GROUND, placement_at([0, 0, 0.05]), Placement.identity(),
                          margin=1e-3)
    assert len(frames) == 4
    feats = sorted(f.feature for f in frames)
    assert len(set(feats)) == 4
    pts = np.array(sorted(tuple(np.round(p, 9)) for p in frames.point))
    expected = np.array(sorted([(sx * 0.1, sy * 0.2, 0.0)
                                for sx in (-1, 1) for sy in (-1, 1)]))
    np.testing.assert_allclose(pts, expected, atol=1e-9)
    for f in frames:
        assert abs(f.signed_distance) < 1e-12


def test_box_halfspace_tilted_keeps_low_corners():
    b = Box(np.array([0.1, 0.1, 0.1]))
    # tilt about y so two corners dip below the margin
    M = placement_at([0, 0, 0.1], xi=np.array([0.0, 0.05, 0.0, 0.0, 0.0, 0.0]))
    frames = narrow_phase(b, GROUND, M, Placement.identity(), margin=1e-4)
    assert len(frames) == 2
    for f in frames:
        assert f.signed_distance <= 1e-4


def test_box_patch_builds_one_frame_rotation(monkeypatch):
    """A pair has one normal: the four corners of a flat box share one frame
    rotation, built once, and a pair with nothing in margin builds none."""
    calls = []

    def counting(n):
        calls.append(1)
        return frame_from_normal(n)

    monkeypatch.setattr(collision, "frame_from_normal", counting)
    b = Box(np.array([0.1, 0.2, 0.05]))
    frames = narrow_phase(b, GROUND, placement_at([0, 0, 0.05]), Placement.identity(),
                          margin=1e-3)
    assert len(frames) == 4 and len(calls) == 1
    assert all(np.array_equal(f.placement.rotation, frames.rotation[0]) for f in frames)
    calls.clear()
    assert len(narrow_phase(b, GROUND, placement_at([0, 0, 0.5]), Placement.identity(),
                            margin=1e-3)) == 0
    assert calls == []


def _box_corners_by_loop(b, h, M1, M2):
    """(point, phi, feature) of each box corner, one corner at a time in
    (sa, sb) order: the reference for the stacked corner computation."""
    n = M2.rotation @ h.normal
    n_body = M1.rotation.T @ n
    k = int(np.argsort(-np.abs(n_body))[0])
    free = [a for a in range(3) if a != k]
    he = b.half_extents
    out = []
    for sa in (-1.0, 1.0):
        for sb in (-1.0, 1.0):
            x = np.empty(3)
            x[k] = -np.sign(n_body[k]) * he[k]
            x[free[0]] = sa * he[free[0]]
            x[free[1]] = sb * he[free[1]]
            w = M1.translation + M1.rotation @ x
            phi = float(n @ (w - M2.translation) - h.offset)
            out.append((w - phi * n, phi, int((x[0] > 0) + 2 * (x[1] > 0) + 4 * (x[2] > 0))))
    return out


def test_box_corners_match_per_corner_loop():
    """The stacked corner computation gives the bits, order and features of
    the per-corner loop on random boxes, planes and placements."""
    gen = np.random.default_rng(5)
    for _ in range(200):
        b = Box(gen.uniform(0.01, 1.0, 3))
        nrm = gen.normal(size=3)
        h = Halfspace(nrm / np.linalg.norm(nrm), float(gen.normal()))
        M1, M2 = se3_exp(gen.uniform(-3, 3, 6)), se3_exp(gen.uniform(-1, 1, 6))
        frames = narrow_phase(b, h, M1, M2, margin=np.inf)
        expected = _box_corners_by_loop(b, h, M1, M2)
        assert len(frames) == len(expected) == 4
        for f, (p, phi, feature) in zip(frames, expected):
            assert np.array_equal(f.placement.translation, p)
            assert f.signed_distance == phi and f.feature == feature


def test_box_patch_feature_ids_stable_under_jitter():
    b = Box(np.array([0.1, 0.1, 0.1]))
    base = narrow_phase(b, GROUND, placement_at([0, 0, 0.09998]), Placement.identity())
    jit = narrow_phase(b, GROUND, placement_at([1e-7, -1e-7, 0.09998]),
                       Placement.identity())
    assert [f.feature for f in base] == [f.feature for f in jit]


def test_pair_supported_table():
    s, b, h = Sphere(0.1), Box(np.array([0.1, 0.1, 0.1])), GROUND
    assert pair_supported(s, h)
    assert pair_supported(s, s)
    assert pair_supported(b, h)
    assert not pair_supported(h, s)
    assert not pair_supported(h, h)
    assert not pair_supported(b, s)


def test_unsupported_pair_raises():
    with pytest.raises(UnsupportedCollisionPair):
        narrow_phase(GROUND, GROUND, Placement.identity(), Placement.identity())


def _local_basis_derivative(shape1, shape2, M1, M2, frames):
    """frame_derivative of a pair's ContactSet along the six local basis
    twists of each placement (geometry 1 columns 0:6, geometry 2 columns
    6:12), written as the world twists T1 = [Ad(M1) | 0] and T2 = [0 | Ad(M2)]."""
    zero = np.zeros((6, 6))
    T1 = np.hstack([adjoint(M1), zero])
    T2 = np.hstack([zero, adjoint(M2)])
    return frame_derivative(shape1, shape2, M1, M2, frames, T1, T2)


def _fd_frame_derivative(shape1, shape2, M1, M2, frame, eps=1e-7, margin=10.0):
    """FD of the contact frame under local twists; returns (6, 12) local
    contact twists in the column order of _local_basis_derivative."""
    out = np.zeros((6, 12))
    R_c = frame.placement.rotation

    def frames_at(M1p, M2p):
        fs = narrow_phase(shape1, shape2, M1p, M2p, margin)
        return next(f for f in fs if f.feature == frame.feature)

    for k in range(12):
        xi = np.zeros(6)
        xi[k % 6] = eps
        if k < 6:
            fp = frames_at(M1.compose(se3_exp(xi)), M2)
            fm = frames_at(M1.compose(se3_exp(-xi)), M2)
        else:
            fp = frames_at(M1, M2.compose(se3_exp(xi)))
            fm = frames_at(M1, M2.compose(se3_exp(-xi)))
        dR = (fp.placement.rotation - fm.placement.rotation) / (2 * eps)
        dp = (fp.placement.translation - fm.placement.translation) / (2 * eps)
        W = dR @ R_c.T
        omega = np.array([W[2, 1], W[0, 2], W[1, 0]])
        out[:3, k] = R_c.T @ omega
        out[3:, k] = R_c.T @ dp
    return out


@pytest.mark.parametrize("case", ["sphere_plane", "sphere_sphere", "box_plane",
                                  "tilted_plane", "box_moving_tilted_plane",
                                  "sphere_moving_x_normal_plane", "box_moving_x_normal_plane"])
def test_cd_derivatives_match_fd(case):
    if case == "sphere_plane":
        sh1, sh2 = Sphere(0.2), GROUND
        M1 = placement_at([0.3, -0.2, 0.19], xi=rng.uniform(-0.2, 0.2, 6) * 0)
        M2 = Placement.identity()
    elif case == "sphere_sphere":
        sh1, sh2 = Sphere(0.2), Sphere(0.3)
        M1 = placement_at([0.1, 0.2, 1.0])
        M2 = placement_at([0.45, 0.35, 1.2])
    elif case == "box_plane":
        sh1, sh2 = Box(np.array([0.1, 0.1, 0.1])), GROUND
        M1 = placement_at([0, 0, 0.099], xi=np.array([0.3, 0.2, 0.5, 0, 0, 0]))
        M2 = Placement.identity()
    elif case == "tilted_plane":
        sh1, sh2 = Sphere(0.2), Halfspace(np.array([1.0, 0, 1.0]) / np.sqrt(2), 0.0)
        M1 = placement_at([0.2, 0.1, 0.25])
        M2 = placement_at([0.0, 0.0, 0.0], xi=np.array([0.0, 0.1, 0.05, 0, 0, 0]))
    elif case in ("sphere_moving_x_normal_plane", "box_moving_x_normal_plane"):
        # |n_x| > 0.99: frame_from_normal takes its x axis from world y, so
        # the normal rate reads n[1] / x[1]
        sh1 = Sphere(0.2) if case.startswith("sphere") else Box(np.array([0.1, 0.15, 0.08]))
        sh2 = Halfspace(np.array([1.0, 0.04, -0.06]) / np.linalg.norm([1.0, 0.04, -0.06]), 0.05)
        M1 = placement_at([0.4, 0.1, -0.2], xi=np.array([0.1, -0.05, 0.08, 0, 0, 0]))
        M2 = placement_at([0.1, 0.05, 0.02], xi=np.array([0.03, 0.02, -0.04, 0.05, 0.0, -0.03]))
    else:
        # the halfspace is rotated and off the origin, so its twists move
        # the normal and the plane under every box corner
        sh1 = Box(np.array([0.1, 0.15, 0.08]))
        sh2 = Halfspace(np.array([0.3, -0.2, 1.0]) / np.linalg.norm([0.3, -0.2, 1.0]), 0.05)
        M1 = placement_at([0.2, -0.1, 0.3], xi=np.array([0.35, -0.25, 0.6, 0, 0, 0]))
        M2 = placement_at([0.1, 0.05, 0.02], xi=np.array([0.2, -0.15, 0.4, 0.05, 0.0, -0.03]))
    frames = narrow_phase(sh1, sh2, M1, M2, margin=10.0)
    assert frames
    if "x_normal" in case:
        assert abs(frames.rotation[0][0, 2]) > 0.99 and not frames[0].boundary
    got = _local_basis_derivative(sh1, sh2, M1, M2, frames)[0]
    assert got.shape == (len(frames), 6, 12)
    for i, frame in enumerate(frames):
        want = _fd_frame_derivative(sh1, sh2, M1, M2, frame)
        np.testing.assert_allclose(got[i], want, atol=5e-6)


def test_signed_distance_derivative_matches_fd():
    sh1, sh2 = Box(np.array([0.1, 0.1, 0.1])), GROUND
    M1 = placement_at([0, 0, 0.099], xi=np.array([0.25, -0.15, 0.4, 0, 0, 0]))
    M2 = Placement.identity()
    frames = narrow_phase(sh1, sh2, M1, M2, margin=10.0)
    D = _local_basis_derivative(sh1, sh2, M1, M2, frames)[1]
    assert D.shape == (len(frames), 12)
    eps = 1e-7
    for i, frame in enumerate(frames):
        for k in range(12):
            xi = np.zeros(6)
            xi[k % 6] = eps
            if k < 6:
                Ms = [(M1.compose(se3_exp(s * xi)), M2) for s in (1, -1)]
            else:
                Ms = [(M1, M2.compose(se3_exp(s * xi))) for s in (1, -1)]
            phis = []
            for Ma, Mb in Ms:
                fs = narrow_phase(sh1, sh2, Ma, Mb, 10.0)
                phis.append(next(f for f in fs if f.feature == frame.feature).signed_distance)
            np.testing.assert_allclose(D[i, k], (phis[0] - phis[1]) / (2 * eps), atol=5e-6)


def test_contact_frame_accessors():
    """An int index of a ContactSet gives the ContactFrame view of its
    arrays; a slice gives a ContactSet."""
    b = Box(np.array([0.1, 0.2, 0.05]))
    frames = narrow_phase(b, GROUND, placement_at([0.3, 0.4, 0.05]), Placement.identity(),
                          margin=1e-3)
    np.testing.assert_allclose(frames.rotation[:, :, 2], np.tile([0.0, 0, 1], (4, 1)))
    for i, f in enumerate(frames):
        assert isinstance(f, ContactFrame)
        assert np.array_equal(f.placement.rotation, frames.rotation[i])
        assert np.array_equal(f.placement.translation, frames.point[i])
        assert f.signed_distance == frames.phi[i] and f.feature == frames.feature[i]
        assert f.pair == (-1, -1) and f.boundary is bool(frames.boundary[i])
    part = frames[1:3]
    assert isinstance(part, ContactSet) and np.array_equal(part.point, frames.point[1:3])


def test_narrow_phase_flags_frame_reference_switch():
    """A normal with |n_x| = 0.99 sits where frame_from_normal switches its
    reference axis, so the contact frame is flagged as a boundary."""
    sphere = Sphere(0.1)
    for nx, flagged in ((0.99, True), (-0.99, True), (0.5, False)):
        n = np.array([nx, 0.0, np.sqrt(1.0 - nx * nx)])
        plane = Halfspace(n)
        ball = Placement(np.eye(3), 0.1 * n)
        (frame,) = narrow_phase(sphere, plane, ball, Placement.identity())
        assert frame.boundary is flagged
