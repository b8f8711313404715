"""Kinematic tree: configuration chart, forward kinematics, jacobians.

Jacobian oracles are tangent-space central differences of the kinematics
themselves; chart oracles are the group axioms.
"""
import numpy as np
import pytest

from conftest import chain_model, cube_model, fixed_chain_no_contact, fixed_joint_tree, translation
from diffcontact.cli import bundled_scenes, load_scene
from diffcontact.collision import Box, Halfspace, Sphere, UnsupportedCollisionPair
from diffcontact.model import (
    BodyInertia,
    FrictionPair,
    Geometry,
    JointSpec,
    KinematicModel,
    compute_kinematics,
    difference,
    difference_jacobian,
    integrate,
    integrate_jacobians,
    jv_q_derivatives,
)
from diffcontact.spatial import Placement, adjoint, quat_to_rotation, se3_exp
from oracles import body_jacobian_world, body_placement, so3_exp

rng = np.random.default_rng(11)


def random_config(model, gen):
    q = model.neutral_configuration()
    return integrate(model, q, gen.uniform(-0.8, 0.8, model.nv))


def test_sizes_free_body():
    m = cube_model()
    assert (m.nq, m.nv) == (7, 6)


def test_sizes_chain():
    m = chain_model(5, foot_links=[4])
    assert (m.nq, m.nv) == (5, 5)


def test_neutral_configuration_is_valid():
    for m in (cube_model(), chain_model(4)):
        m.check_configuration(m.neutral_configuration())


def test_check_configuration_rejects_bad_quaternion():
    m = cube_model()
    q = m.neutral_configuration()
    q[3:7] = [1.0, 1.0, 0.0, 0.0]  # norm sqrt(2)
    with pytest.raises(ValueError):
        m.check_configuration(q)


def test_check_configuration_rejects_nan_quaternion():
    m = cube_model()
    q = m.neutral_configuration()
    q[3] = np.nan
    with pytest.raises(ValueError):
        m.check_configuration(q)


@pytest.mark.parametrize("axis", [[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]])
def test_non_unit_joint_axis_rejected(axis):
    with pytest.raises(ValueError, match="unit axis"):
        KinematicModel(
            [JointSpec("revolute", -1, Placement.identity(), np.array(axis))],
            [cube_model().inertias[0]], [], [],
        )


def test_bad_parent_rejected():
    with pytest.raises(ValueError):
        KinematicModel(
            [JointSpec("revolute", 3, Placement.identity(), np.array([0.0, 1.0, 0.0]))],
            [cube_model().inertias[0]],
        )


def test_integrate_difference_round_trip():
    for m in (cube_model(), chain_model(3)):
        for _ in range(20):
            q = random_config(m, rng)
            dq = rng.uniform(-0.5, 0.5, m.nv)
            q1 = integrate(m, q, dq)
            m.check_configuration(q1)
            np.testing.assert_allclose(difference(m, q, q1), dq, atol=1e-10)


def test_integrate_zero_is_identity():
    m = cube_model()
    q = random_config(m, rng)
    np.testing.assert_allclose(integrate(m, q, np.zeros(6)), q, atol=0)


def test_free_joint_tangent_is_body_twist():
    # integrating dq moves the body by exp(dq) in its own frame
    m = cube_model()
    q = random_config(m, rng)
    dq = rng.uniform(-0.3, 0.3, 6)
    q1 = integrate(m, q, dq)
    M0 = body_placement(compute_kinematics(m, q), 0)
    M1 = body_placement(compute_kinematics(m, q1), 0)
    expected = M0.compose(se3_exp(dq))
    np.testing.assert_allclose(M1.rotation, expected.rotation, atol=1e-10)
    np.testing.assert_allclose(M1.translation, expected.translation, atol=1e-10)


def test_integrate_jacobians_match_fd():
    eps = 1e-6
    for m in (cube_model(), chain_model(3)):
        q = random_config(m, rng)
        dq = rng.uniform(-0.4, 0.4, m.nv)
        Dq, Dd = integrate_jacobians(m, dq)
        base = integrate(m, q, dq)
        for k in range(m.nv):
            e = np.zeros(m.nv)
            e[k] = eps
            # column of D_q: vary the base point q
            qp = integrate(m, integrate(m, q, e), dq)
            qm = integrate(m, integrate(m, q, -e), dq)
            fd = (difference(m, base, qp) - difference(m, base, qm)) / (2 * eps)
            np.testing.assert_allclose(Dq[:, k], fd, atol=5e-6)
            # column of D_dq: vary the displacement
            qp = integrate(m, q, dq + e)
            qm = integrate(m, q, dq - e)
            fd = (difference(m, base, qp) - difference(m, base, qm)) / (2 * eps)
            np.testing.assert_allclose(Dd[:, k], fd, atol=5e-6)


def test_difference_jacobian_matches_fd():
    eps = 1e-6
    m = cube_model()
    q0, q1 = random_config(m, rng), random_config(m, rng)
    D = difference_jacobian(m, q0, q1)
    base = difference(m, q0, q1)
    for k in range(m.nv):
        e = np.zeros(m.nv)
        e[k] = eps
        fd = (difference(m, q0, integrate(m, q1, e))
              - difference(m, q0, integrate(m, q1, -e))) / (2 * eps)
        np.testing.assert_allclose(D[:, k], fd, atol=5e-6)


def _one_pair_model(shape_a, shape_b):
    """A free body carrying shape_a, with one pair against shape_b fixed in
    the world."""
    return KinematicModel([JointSpec("free", -1)],
                          [BodyInertia(1.0, np.zeros(3), np.eye(3) * 0.01)],
                          [Geometry(0, shape_a), Geometry(-1, shape_b)],
                          [FrictionPair(0, 1, 0.5)])


SPHERE, BOX = Sphere(0.1), Box(np.array([0.1, 0.1, 0.1]))
GROUND = Halfspace(np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize("shapes", [(GROUND, SPHERE), (BOX, SPHERE), (SPHERE, BOX),
                                    (GROUND, GROUND)],
                         ids=["halfspace-sphere", "box-sphere", "sphere-box",
                              "halfspace-halfspace"])
def test_unsupported_pair_fails_when_the_model_is_built(shapes):
    """A pair the narrow phase cannot handle in its order is rejected by the
    constructor, not at the first step."""
    with pytest.raises(UnsupportedCollisionPair, match="pairs\\[0\\]"):
        _one_pair_model(*shapes)


def test_supported_pairs_build_in_their_order():
    assert len(_one_pair_model(SPHERE, GROUND).pair_table.kinds) == 1
    assert len(_one_pair_model(BOX, GROUND).pair_table.kinds) == 1
    assert len(_one_pair_model(SPHERE, SPHERE).pair_table.kinds) == 1


@pytest.mark.parametrize("pairs, words", [
    ([(0, 2), (1, 2), (0, 2)], r"pairs\[2\]: geometries 0 and 2 are already paired by pairs\[0\]"),
    ([(0, 2), (1, 2), (2, 1)], r"pairs\[2\]: geometries 2 and 1 are already paired by pairs\[1\]"),
    ([(0, 2), (1, 1)], r"pairs\[1\]: geometry 1 is paired with itself"),
], ids=["repeated", "reversed", "self"])
def test_repeated_or_self_pair_fails_when_the_model_is_built(pairs, words):
    """Two geometries may be paired once: a second declaration, in either
    order, would give two contacts with one warm-start key at one point."""
    with pytest.raises(ValueError, match=words):
        KinematicModel([JointSpec("free", -1), JointSpec("free", -1)],
                       [BodyInertia(1.0, np.zeros(3), np.eye(3) * 0.01)] * 2,
                       [Geometry(0, SPHERE), Geometry(1, SPHERE), Geometry(-1, GROUND)],
                       [FrictionPair(a, b, 0.5) for a, b in pairs])


def _body_inertia(mass=1.0, inertia=np.eye(3) * 0.01):
    return BodyInertia(mass, np.zeros(3), inertia)


_FREE = JointSpec("free", -1)


@pytest.mark.parametrize("build, words", [
    (lambda: KinematicModel([_FREE], [_body_inertia()], actuated=[6]), "actuated indices"),
    (lambda: KinematicModel([_FREE], []), "one inertia per body"),
    (lambda: KinematicModel([JointSpec("ball", -1)], [_body_inertia()]), "unknown joint kind"),
    (lambda: KinematicModel([_FREE], [_body_inertia(mass=0.0)]), "mass must be positive"),
    (lambda: KinematicModel([_FREE], [_body_inertia(inertia=np.diag([0.01, 0.01, -0.01]))]),
     "symmetric positive definite"),
    (lambda: KinematicModel([_FREE], [_body_inertia()], [Geometry(1, SPHERE)]),
     "geometry attached to unknown body"),
    (lambda: KinematicModel([_FREE], [_body_inertia()], [Geometry(0, SPHERE)],
                            [FrictionPair(0, 1, 0.5)]), "pair references unknown geometry"),
    (lambda: KinematicModel([_FREE], [_body_inertia()], [Geometry(0, SPHERE), Geometry(-1, GROUND)],
                            [FrictionPair(0, 1, -0.1)]), "friction coefficient"),
    (lambda: cube_model().check_configuration(np.zeros(6)), "configuration must have shape"),
    (lambda: compute_kinematics(cube_model(), np.zeros(6)), "configuration must have shape"),
    (lambda: integrate(cube_model(), np.zeros(7), np.zeros(7)), "integrate: dimension mismatch"),
    (lambda: difference(cube_model(), np.zeros(7), np.zeros(6)), "difference: dimension mismatch"),
], ids=["actuated", "inertia-count", "joint-kind", "mass", "inertia-spd", "geometry-body",
        "pair-geometry", "friction", "check-shape", "kinematics-shape", "integrate-shape",
        "difference-shape"])
def test_invalid_model_input_raises(build, words):
    with pytest.raises(ValueError, match=words):
        build()


def test_forward_kinematics_two_link_oracle():
    # two revolute-y links of length 0.4: standard planar arm geometry
    m = fixed_chain_no_contact(2)
    q = np.array([0.3, -0.7])
    kin = compute_kinematics(m, q)
    # body 1 origin = rotation of the 0.4 offset by q0 about y
    c, s = np.cos(q[0]), np.sin(q[0])
    np.testing.assert_allclose(
        kin.body_translations[1], [0.4 * c, 0.0, -0.4 * s], atol=1e-12
    )
    # body 1 orientation = rotation by q0 + q1 about y
    ang = q[0] + q[1]
    np.testing.assert_allclose(
        kin.body_rotations[1] @ np.array([1.0, 0, 0]),
        [np.cos(ang), 0.0, -np.sin(ang)], atol=1e-12,
    )


def test_body_jacobian_matches_fd_of_placement():
    eps = 1e-6
    for m in (cube_model(), chain_model(4, foot_links=[3])):
        q = random_config(m, rng)
        kin = compute_kinematics(m, q)
        for body in range(len(m.joints)):
            J = body_jacobian_world(m, kin, body)
            M = body_placement(kin, body)
            for k in range(m.nv):
                e = np.zeros(m.nv)
                e[k] = eps
                Mp = body_placement(compute_kinematics(m, integrate(m, q, e)), body)
                Mm = body_placement(compute_kinematics(m, integrate(m, q, -e)), body)
                # world twist: dR R^T gives omega, origin velocity plus
                # omega x (-p) correction gives the world-frame linear part
                dR = (Mp.rotation - Mm.rotation) / (2 * eps)
                dp = (Mp.translation - Mm.translation) / (2 * eps)
                W = dR @ M.rotation.T
                omega = np.array([W[2, 1], W[0, 2], W[1, 0]])
                v_world = dp - np.cross(omega, M.translation)
                np.testing.assert_allclose(J[:3, k], omega, atol=5e-6)
                np.testing.assert_allclose(J[3:, k], v_world, atol=5e-6)


def test_body_velocities_consistent_with_jacobian():
    m = chain_model(4, foot_links=[3])
    q = random_config(m, rng)
    v = rng.uniform(-1, 1, m.nv)
    kin = compute_kinematics(m, q)
    _, vels = jv_q_derivatives(m, kin, v)
    for body in range(len(m.joints)):
        np.testing.assert_allclose(
            vels[body], body_jacobian_world(m, kin, body) @ v, atol=1e-12
        )


def test_jv_q_derivatives_match_fd():
    # d(J_b v)/dq with v held fixed, body-b world twist
    eps = 1e-6
    for m in (chain_model(3), load_scene("fourleg")[0], fixed_joint_tree()):
        q = random_config(m, rng)
        v = rng.uniform(-1, 1, m.nv)
        kin = compute_kinematics(m, q)
        dJv, _ = jv_q_derivatives(m, kin, v)
        for body in range(len(m.joints)):
            for k in range(m.nv):
                e = np.zeros(m.nv)
                e[k] = eps
                kp = compute_kinematics(m, integrate(m, q, e))
                km = compute_kinematics(m, integrate(m, q, -e))
                fd = (body_jacobian_world(m, kp, body) @ v
                      - body_jacobian_world(m, km, body) @ v) / (2 * eps)
                np.testing.assert_allclose(dJv[body][:, k], fd, atol=5e-6)


def test_selection_matrix_picks_actuated_rows():
    m = chain_model(4, foot_links=[3])
    assert m.selection_matrix().shape == (4, 4)
    joints = [JointSpec("free", -1, Placement.identity(), None),
              JointSpec("prismatic", 0, translation([0.1, 0, 0]), np.array([0.0, 0, 1.0]))]
    inertias = [cube_model().inertias[0], cube_model().inertias[0]]
    m2 = KinematicModel(joints, inertias, actuated=[6])
    S = m2.selection_matrix()
    assert S.shape == (1, 7)
    np.testing.assert_array_equal(S[0], np.eye(7)[6])


def reference_kinematics(m, q):
    """Per-joint forward kinematics, parent before child: the composition
    compute_kinematics must reproduce. Returns (R, p, psi, geometry
    placements)."""
    R, p, psi = np.zeros((m.nb, 3, 3)), np.zeros((m.nb, 3)), np.zeros((6, m.nv))
    for i, joint in enumerate(m.joints):
        mount = joint.placement
        if joint.parent >= 0:
            mount = Placement(R[joint.parent], p[joint.parent]).compose(mount)
        qi, c = q[m.q_slice(i)], int(m.v_offsets[i])
        if joint.kind == "revolute":
            axis = mount.rotation @ joint.axis
            world = mount.compose(Placement(so3_exp(joint.axis * qi[0]), np.zeros(3)))
            psi[:3, c], psi[3:, c] = axis, np.cross(mount.translation, axis)
        elif joint.kind == "prismatic":
            world = mount.compose(Placement(np.eye(3), joint.axis * qi[0]))
            psi[3:, c] = mount.rotation @ joint.axis
        elif joint.kind == "free":
            world = mount.compose(Placement(quat_to_rotation(qi[3:]), qi[:3]))
            psi[:, c : c + 6] = adjoint(world)
        else:
            world = mount
        R[i], p[i] = world.rotation, world.translation
    geoms = [g.placement if g.body < 0 else Placement(R[g.body], p[g.body]).compose(g.placement)
             for g in m.geometries]
    return R, p, psi, geoms


def branched_free_tree():
    """Depth-8 tree with two branches off body 1 and free joints below the
    root (bodies 3 and 10), so that jump rounds cross branch points and
    free bodies; tilted mounts and body-attached geometry throughout."""
    gen = np.random.default_rng(5)
    spec = [("revolute", -1), ("prismatic", 0), ("revolute", 1), ("free", 2),
            ("revolute", 3), ("fixed", 4), ("revolute", 5), ("prismatic", 6),
            ("revolute", 1), ("prismatic", 8), ("free", 8), ("revolute", 10)]
    joints = []
    for kind, parent in spec:
        mount = Placement(so3_exp(gen.uniform(-0.6, 0.6, 3)), gen.uniform(-0.3, 0.3, 3))
        axis = gen.normal(size=3) if kind in ("revolute", "prismatic") else None
        if axis is not None:
            axis /= np.linalg.norm(axis)
        joints.append(JointSpec(kind, parent, mount, axis))
    inertias = [BodyInertia(0.5, np.array([0.05, 0.0, -0.02]), np.diag([0.002, 0.003, 0.004]))
                for _ in spec]
    geoms = [Geometry(b, Sphere(0.05),
                      Placement(so3_exp(gen.uniform(-1, 1, 3)), gen.uniform(-0.2, 0.2, 3)))
             for b in (0, 3, 5, 7, 11)]
    geoms.insert(2, Geometry(-1, Sphere(0.2), translation([0.0, 0.0, -1.0])))
    return KinematicModel(joints, inertias, geoms)


def kinematics_oracle_models():
    models = [load_scene(name)[0] for name in bundled_scenes()]
    return models + [fixed_joint_tree(), chain_model(48, foot_links=[11, 23, 35, 47]),
                     branched_free_tree()]


def test_branched_free_tree_exercises_the_jump_schedule():
    m = branched_free_tree()
    assert len(m._jumps) == 3  # ceil(log2 8) rounds for the depth-8 path
    assert set(m._free_bodies.tolist()) == {3, 10} and m.parents[3] >= 0


def test_compute_kinematics_matches_per_joint_composition():
    gen = np.random.default_rng(7)
    for m in kinematics_oracle_models():
        for _ in range(5):
            q = random_config(m, gen)
            kin = compute_kinematics(m, q)
            R, p, psi, geoms = reference_kinematics(m, q)
            pairs = [(kin.body_rotations, R), (kin.body_translations, p), (kin.psi, psi)]
            pairs += [(a, b.rotation) for a, b in zip(kin.geom_rotations, geoms)]
            pairs += [(a, b.translation) for a, b in zip(kin.geom_translations, geoms)]
            assert len(kin.geom_rotations) == len(m.geometries)
            for got, ref in pairs:
                assert got.shape == ref.shape
                scale = max(1.0, float(np.abs(ref).max(initial=0.0)))
                assert float(np.abs(got - ref).max(initial=0.0)) <= 1e-14 * scale, m.name


def test_integrate_adds_scalar_coordinates_bit_for_bit():
    gen = np.random.default_rng(8)
    for m in kinematics_oracle_models():
        scalar = [i for i, j in enumerate(m.joints) if j.kind in ("revolute", "prismatic")]
        qcols = np.array([m.q_offsets[i] for i in scalar], dtype=int)
        vcols = np.array([m.v_offsets[i] for i in scalar], dtype=int)
        q = random_config(m, gen)
        dq = gen.uniform(-0.5, 0.5, m.nv)
        out = integrate(m, q, dq)
        np.testing.assert_array_equal(out[qcols], q[qcols] + dq[vcols])
