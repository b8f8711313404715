"""Shared model builders and jacobian-comparison helpers.

All finite differencing in the suite goes through diffcontact.fd, the same
oracle the CLI fdcheck subcommand uses.
"""
import os

# One BLAS thread, as benchmark/run.py pins it, set before numpy loads.
# Default threading on these tiny matrices only adds contention, and with
# it the wall-clock budget of acceptance criterion 1 was once overrun.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from diffcontact.collision import Box, Halfspace, Sphere
from diffcontact.model import (
    BodyInertia,
    FrictionPair,
    Geometry,
    JointSpec,
    KinematicModel,
)
from diffcontact.simulator import SimParams, SimState
from diffcontact.spatial import Placement, rotation_to_quat
from oracles import so3_exp


def free_placement():
    return Placement.identity()


def translation(t):
    return Placement(np.eye(3), np.asarray(t, dtype=float))


def cube_model(mu=1.0, half=0.1, mass=1.0):
    """Free box above a ground halfspace."""
    inertia = np.diag([mass * (2 * half) ** 2 / 6.0] * 3)
    joints = [JointSpec("free", -1, Placement.identity(), None)]
    inertias = [BodyInertia(mass, np.zeros(3), inertia)]
    geoms = [
        Geometry(0, Box(np.array([half, half, half])), Placement.identity()),
        Geometry(-1, Halfspace(np.array([0.0, 0.0, 1.0]), 0.0), Placement.identity()),
    ]
    return KinematicModel(joints, inertias, geoms, [FrictionPair(0, 1, mu)])


def sphere_model(mu=0.5, radius=0.1, mass=1.0):
    inertia = np.diag([0.4 * mass * radius**2] * 3)
    joints = [JointSpec("free", -1, Placement.identity(), None)]
    inertias = [BodyInertia(mass, np.zeros(3), inertia)]
    geoms = [
        Geometry(0, Sphere(radius), Placement.identity()),
        Geometry(-1, Halfspace(np.array([0.0, 0.0, 1.0]), 0.0), Placement.identity()),
    ]
    return KinematicModel(joints, inertias, geoms, [FrictionPair(0, 1, mu)])


def chain_model(n_links=3, mu=0.8, foot_links=None, base_height=0.09998):
    """Fixed-base revolute-y chain along x with spheres at selected link
    tips touching the ground."""
    joints, inertias = [], []
    for i in range(n_links):
        placement = translation([0, 0, base_height]) if i == 0 else translation([0.3, 0, 0])
        joints.append(JointSpec("revolute", i - 1, placement, np.array([0.0, 1.0, 0.0])))
        inertias.append(BodyInertia(0.5, np.array([0.15, 0.0, 0.0]),
                                    np.diag([0.001, 0.004, 0.004])))
    if foot_links is None:
        foot_links = [n_links - 1]
    geoms = [Geometry(b, Sphere(0.1), translation([0.3, 0, 0])) for b in foot_links]
    geoms.append(Geometry(-1, Halfspace(np.array([0.0, 0.0, 1.0]), 0.0),
                          Placement.identity()))
    pairs = [FrictionPair(k, len(geoms) - 1, mu) for k in range(len(foot_links))]
    return KinematicModel(joints, inertias, geoms, pairs)


def mixed_kind_model():
    """Five free bodies over a ground halfspace (geometry 5), whose declared
    pairs interleave the three kinds: sphere 0 on the ground, box 1 on the
    ground, sphere 3 on sphere 2, sphere 4 on the ground, sphere 2 on the
    ground. The spheres' radii differ, so a contact differentiated with
    another pair's shape shows. mixed_kind_state keeps sphere 4 far above
    the ground."""
    ball = BodyInertia(1.0, np.zeros(3), np.diag([0.004] * 3))
    box = BodyInertia(1.0, np.zeros(3), np.diag([1.0 / 150.0] * 3))
    joints = [JointSpec("free", -1, Placement.identity(), None) for _ in range(5)]
    geoms = [Geometry(0, Sphere(0.1)), Geometry(1, Box(np.array([0.1, 0.1, 0.1]))),
             Geometry(2, Sphere(0.11)), Geometry(3, Sphere(0.12)), Geometry(4, Sphere(0.09)),
             Geometry(-1, Halfspace(np.array([0.0, 0.0, 1.0]), 0.0))]
    pairs = [FrictionPair(0, 5, 0.5), FrictionPair(1, 5, 0.6), FrictionPair(3, 2, 0.3),
             FrictionPair(4, 5, 0.4), FrictionPair(2, 5, 0.7)]
    return KinematicModel(joints, [ball, box, ball, ball, ball], geoms, pairs)


def mixed_kind_state(model, gen):
    """A random state of mixed_kind_model: spheres 0 and 2 and the box
    within 5e-5 of the ground (the box tilted by up to 0.02 rad), sphere 3
    resting on sphere 2 along a near-vertical direction, sphere 4 half a
    metre up, and random velocities."""
    q = model.neutral_configuration()
    sink = gen.uniform(-5e-5, 0.0, 3)
    q[0:3] = [0.0, 0.0, 0.1 + sink[0]]
    tilt = so3_exp(gen.uniform(-0.02, 0.02, 3))
    corners = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    q[7:10] = [1.0, 0.0, sink[1] - (0.1 * corners @ tilt.T)[:, 2].min()]
    q[10:14] = rotation_to_quat(tilt)
    q[14:17] = [2.0, 0.0, 0.11 + sink[2]]
    up = np.append(gen.uniform(-0.3, 0.3, 2), 1.0)
    q[21:24] = q[14:17] + (0.23 - gen.uniform(0.0, 5e-5)) * up / np.linalg.norm(up)
    q[28:31] = [3.0, 0.0, 0.5]
    return SimState(q, gen.uniform(-0.05, 0.05, model.nv))


def fixed_chain_no_contact(n_links=2):
    """Fully actuated revolute chain with no collision geometry."""
    joints, inertias = [], []
    for i in range(n_links):
        placement = Placement.identity() if i == 0 else translation([0.4, 0, 0])
        joints.append(JointSpec("revolute", i - 1, placement, np.array([0.0, 1.0, 0.0])))
        inertias.append(BodyInertia(1.2, np.array([0.2, 0.0, 0.0]),
                                    np.diag([0.002, 0.01, 0.01])))
    return KinematicModel(joints, inertias, [], [])


def fixed_joint_tree():
    """Revolute root, a fixed joint mid-chain (its body owns no tangent
    column), then a revolute and a prismatic branch off the fixed body."""
    y_axis, x_axis, z_axis = np.eye(3)[1], np.eye(3)[0], np.eye(3)[2]
    tilted = Placement(so3_exp(np.array([0.3, -0.2, 0.5])), np.array([0.3, 0.0, 0.0]))
    joints = [
        JointSpec("revolute", -1, translation([0, 0, 0.5]), y_axis),
        JointSpec("fixed", 0, tilted, None),
        JointSpec("revolute", 1, translation([0.2, 0.1, 0.0]), x_axis),
        JointSpec("prismatic", 1, translation([0.0, -0.1, 0.05]), z_axis),
    ]
    inertias = [BodyInertia(0.4 + 0.2 * i, np.array([0.1, 0.02 * i, -0.03]),
                            np.diag([0.002, 0.003 + 0.001 * i, 0.004]))
                for i in range(4)]
    return KinematicModel(joints, inertias, [], [])


def cube_state(model, z=0.09998, v=None):
    q = model.neutral_configuration()
    q[2] = z
    vel = np.zeros(model.nv) if v is None else np.asarray(v, dtype=float)
    return SimState(q, vel)


def tight_params(**overrides):
    """Params tight enough that FD noise (~ncp_tol/eps) stays well under
    the comparison tolerances."""
    kw = dict(ncp_tol=1e-13, ncp_max_iters=20000)
    kw.update(overrides)
    return SimParams(**kw)


def jacobian_errors(jac, fd, thetas, include_lam=True):
    """Per-block max relative error, denominator max(1, |FD|_inf)."""
    errs = {}
    for blk in ("dv", "dq", "dlam"):
        if blk == "dlam" and not include_lam:
            continue
        amat, fmat = getattr(jac, blk), getattr(fd, blk)
        for t in thetas:
            if t not in amat or amat[t].size == 0:
                continue
            denom = max(1.0, float(np.abs(fmat[t]).max()))
            errs[f"{blk}/{t}"] = float(np.abs(amat[t] - fmat[t]).max()) / denom
    return errs


def worst_error(jac, fd, thetas, include_lam=True):
    errs = jacobian_errors(jac, fd, thetas, include_lam)
    return max(errs.values()) if errs else 0.0


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def count_steps(monkeypatch):
    """A list that gains one entry per simulator.step call made through the
    library. step is wrapped in the three modules that call it by name:
    simulator (rollout), fd and inverse."""
    from diffcontact import fd, inverse, simulator

    calls = []
    inner = simulator.step

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    for module in (simulator, fd, inverse):
        monkeypatch.setattr(module, "step", counted)
    return calls
