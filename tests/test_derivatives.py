"""Analytic step derivatives against finite differences across contact
modes, plus unit checks on the mode-reduced linear system."""
import dataclasses

import numpy as np
import pytest
from numpy.linalg import svd

from conftest import (
    chain_model,
    cube_model,
    jacobian_errors,
    sphere_model,
    tight_params,
    translation,
)
from diffcontact import collision, derivatives, dynamics
from diffcontact import model as model_module
from diffcontact.cli import load_scene
from diffcontact.collision import Halfspace, Sphere
from diffcontact.contact import ContactProblem, ContactSolution, Mode, solve_ncp
from diffcontact.derivatives import (
    SingularSlidingMode,
    _contact_packs,
    assemble_reduced_system,
    collision_correction_jtl,
    collision_correction_jv,
    sliding_basis,
    solve_reduced,
    step_jacobian,
)
from diffcontact.dynamics import compute_dynamics
from diffcontact.fd import fd_step_jacobian
from diffcontact.model import (
    BodyInertia,
    FrictionPair,
    Geometry,
    JointSpec,
    KinematicModel,
    compute_kinematics,
    integrate,
    integrate_jacobians,
)
from diffcontact.simulator import SimState, contact_jacobian, detect_contacts, rollout, step
from diffcontact.spatial import Placement
from oracles import rhs_contact_velocity


def axis_angle_quat(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([axis * np.sin(angle / 2.0), [np.cos(angle / 2.0)]])


def sphere_state(z=0.1 - 2e-5, v=None):
    q = np.array([0.0, 0.0, z, 0.0, 0.0, 0.0, 1.0])
    vel = np.zeros(6) if v is None else np.asarray(v, dtype=float)
    return SimState(q, vel)


def tilted_cube_state(model, angle=0.08, clearance=-3e-5):
    """Rotate about x so one edge (two corners) carries the contact, then
    drop the base until the low corners sit at the given signed distance."""
    quat = axis_angle_quat([1.0, 0.0, 0.0], angle)
    q = np.concatenate([[0.0, 0.0, 0.2], quat])
    kin = compute_kinematics(model, q)
    R = kin.body_rotations[0]
    t = kin.body_translations[0]
    corners = np.array(
        [[sx * 0.1, sy * 0.1, sz * 0.1] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    low = ((R @ corners.T).T[:, 2] + t[2]).min()
    q[2] -= low - clearance
    return SimState(q, np.array([0.05, 0.0, 0.0, 0.2, 0.0, 0.0]))


def bent_chain(qc, phi=-2e-5):
    """Raise or lower the chain base so the foot sphere sits at signed
    distance phi in the bent configuration qc."""
    probe = chain_model(3)
    kin = compute_kinematics(probe, np.asarray(qc, dtype=float))
    foot_z = kin.geom_translations[0, 2]
    return chain_model(3, base_height=0.09998 + (0.1 + phi - foot_z))


def sphere_pair_model(mu=0.5):
    joints = [
        JointSpec("free", -1, Placement.identity(), None),
        JointSpec("free", -1, Placement.identity(), None),
    ]
    inertias = [
        BodyInertia(1.0, np.zeros(3), np.diag([0.004] * 3)),
        BodyInertia(2.0, np.zeros(3), np.diag([0.018] * 3)),
    ]
    geoms = [
        Geometry(0, Sphere(0.1), Placement.identity()),
        Geometry(1, Sphere(0.15), Placement.identity()),
    ]
    return KinematicModel(joints, inertias, geoms, [FrictionPair(0, 1, mu)])


def sphere_pair_state():
    d = 0.25 - 3e-5
    e = d / np.sqrt(3.0)
    q = np.array([0, 0, 0, 0, 0, 0, 1.0, e, e, e, 0, 0, 0, 1.0])
    v = np.random.default_rng(9).normal(size=12) * 0.2
    return SimState(q, v)


# Each scenario: model, state, tau, params, whether dlam is unique, and
# whether a friction-coefficient column is worth checking.
def _scenarios():
    out = {}
    rng = np.random.default_rng(3)
    m = sphere_model(mu=0.7)
    out["free_fall"] = dict(
        model=m,
        state=SimState(np.array([0, 0, 1.0, 0, 0, 0, 1.0]), rng.normal(size=6) * 0.3),
        tau=rng.normal(size=6),
        check_mu=False,
    )
    out["sphere_stick"] = dict(model=m, state=sphere_state())
    out["sphere_slide"] = dict(model=m, state=sphere_state(v=[0, 0, 0, 1.0, 0.1, 0]))
    out["sphere_break"] = dict(model=m, state=sphere_state(v=[0, 0.2, 0, 0, 0, 0.5]))
    out["sphere_frictionless"] = dict(
        model=sphere_model(mu=0.0),
        state=sphere_state(v=[0, 0, 0, 0.8, 0, 0]),
        check_mu=False,
    )
    mb = cube_model(mu=0.6)
    out["box_two_corner"] = dict(model=mb, state=tilted_cube_state(mb))
    out["box_flat_stick"] = dict(
        model=mb, state=SimState(np.array([0, 0, 0.1 - 2e-5, 0, 0, 0, 1.0]), np.zeros(6)),
        lam_ok=False,
    )
    out["box_flat_slide"] = dict(
        model=mb,
        state=SimState(
            np.array([0, 0, 0.1 - 2e-5, 0, 0, 0, 1.0]),
            np.array([0, 0, 0, 0.9, 0, 0.0]),
        ),
        lam_ok=False,
    )
    qc = np.array([0.12, -0.35, 0.28])
    mc = bent_chain(qc)
    out["chain_foot_stick"] = dict(
        model=mc, state=SimState(qc, np.zeros(3)), tau=np.array([0.3, -0.1, 0.05])
    )
    out["chain_foot_slide"] = dict(
        model=mc, state=SimState(qc, np.array([0.8, -0.5, 0.3]))
    )
    out["sphere_on_sphere"] = dict(model=sphere_pair_model(), state=sphere_pair_state())
    out["baumgarte_gains"] = dict(
        model=m,
        state=SimState(
            np.array([0, 0, 0.1 - 5e-4, 0, 0, 0, 1.0]), np.array([0, 0, 0, 0.4, 0, 0.0])
        ),
        params=tight_params(ncp_tol=3e-15, baumgarte_kp=0.1, baumgarte_kd=0.05),
    )
    return out


SCENARIOS = _scenarios()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_step_jacobian_matches_fd(name):
    sc = SCENARIOS[name]
    model, state = sc["model"], sc["state"]
    tau = sc.get("tau")
    params = sc.get("params") or tight_params(ncp_tol=3e-15)
    lam_ok = sc.get("lam_ok", True)

    res = step(model, state, tau, params)
    jac = step_jacobian(model, state, tau, params, res, theta="all")
    fd = fd_step_jacobian(model, state, tau, params, theta="all", eps=1e-6, base=res)

    include_lam = lam_ok and not jac.rank_deficient
    errs = jacobian_errors(jac, fd, ("q", "v", "tau"), include_lam=include_lam)
    assert errs, "no blocks compared"
    worst = max(errs.values())
    assert worst < 2e-5, f"{name}: {errs}"

    if sc.get("check_mu", True) and model.pairs:
        jm = step_jacobian(model, state, tau, params, res, theta=("mu", 0))
        fm = fd_step_jacobian(model, state, tau, params, theta=("mu", 0), eps=1e-6, base=res)
        errs_mu = jacobian_errors(jm, fm, ("mu",), include_lam=include_lam)
        assert max(errs_mu.values()) < 2e-5, f"{name}: {errs_mu}"


@pytest.mark.parametrize("theta", ["bogus", ("mu", 5), ("mu", -1), ("tau",), ["q", "x"], [],
                                   ("mu", True), ("mu", False), ("mu", np.True_), ("mu", 1.0),
                                   ("mu", np.int64(4)), ("mu", np.int64(-1))])
def test_step_jacobian_rejects_unknown_theta(theta):
    """chain12 has four friction pairs, so ("mu", True) would index pair 1
    if bools counted as integers."""
    model, state, params = load_scene("chain12")
    res = step(model, state, None, params)
    with pytest.raises(ValueError):
        step_jacobian(model, state, None, params, res, theta=theta)


def test_step_jacobian_accepts_numpy_pair_index():
    model, state, params = load_scene("cube_slide")
    res = step(model, state, None, params)
    ref = step_jacobian(model, state, None, params, res, theta=("mu", 0))
    for k in (np.int64(0), np.int32(0), np.intp(0)):
        jac = step_jacobian(model, state, None, params, res, theta=("mu", k))
        for blk in ("dv", "dq", "dlam"):
            assert np.array_equal(getattr(jac, blk)["mu"], getattr(ref, blk)["mu"])


@pytest.mark.parametrize("scene", ["cube_slide", "chain12"])
def test_step_jacobian_reuses_step_mass_matrix_solves(monkeypatch, scene):
    """step keeps the M^-1 J_c^T it builds G from; step_jacobian forms M^-1
    once for the q, v and tau blocks and solves with M not at all for mu."""
    model, state, params = load_scene(scene)
    res = step(model, state, None, params)
    assert res.contacts
    G = res.J_c @ res.Minv_JcT
    assert np.array_equal(res.problem.G, 0.5 * (G + G.T))
    calls, cho_solve = [], dynamics.cho_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return cho_solve(*args, **kwargs)

    monkeypatch.setattr(dynamics, "cho_solve", counting)
    step_jacobian(model, state, None, params, res, theta="all")
    assert len(calls) <= 1
    calls.clear()
    step_jacobian(model, state, None, params, res, theta="mu")
    assert calls == []


def test_step_jacobian_reuses_id_derivative_blocks(monkeypatch):
    """On a chain12 contact step with K_d on, theta="all" builds d(J_i w)/dq
    twice, for the ID derivatives' w = v and w = a, and the rhs reuses both;
    the body and contact wrenches share one applied-wrench product."""
    model, state, params = load_scene("chain12")
    params = dataclasses.replace(params, baumgarte_kd=0.05)
    res = step(model, state, None, params)
    assert res.contacts
    calls = {"_jv_q": 0, "applied_wrench_q_derivative": 0}

    def count(module, name):
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    # Every site that calls either one: id_state_derivatives (dynamics),
    # jv_q_derivatives (model) and the rhs (derivatives).
    count(dynamics, "_jv_q")
    count(model_module, "_jv_q")
    count(dynamics, "applied_wrench_q_derivative")
    count(derivatives, "applied_wrench_q_derivative")
    step_jacobian(model, state, None, params, res, theta="all")
    assert calls == {"_jv_q": 2, "applied_wrench_q_derivative": 1}


def test_step_jacobian_reuses_step_dynamics(monkeypatch):
    """The step result carries its kinematics and dynamics; the derivative
    pass must not rebuild them."""
    model, state, params = load_scene("cube_slide")
    res = step(model, state, None, params)
    assert res.contacts
    expected = {theta: step_jacobian(model, state, None, params, res, theta=theta)
                for theta in ("all", "tau", ("mu", 0))}

    def fail(*args, **kwargs):
        raise AssertionError("step_jacobian recomputed the step's dynamics")

    monkeypatch.setattr(derivatives, "compute_kinematics", fail)
    monkeypatch.setattr(derivatives, "compute_dynamics", fail)
    for theta, ref in expected.items():
        jac = step_jacobian(model, state, None, params, res, theta=theta)
        for blk in ("dv", "dq", "dlam"):
            got, want = getattr(jac, blk), getattr(ref, blk)
            assert list(got) == list(want)
            for key in want:
                assert np.array_equal(got[key], want[key])


def test_reduced_system_factored_once_per_step_jacobian(monkeypatch):
    """Every theta block solves with the one SVD of A made per call."""
    model, state, params = load_scene("cube_slide")
    res = step(model, state, None, params)
    assert res.contacts
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(derivatives, "svd", counting)
    step_jacobian(model, state, None, params, res, theta=["q", "v", "tau", "mu"])
    assert len(calls) == 1


def test_contact_packs_built_for_q_only(monkeypatch):
    """The v, tau and mu blocks need no contact-frame derivatives."""
    model, state, params = load_scene("cube_slide")
    res = step(model, state, None, params)
    assert res.contacts
    thetas = ("v", "tau", ("mu", 0))
    expected = {t: step_jacobian(model, state, None, params, res, theta=t) for t in thetas}

    def fail(*args, **kwargs):
        raise AssertionError("contact packs built for a block that does not read them")

    monkeypatch.setattr(derivatives, "_contact_packs", fail)
    for theta, ref in expected.items():
        jac = step_jacobian(model, state, None, params, res, theta=theta)
        for blk in ("dv", "dq", "dlam"):
            for key, want in getattr(ref, blk).items():
                assert np.array_equal(getattr(jac, blk)[key], want)
        assert jac.boundary == ref.boundary


def test_step_jacobian_runs_no_narrow_phase(monkeypatch):
    """The contact-frame derivatives come from the step's own frames: the
    Jacobian runs the narrow phase on no pair."""
    model, state, params = load_scene("cube_slide")
    res = step(model, state, None, params)
    assert res.contacts
    records, calls = collision._contact_records, []

    def counting(*args, **kwargs):
        calls.append(1)
        return records(*args, **kwargs)

    monkeypatch.setattr(collision, "_contact_records", counting)
    step_jacobian(model, state, None, params, res, theta="all")
    assert calls == []


def test_cube_slide_jacobian_runs_one_frame_derivative_and_one_sliding_basis(monkeypatch):
    """The four sliding corners of cube_slide are one pair: the contact packs
    differentiate them in one frame_derivative call, and the reduced system
    builds all four sliding bases in one sliding_basis call."""
    model, state, params = load_scene("cube_slide")
    res = step(model, state, None, params)
    assert len(res.contacts) == 4 and len(model.pairs) == 1
    assert all(m is Mode.SLIDING for m in res.solution.modes)
    calls = {"frame_derivative": [], "sliding_basis": [], "assemble_reduced_system": []}
    for module, name in ((collision, "frame_derivative"), (derivatives, "sliding_basis"),
                         (derivatives, "assemble_reduced_system")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name].append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    step_jacobian(model, state, None, params, res, theta=["q", "v", "tau", "mu"])
    assert len(calls["frame_derivative"]) == 1
    assert len(calls["sliding_basis"]) == len(calls["assemble_reduced_system"]) == 1


def test_chain12_jacobian_runs_one_frame_derivative_and_no_narrow_phase(monkeypatch):
    """chain12's four contacts come from four pairs of one kind: the contact
    packs differentiate them in one frame_derivative call and run no narrow
    phase."""
    model, state, params = load_scene("chain12")
    res = step(model, state, None, params)
    assert len(model.pairs) == len(res.contacts) == 4
    calls = {"frame_derivative": 0, "_contact_records": 0}
    for name in calls:
        def counting(*args, _fn=getattr(collision, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(collision, name, counting)
    step_jacobian(model, state, None, params, res, theta="all")
    assert calls == {"frame_derivative": 1, "_contact_records": 0}


def test_step_jacobian_block_lists_match_single_blocks():
    """A list of blocks returns exactly what each block returns alone."""
    sc = SCENARIOS["chain_foot_slide"]
    model, state, tau = sc["model"], sc["state"], sc.get("tau")
    params = sc.get("params") or tight_params(ncp_tol=3e-15)
    res = step(model, state, tau, params)
    jac = step_jacobian(model, state, tau, params, res, theta=["q", "v", "tau", ("mu", 0)])
    assert list(jac.dv) == ["q", "v", "tau", "mu"]
    for theta, key in (("q", "q"), ("v", "v"), ("tau", "tau"), (("mu", 0), "mu")):
        single = step_jacobian(model, state, tau, params, res, theta=theta)
        for blk in ("dv", "dq", "dlam"):
            assert list(getattr(single, blk)) == [key]
            assert np.array_equal(getattr(jac, blk)[key], getattr(single, blk)[key])
        assert single.rank_deficient == jac.rank_deficient


def test_flat_box_contact_force_derivative_unique():
    """Four coplanar corners make lambda non-unique, but the generalized
    contact force J_c^T lambda and hence dv are still well defined."""
    sc = SCENARIOS["box_flat_stick"]
    model, state = sc["model"], sc["state"]
    params = tight_params(ncp_tol=3e-15)
    res = step(model, state, None, params)
    jac = step_jacobian(model, state, None, params, res)
    assert jac.rank_deficient
    fd = fd_step_jacobian(model, state, None, params, eps=1e-6, base=res)
    J_c = res.J_c
    for t in ("q", "v", "tau"):
        force_a = J_c.T @ jac.dlam[t]
        force_f = J_c.T @ fd.dlam[t]
        err = np.abs(force_a - force_f).max() / max(1.0, np.abs(force_f).max())
        assert err < 2e-5, t


def test_breaking_contact_has_exactly_zero_dlam():
    sc = SCENARIOS["sphere_break"]
    params = tight_params(ncp_tol=3e-15)
    res = step(sc["model"], sc["state"], None, params)
    assert res.solution.modes == [Mode.BREAKING]
    jac = step_jacobian(sc["model"], sc["state"], None, params, res)
    for t in ("q", "v", "tau"):
        assert jac.dlam[t].shape == (3, 6)
        assert np.all(jac.dlam[t] == 0.0)


def test_no_contact_lam_blocks_empty():
    sc = SCENARIOS["free_fall"]
    params = tight_params()
    res = step(sc["model"], sc["state"], sc["tau"], params)
    jac = step_jacobian(sc["model"], sc["state"], sc["tau"], params, res)
    for t in ("q", "v", "tau"):
        assert jac.dlam[t].shape == (0, 6)
    assert not jac.rank_deficient and not jac.boundary
    assert res.Minv_JcT.shape == (sc["model"].nv, 0)


# -- sliding basis ----------------------------------------------------------


def _sliding_pair(mu=0.5, lam_n=2.0, s_t=0.8, u=(0.6, 0.8)):
    u = np.asarray(u, dtype=float)
    lam = np.array([-mu * lam_n * u[0], -mu * lam_n * u[1], lam_n])
    sigma = np.array([s_t * u[0], s_t * u[1], 0.0])
    return lam, sigma, u


# (lam, sigma, mu) of one contact with no sliding basis: frictionless, no
# slip, apex impulse
_DEGENERATE_SLIDING = [
    (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 0.0),
    (np.array([-0.5, 0.0, 1.0]), np.array([0.0, 0.0, 0.0]), 0.5),
    (np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), 0.5),
]


def test_sliding_basis_columns():
    mu = 0.5
    lam, sigma, u = _sliding_pair(mu=mu)
    b = sliding_basis(lam, sigma, mu)
    np.testing.assert_allclose(b.R[:, 0], lam / np.linalg.norm(lam), atol=1e-14)
    np.testing.assert_allclose(b.R[:, 1], [-u[1], u[0], 0.0], atol=1e-14)
    # orthonormal columns; the second spans the cone cross-section tangent
    np.testing.assert_allclose(b.R.T @ b.R, np.eye(2), atol=1e-14)
    # P = blockdiag((1/alpha)(I - u u^T), 1) with alpha = |sigma_T| / (mu lam_N)
    P = np.eye(3)
    P[:2, :2] = (np.eye(2) - np.outer(u, u)) / (0.8 / (mu * 2.0))
    np.testing.assert_allclose(b.P, P, atol=1e-14)


def test_sliding_basis_projector_annihilates_solution_sigma():
    """P removes the component of sigma along the established slip ray, so
    the projected base residual is exactly zero at the solution."""
    lam, sigma, _ = _sliding_pair(mu=0.9, lam_n=1.3, s_t=0.25, u=(-0.28, 0.96))
    b = sliding_basis(lam, sigma, 0.9)
    np.testing.assert_allclose(b.P @ sigma, np.zeros(3), atol=1e-14)
    assert b.P[2, 2] == 1.0


@pytest.mark.parametrize("lam, sigma, mu", _DEGENERATE_SLIDING)
def test_sliding_basis_degenerate_inputs_raise(lam, sigma, mu):
    with pytest.raises(SingularSlidingMode):
        sliding_basis(lam, sigma, mu)


def test_stacked_sliding_basis_matches_per_contact_calls():
    """A stacked (k, 3) call gives, slice by slice, the bits of the
    single-contact calls on random impulse and velocity draws."""
    gen = np.random.default_rng(21)
    for k in (1, 2, 5, 17):
        lam = gen.normal(size=(k, 3))
        lam[:, 2] = np.abs(lam[:, 2]) + 0.1
        sigma = gen.normal(size=(k, 3))
        mu = gen.uniform(0.1, 1.5, k)
        stacked = sliding_basis(lam, sigma, mu)
        assert stacked.R.shape == (k, 3, 2) and stacked.P.shape == (k, 3, 3)
        for c in range(k):
            one = sliding_basis(lam[c], sigma[c], float(mu[c]))
            assert np.array_equal(stacked.R[c], one.R)
            assert np.array_equal(stacked.P[c], one.P)


@pytest.mark.parametrize("lam, sigma, mu", _DEGENERATE_SLIDING)
def test_stacked_sliding_basis_raises_on_any_degenerate_contact(lam, sigma, mu):
    """One degenerate contact among regular ones makes the stacked call raise."""
    good_lam, good_sigma, _ = _sliding_pair(mu=0.5)
    with pytest.raises(SingularSlidingMode):
        sliding_basis(np.stack([good_lam, lam, good_lam]),
                      np.stack([good_sigma, sigma, good_sigma]), np.array([0.5, mu, 0.5]))


# -- reduced system ---------------------------------------------------------


def _sticking_solution(G, lam, mu):
    lam = np.asarray(lam, dtype=float)
    n = lam.size // 3
    sigma = G @ lam  # sticking: sigma = 0 at the true solution; unused here
    return ContactSolution(
        lam=lam,
        sigma=np.zeros_like(lam),
        modes=[Mode.STICKING] * n,
        ambiguous=np.zeros(n, dtype=bool),
        iterations=0,
        residual=0.0,
        converged=True,
    )


def test_reduced_system_all_sticking_is_full_G():
    gen = np.random.default_rng(11)
    A = gen.normal(size=(6, 6))
    G = A @ A.T + 0.5 * np.eye(6)
    problem = ContactProblem(G=G, g=gen.normal(size=6), mu=np.array([0.4, 0.4]))
    sol = _sticking_solution(G, gen.normal(size=6), 0.4)
    rs = assemble_reduced_system(problem, sol)
    assert rs.A.shape[0] == 6
    np.testing.assert_allclose(rs.A, G, atol=1e-15)
    # solve_reduced then reproduces -G^{-1} rhs
    rhs = gen.normal(size=(6, 4))
    dlam, deficient = solve_reduced(rs, rhs)
    assert not deficient
    np.testing.assert_allclose(dlam, -np.linalg.solve(G, rhs), atol=1e-10)


def test_reduced_system_frictionless_keeps_normal_rows():
    gen = np.random.default_rng(12)
    A = gen.normal(size=(3, 3))
    G = A @ A.T + np.eye(3)
    problem = ContactProblem(G=G, g=gen.normal(size=3), mu=np.array([0.0]))
    sol = ContactSolution(
        lam=np.array([0.0, 0.0, 1.2]),
        sigma=np.zeros(3),
        modes=[Mode.STICKING],
        ambiguous=np.zeros(1, dtype=bool),
        iterations=0,
        residual=0.0,
        converged=True,
    )
    rs = assemble_reduced_system(problem, sol)
    assert rs.A.shape[0] == 1
    np.testing.assert_allclose(rs.A, G[2:3, 2:3])
    rhs = gen.normal(size=(3, 2))
    dlam, deficient = solve_reduced(rs, rhs)
    assert not deficient
    # tangential derivative rows stay pinned at zero
    np.testing.assert_allclose(dlam[:2], 0.0)
    np.testing.assert_allclose(dlam[2], -rhs[2] / G[2, 2])


def test_reduced_system_skips_breaking_contacts():
    gen = np.random.default_rng(13)
    A = gen.normal(size=(6, 6))
    G = A @ A.T + np.eye(6)
    problem = ContactProblem(G=G, g=gen.normal(size=6), mu=np.array([0.3, 0.3]))
    sol = ContactSolution(
        lam=np.concatenate([np.zeros(3), [0.1, -0.05, 0.9]]),
        sigma=np.concatenate([[0.0, 0.0, 0.4], np.zeros(3)]),
        modes=[Mode.BREAKING, Mode.STICKING],
        ambiguous=np.zeros(2, dtype=bool),
        iterations=0,
        residual=0.0,
        converged=True,
    )
    rs = assemble_reduced_system(problem, sol)
    assert rs.A.shape[0] == 3
    np.testing.assert_allclose(rs.A, G[3:, 3:])
    dlam, _ = solve_reduced(rs, np.eye(6))
    np.testing.assert_allclose(dlam[:3], 0.0)


def test_reduced_system_matches_operator_composition():
    """B, C and A = B G C + diag(Q), against per-contact blocks built from
    sliding_basis and the identity."""
    gen = np.random.default_rng(14)
    mu = np.array([0.6, 0.8])
    prob = None
    # random two-contact problem with one sliding, one sticking contact
    for _ in range(200):
        A = gen.normal(size=(6, 6))
        G = A @ A.T + 0.05 * np.eye(6)
        g = gen.normal(size=6) * 2.0
        prob = ContactProblem(G=G, g=g, mu=mu)
        sol = solve_ncp(prob, tol=1e-13, max_iters=20000)
        if sol.converged and sol.modes.count(Mode.SLIDING) == 1 and sol.modes.count(
            Mode.STICKING
        ) == 1:
            break
    else:
        pytest.fail("no mixed sliding/sticking sample found")
    rs = assemble_reduced_system(prob, sol)
    assert rs.A.shape[0] == 5
    # expected B rows, C columns and Q block per contact, in contact order
    B, C, Q = np.zeros((5, 6)), np.zeros((6, 5)), np.zeros((5, 5))
    off = 0
    for c, mode in enumerate(sol.modes):
        i = 3 * c
        if mode is Mode.SLIDING:
            basis = sliding_basis(sol.lam[i : i + 3], sol.sigma[i : i + 3], mu[c])
            B[off : off + 2, i : i + 3] = basis.R.T @ basis.P
            C[i : i + 3, off : off + 2] = basis.R
            Q[off + 1, off + 1] = 1.0
            off += 2
        else:
            B[off : off + 3, i : i + 3] = np.eye(3)
            C[i : i + 3, off : off + 3] = np.eye(3)
            off += 3
    np.testing.assert_allclose(rs.B, B, atol=1e-15)
    np.testing.assert_allclose(rs.C, C, atol=1e-15)
    np.testing.assert_allclose(rs.A, B @ prob.G @ C + Q, atol=1e-12)
    # solve_reduced returns C X with A X = -B rhs
    rhs = gen.normal(size=(6, 3))
    dlam, deficient = solve_reduced(rs, rhs)
    assert not deficient
    np.testing.assert_allclose(dlam, C @ np.linalg.solve(B @ prob.G @ C + Q, -B @ rhs),
                               atol=1e-9)


def test_solve_reduced_flags_redundant_active_set():
    gen = np.random.default_rng(15)
    A = gen.normal(size=(3, 3))
    B = A @ A.T + np.eye(3)
    G = np.block([[B, B], [B, B]])  # duplicated contact rows
    problem = ContactProblem(G=G, g=np.zeros(6), mu=np.array([0.5, 0.5]))
    sol = _sticking_solution(G, gen.normal(size=6), 0.5)
    rs = assemble_reduced_system(problem, sol)
    rhs = np.tile(gen.normal(size=(3, 2)), (2, 1))
    dlam, deficient = solve_reduced(rs, rhs)
    assert deficient
    # rhs lies in range(G): the least-squares solution still solves exactly
    np.testing.assert_allclose(G @ dlam, -rhs, atol=1e-9)


def test_redundant_sticking_set_matches_pseudoinverse_closed_form():
    # fourleg standing on four sticking feet: G has 7 significant singular
    # values, and the 8th is round-off (6.6e-17, 2.3e-14, 4.4e-13 of the
    # largest on these three steps). All sticking, lambda = -G^+ g, so
    # v+ = v_free - M^-1 J_c^T G^+ (J_c v_free + c) with c fixed by q:
    # dv+ = P dv_free, P = I - M^-1 J_c^T G^+ J_c, with no PGS involved.
    # Inverting the round-off value instead moves dv["v"] by 100%.
    model, state, params = load_scene("fourleg")
    params = dataclasses.replace(params, ncp_tol=1e-9)
    gen = np.random.default_rng(0)
    dt, nv, warm = params.dt, model.nv, None
    for _ in range(3):
        tau = np.zeros(nv)
        tau[6:] = gen.normal(0.0, 0.5, 4)
        res = step(model, state, tau, params, warm_start=warm)
        assert res.solution.converged
        assert all(m is Mode.STICKING for m in res.solution.modes) and len(res.contacts) == 4
        jac = step_jacobian(model, state, tau, params, res, theta=["v", "tau"])
        assert jac.rank_deficient
        dyn, Jc = res.dyn, res.J_c
        P = np.eye(nv) - dyn.solve(Jc.T @ np.linalg.pinv(res.problem.G, rcond=1e-10) @ Jc)
        # the bias is quadratic in v, so its central difference is exact
        # up to round-off
        db_dv = np.column_stack([
            (compute_dynamics(model, dyn.kin, state.v + 1e-3 * e).bias
             - compute_dynamics(model, dyn.kin, state.v - 1e-3 * e).bias) / 2e-3
            for e in np.eye(nv)])
        ref = {"v": P @ (np.eye(nv) - dt * dyn.solve(db_dv)),
               "tau": P @ (dt * dyn.solve(np.eye(nv)))}
        _, Dd = integrate_jacobians(model, dt * res.state.v)
        for t, dv in ref.items():
            for got, want in ((jac.dv[t], dv), (jac.dq[t], dt * Dd @ dv)):
                assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max()), t
        state, warm = res.state, res.warm_start()


def test_sliding_box_patch_is_flagged_and_matches_fd():
    # cube_slide slides on its four bottom corners: the reduced system has a
    # redundant direction whose singular value is round-off. Cutting it flags
    # the step; inverting that round-off instead puts dv 1.2e-4 off FD.
    model, state, params = load_scene("cube_slide")
    taus = 0.05 * np.random.default_rng(3).normal(size=(25, 6))
    results = rollout(model, state, taus, 25, params)
    base, res = results[3].state, results[4]
    jac = step_jacobian(model, base, taus[4], params, res, theta=["q", "v", "tau"])
    assert jac.rank_deficient
    fd = fd_step_jacobian(model, base, taus[4], params, theta=["q", "v", "tau"], eps=1e-7,
                          base=res)
    for t in ("q", "v", "tau"):
        err = np.abs(jac.dv[t] - fd.dv[t]).max() / max(1.0, np.abs(fd.dv[t]).max())
        assert err <= 1e-5, (t, err)


# -- frozen-impulse rhs and frame-variation corrections ----------------------


def _sigma_frozen(model, q, v, tau, params, lam, order):
    """sigma = G lam + g rebuilt from scratch with the impulse frozen."""
    kin = compute_kinematics(model, q)
    dyn = compute_dynamics(model, kin, v)
    tau = np.zeros(model.nv) if tau is None else tau
    v_free = v + params.dt * dyn.solve(tau - dyn.bias)
    contacts = detect_contacts(model, kin, params.contact_margin)
    by_key = {k: i for i, k in enumerate(contacts.keys())}
    contacts = contacts[np.array([by_key[k] for k in order])]
    J_c = contact_jacobian(model, dyn, contacts)[2]
    G = J_c @ dyn.solve(J_c.T)
    g = J_c @ v_free
    for i, f in enumerate(contacts):
        rate = f.signed_distance / params.dt
        g[3 * i + 2] += rate - params.baumgarte_kp * min(rate, 0.0)
    if params.baumgarte_kd != 0.0:
        g -= params.baumgarte_kd * (J_c @ v)
    return G @ lam + g


def _rhs_fd_error(model, state, tau, params, theta):
    """Worst error of rhs_contact_velocity against central FD of sigma at the
    step's frozen impulse, relative to max(1, |FD|)."""
    res = step(model, state, tau, params)
    assert res.contacts
    order = [(f.pair, f.feature) for f in res.contacts]
    lam = res.solution.lam

    rhs = rhs_contact_velocity(model, state, tau, params, res, theta=theta)
    eps = 1e-6
    fd = np.zeros_like(rhs)
    for k in range(model.nv):
        d = np.zeros(model.nv)
        d[k] = eps
        if theta == "q":
            args_p = (integrate(model, state.q, d), state.v, tau)
            args_m = (integrate(model, state.q, -d), state.v, tau)
        elif theta == "v":
            args_p = (state.q, state.v + d, tau)
            args_m = (state.q, state.v - d, tau)
        else:
            args_p = (state.q, state.v, tau + d)
            args_m = (state.q, state.v, tau - d)
        sp = _sigma_frozen(model, *args_p, params, lam, order)
        sm = _sigma_frozen(model, *args_m, params, lam, order)
        fd[:, k] = (sp - sm) / (2 * eps)
    return np.abs(rhs - fd).max() / max(1.0, np.abs(fd).max())


@pytest.mark.parametrize("theta", ["q", "v", "tau"])
@pytest.mark.parametrize("gains", [(0.0, 0.0), (0.1, 0.05)])
def test_rhs_contact_velocity_matches_fd(theta, gains):
    model = sphere_model(mu=0.7)
    state = sphere_state(z=0.1 - 5e-4, v=[0.0, 0.3, 0.0, 0.9, 0.1, 0.0])
    tau = np.array([0.01, -0.02, 0.0, 0.1, 0.0, 0.05])
    params = tight_params(ncp_tol=3e-15, baumgarte_kp=gains[0], baumgarte_kd=gains[1])
    err = _rhs_fd_error(model, state, tau, params, theta)
    assert err < 5e-6, err


@pytest.mark.parametrize("theta", ["q", "v"])
def test_rhs_contact_velocity_matches_fd_on_chain_with_kd(theta):
    """The rhs takes d(J v+)/dq and the K_d term's d(J v)/dq from the ID
    derivatives' jv_q blocks; on a 12-link chain with four feet the paths
    run up to twelve joints deep."""
    model = chain_model(12, foot_links=[2, 5, 8, 11])
    gen = np.random.default_rng(21)
    state = SimState(model.neutral_configuration(), gen.uniform(-0.5, 0.5, model.nv))
    tau = gen.uniform(-1.0, 1.0, model.nv)
    params = tight_params(ncp_tol=3e-15, baumgarte_kp=0.1, baumgarte_kd=0.05)
    err = _rhs_fd_error(model, state, tau, params, theta)
    assert err < 5e-6, err


def test_rhs_contact_velocity_rejects_unknown_theta():
    model = sphere_model()
    state = sphere_state()
    params = tight_params()
    res = step(model, state, None, params)
    with pytest.raises(ValueError):
        rhs_contact_velocity(model, state, None, params, res, theta="mu")


def test_frame_correction_adjointness():
    """<d(J_c^T lam) dq, w> == <lam, d(J_c w) dq> exactly, per contact."""
    model = cube_model(mu=0.6)
    state = tilted_cube_state(model)
    params = tight_params(ncp_tol=3e-15)
    res = step(model, state, None, params)
    packs = _contact_packs(model, res)
    n = len(res.contacts)
    gen = np.random.default_rng(7)
    for i in range(n):
        for _ in range(5):
            lam_c = gen.normal(size=3)
            w = gen.normal(size=model.nv)
            dq = gen.normal(size=model.nv)
            lam = np.zeros(3 * n)
            lam[3 * i : 3 * i + 3] = lam_c
            lhs = float((collision_correction_jtl(packs, lam) @ dq) @ w)
            rhs = float(lam_c @ (collision_correction_jv(packs, w)[i] @ dq))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_step_jacobian_mu_zero_columns_without_sliding():
    """Friction coefficient only enters through sliding contacts."""
    model = sphere_model(mu=0.7)
    state = sphere_state()  # resting, sticking contact
    params = tight_params(ncp_tol=3e-15)
    res = step(model, state, None, params)
    assert res.solution.modes == [Mode.STICKING]
    jac = step_jacobian(model, state, None, params, res, theta=("mu", 0))
    assert np.all(jac.dv["mu"] == 0.0)
    assert np.all(jac.dlam["mu"] == 0.0)
