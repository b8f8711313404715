"""NCP solver: cone projections, residual, solve quality, classification,
and the Newton polish on the identified modes.

The single-contact family has closed-form solutions (frozen here as the
oracle); randomized PSD problems are checked against the three contact
principles directly rather than against the solver's own residual.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_model
from diffcontact import contact, simulator
from diffcontact.cli import load_scene
from diffcontact.contact import (
    ContactProblem,
    Mode,
    ncp_residual,
    solve_ncp,
)
from oracles import cone_project, de_saxce_correction, dual_cone_project

rng = np.random.default_rng(41)


def one_contact_solution(g, mu, a=1.0):
    """Closed form for G = a I: separation iff g_N >= 0; stick if -g/a is
    cone-feasible; else slide with sigma_N = 0, so lam_N = -g_N/a and
    lam_T = -mu lam_N g_T/|g_T| (slip keeps the direction of g_T)."""
    g = np.asarray(g, dtype=float)
    if g[2] >= 0.0:
        return np.zeros(3)
    lam = -g / a
    if np.hypot(lam[0], lam[1]) <= mu * lam[2]:
        return lam
    gt = np.hypot(g[0], g[1])
    lam_n = -g[2] / a
    t = g[:2] / gt
    return np.array([-mu * lam_n * t[0], -mu * lam_n * t[1], lam_n])


def single(g, mu):
    return ContactProblem(np.eye(3), np.asarray(g, dtype=float), np.array([mu]))


def random_psd_problem(gen, n, mu_hi=1.5, scale=1.0):
    A = gen.normal(size=(3 * n, 3 * n))
    G = A @ A.T + 1e-3 * np.eye(3 * n)
    G *= scale / np.abs(G).max()
    g = gen.normal(size=3 * n) * scale
    mu = gen.uniform(0.0, mu_hi, n)
    return ContactProblem(G, g, mu)


def test_problem_validation():
    with pytest.raises(ValueError):
        ContactProblem(np.eye(3), np.zeros(4), np.array([0.5]))
    with pytest.raises(ValueError):
        ContactProblem(np.eye(3), np.zeros(3), np.array([-0.5]))


@pytest.mark.parametrize("field", ["G", "g", "mu"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_rejects_non_finite_entries(field, bad):
    parts = dict(G=np.eye(3), g=np.array([0.1, 0.0, -1.0]), mu=np.array([0.5]))
    parts[field] = parts[field].copy()
    parts[field].flat[-1] = bad
    with pytest.raises(ValueError):
        ContactProblem(**parts)


def test_nan_warm_start_is_not_converged():
    sol = solve_ncp(single([0.1, 0.0, -1.0], 0.5), tol=1e-12,
                    warm_start=np.array([np.nan, 0.0, 1.0]))
    assert not sol.converged
    assert math.isnan(sol.residual)


@pytest.mark.parametrize("lam, sigma", [
    ([np.nan, 0.0, 1.0], None),
    ([0.0, 0.0, 1.0], [0.0, np.inf, 0.0]),
    ([0.0, 0.0, 0.0], [0.0, 0.0, np.nan]),
])
def test_residual_is_nan_on_non_finite_input(lam, sigma):
    prob = single([0.1, 0.0, -1.0], 0.5)
    assert math.isnan(ncp_residual(prob, np.array(lam), None if sigma is None else np.array(sigma)))


def test_warm_start_of_wrong_shape_raises():
    with pytest.raises(ValueError):
        solve_ncp(single([0.1, 0.0, -1.0], 0.5), warm_start=np.ones(6))


@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
       st.floats(0.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_cone_project_is_projection(lam, mu):
    lam = np.array(lam)
    p = cone_project(lam, mu)
    # feasible
    assert np.hypot(p[0], p[1]) <= mu * p[2] + 1e-9 * max(1, np.abs(p).max())
    # idempotent
    np.testing.assert_allclose(cone_project(p, mu), p, atol=1e-12)
    # no closer feasible point among probes
    d = np.linalg.norm(lam - p)
    for _ in range(5):
        probe = cone_project(lam + np.random.default_rng(3).normal(size=3), mu)
        assert np.linalg.norm(lam - probe) >= d - 1e-9


def test_dual_cone_project_mu_zero_is_halfspace():
    y = np.array([0.3, -0.2, -0.5])
    p = dual_cone_project(y, 0.0)
    np.testing.assert_allclose(p, [0.3, -0.2, 0.0], atol=0)


def test_de_saxce_correction_stacks():
    sigma = np.array([3.0, 4.0, -1.0, 0.0, 0.0, 2.0])
    out = de_saxce_correction(sigma, np.array([0.5, 0.8]))
    np.testing.assert_allclose(out, [0, 0, 2.5, 0, 0, 0.0], atol=0)


def test_separating_contact():
    sol = solve_ncp(single([0.0, 0.0, 1.0], 0.5), tol=1e-12)
    np.testing.assert_allclose(sol.lam, 0.0, atol=0)
    assert sol.modes == [Mode.BREAKING]
    assert sol.converged


def test_normal_push_no_friction_needed():
    sol = solve_ncp(single([0.0, 0.0, -2.0], 0.5), tol=1e-12)
    np.testing.assert_allclose(sol.lam, [0, 0, 2.0], atol=1e-11)
    assert sol.modes == [Mode.STICKING]


def test_sticking_inside_cone():
    g = [0.1, -0.05, -1.0]
    sol = solve_ncp(single(g, 1.0), tol=1e-13)
    np.testing.assert_allclose(sol.lam, [-0.1, 0.05, 1.0], atol=1e-11)
    np.testing.assert_allclose(sol.sigma, 0.0, atol=1e-11)
    assert sol.modes == [Mode.STICKING]


def test_sliding_closed_form():
    mu = 0.5
    g = [1.0, 0.0, -1.0]
    sol = solve_ncp(single(g, mu), tol=1e-13)
    expect = one_contact_solution(g, mu)
    np.testing.assert_allclose(sol.lam, expect, atol=1e-10)
    assert sol.modes == [Mode.SLIDING]
    # friction opposes slip and sits on the cone boundary
    assert sol.sigma[0] > 0
    assert abs(np.hypot(sol.lam[0], sol.lam[1]) - mu * sol.lam[2]) < 1e-10


def test_one_contact_family_against_closed_form():
    gen = np.random.default_rng(42)
    for _ in range(200):
        g = gen.normal(size=3) * gen.uniform(0.1, 3.0)
        mu = gen.uniform(0.0, 2.0)
        a = gen.uniform(0.2, 5.0)
        prob = ContactProblem(a * np.eye(3), g, np.array([mu]))
        sol = solve_ncp(prob, tol=1e-13, max_iters=50000)
        expect = one_contact_solution(g, mu, a)
        scale = max(1.0, np.abs(expect).max())
        np.testing.assert_allclose(sol.lam, expect, atol=1e-9 * scale)


def test_residual_zero_only_at_solution():
    g = [1.0, 0.0, -1.0]
    prob = single(g, 0.5)
    lam_star = one_contact_solution(g, 0.5)
    assert ncp_residual(prob, lam_star) < 1e-12
    assert ncp_residual(prob, lam_star + np.array([0.05, 0, 0])) > 1e-4
    assert ncp_residual(prob, np.zeros(3)) > 1e-2


def test_residual_flags_misaligned_friction():
    # rotate the friction impulse around the cone: complementarity stays
    # second order in the angle, the alignment term is first order
    mu = 0.5
    g = np.array([1.0, 0.0, -1.0])
    prob = single(g, mu)
    lam = one_contact_solution(g, mu)
    ang = 1e-5
    c, s = np.cos(ang), np.sin(ang)
    rot = lam.copy()
    rot[0], rot[1] = c * lam[0] - s * lam[1], s * lam[0] + c * lam[1]
    assert ncp_residual(prob, rot) > 0.1 * ang


def test_residual_reads_per_problem_constants_cached_on_first_call():
    """The mu floats and the max(1, |g|_inf) divisor are computed once per
    problem; a second call on the same problem returns the same floats."""
    prob = random_psd_problem(np.random.default_rng(5), 4, scale=3.0)
    lam = np.random.default_rng(6).normal(size=12)
    first = ncp_residual(prob, lam)
    assert {"mus", "residual_scale"} <= vars(prob).keys()
    assert ncp_residual(prob, lam) == first
    assert ncp_residual(prob, lam, prob.G @ lam + prob.g) == first
    assert prob.residual_scale == max(1.0, float(np.abs(prob.g).max()))
    assert prob.mus == [float(m) for m in prob.mu]


def test_solver_monotone_on_one_contact_family():
    gen = np.random.default_rng(43)
    g = np.array([0.8, -0.3, -1.2])
    A = gen.normal(size=(3, 3))
    G = A @ A.T + 0.5 * np.eye(3)
    prob = ContactProblem(G, g, np.array([0.7]))
    prev = np.inf
    for k in range(1, 12):
        sol = solve_ncp(prob, tol=0.0, max_iters=k)
        assert sol.residual <= prev + 1e-14
        prev = sol.residual


def test_warm_start_at_solution_returns_immediately():
    prob = single([1.0, 0.0, -1.0], 0.5)
    sol = solve_ncp(prob, tol=1e-12)
    again = solve_ncp(prob, tol=1e-12, warm_start=sol.lam)
    assert again.iterations == 0
    np.testing.assert_allclose(again.lam, sol.lam, atol=0)


def test_warm_start_does_not_move_fixed_point():
    gen = np.random.default_rng(44)
    prob = random_psd_problem(gen, 4)
    cold = solve_ncp(prob, tol=1e-12, max_iters=100000)
    warm = solve_ncp(prob, tol=1e-12, max_iters=100000,
                     warm_start=cold.lam + gen.normal(size=12) * 0.1)
    np.testing.assert_allclose(warm.lam, cold.lam, atol=1e-8)


def test_small_impulse_solve_meets_tolerance_in_velocity():
    """A sliding contact carrying lam ~ 1e-5: a converged warm-started solve
    holds sigma_N to the tolerance, not to the tolerance over lam_N."""
    gen = np.random.default_rng(47)
    A = gen.normal(size=(3, 3))
    G = (A @ A.T + 0.3 * np.eye(3)) * 1e3
    prob = ContactProblem(G, np.array([-0.1, 0.0, -0.01]), np.array([0.8]))
    ref = solve_ncp(prob, tol=1e-14, max_iters=100000)
    assert ref.modes == [Mode.SLIDING] and 1e-6 < np.linalg.norm(ref.lam) < 1e-4
    worst = 0.0
    for _ in range(200):
        warm = ref.lam * (1.0 + 1e-3 * gen.normal(size=3))
        sol = solve_ncp(prob, tol=1e-14, max_iters=100000, warm_start=warm)
        assert sol.converged and sol.modes == [Mode.SLIDING]
        worst = max(worst, abs(sol.sigma[2]))
    assert worst <= 1e-13


def check_contact_principles(prob, sol, tol=1e-9):
    """Signorini, Coulomb cone, and maximum dissipation per contact."""
    scale = max(1.0, float(np.abs(prob.g).max()))
    for c in range(prob.n):
        lc = sol.lam[3 * c : 3 * c + 3]
        sc = sol.sigma[3 * c : 3 * c + 3]
        mu = float(prob.mu[c])
        # Signorini on the normal pair
        assert lc[2] >= -tol * scale
        assert sc[2] >= -tol * scale
        assert abs(lc[2] * sc[2]) <= tol * scale**2
        # Coulomb cone
        assert np.hypot(lc[0], lc[1]) <= mu * lc[2] + tol * scale
        st = np.hypot(sc[0], sc[1])
        if st > 1e-8:
            # MDP: friction antiparallel to slip, on the cone boundary
            assert lc[:2] @ sc[:2] <= tol * scale**2
            cross = lc[0] * sc[1] - lc[1] * sc[0]
            assert abs(cross) <= tol * scale**2
            assert abs(np.hypot(lc[0], lc[1]) - mu * lc[2]) <= tol * scale
        # dissipation is nonpositive up to the normal complementarity slack
        assert lc @ sc <= mu * lc[2] * st + tol * scale**2


def test_random_psd_problems_satisfy_principles():
    gen = np.random.default_rng(45)
    for i in range(60):
        n = int(gen.integers(1, 7))
        prob = random_psd_problem(gen, n, scale=gen.uniform(0.5, 2.0))
        sol = solve_ncp(prob, tol=1e-10, max_iters=200000)
        assert sol.converged, f"problem {i} did not converge"
        assert ncp_residual(prob, sol.lam) <= 1e-9
        check_contact_principles(prob, sol)


def test_classification_thresholds():
    prob = single([0.0, 0.0, 1.0], 0.5)
    sol = solve_ncp(prob)
    assert sol.modes == [Mode.BREAKING]


def test_ambiguity_flag_on_inconsistent_state():
    from diffcontact.contact import classify_modes

    # tangential slip with an impulse strictly inside the cone: not a
    # consistent mode, must be flagged
    prob = single([1.0, 0.0, -1.0], 1.0)
    lam = np.array([-0.1, 0.0, 1.0])
    modes, ambiguous = classify_modes(prob, lam)
    assert ambiguous[0]
    assert modes == [Mode.STICKING]


def test_empty_problem():
    prob = ContactProblem(np.zeros((0, 0)), np.zeros(0), np.zeros(0))
    sol = solve_ncp(prob)
    assert sol.converged and sol.lam.size == 0
    assert ncp_residual(prob, sol.lam) == 0.0


def reference_residual(prob, lam, sigma):
    """ncp_residual written out on numpy 3-vectors with the public
    projections, the impulse-proportional terms divided by min(1, |lam_c|)."""
    worst = 0.0
    for c in range(prob.n):
        mu = float(prob.mu[c])
        lc = lam[3 * c : 3 * c + 3]
        sc = sigma[3 * c : 3 * c + 3]
        s_t = float(np.hypot(sc[0], sc[1]))
        y = sc + np.array([0.0, 0.0, mu * s_t])
        lam_norm = float(np.linalg.norm(lc))
        lam_scale = min(1.0, lam_norm) if lam_norm > 0.0 else 1.0
        worst = max(
            worst,
            np.linalg.norm(lc - cone_project(lc, mu)),
            np.linalg.norm(y - dual_cone_project(y, mu)),
            abs(float(lc @ y)) / lam_scale,
            float(np.linalg.norm(lc[:2] * s_t + mu * lc[2] * sc[:2])) / lam_scale,
        )
    return worst / max(1.0, float(np.abs(prob.g).max()))


# (t1, t2, normal) with the normal placed relative to the cone of the
# contact's mu: inside it, in its polar cone, or anywhere in between.
# Radii and offsets stay well above 1e-154, where the reference's squared
# norms underflow to zero.
_where = st.sampled_from(["inside", "polar", "between"])
_unit = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
_radius = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))


def _triple(mu, where, r, angle, t):
    a, b = r * np.cos(2 * np.pi * angle), r * np.sin(2 * np.pi * angle)
    if where == "inside":
        if mu == 0.0:
            return [0.0, 0.0, r * (1.0 + t)]
        return [a, b, r * (1.0 + t) / mu]
    if where == "polar":
        return [a, b, -r * (mu + t)]
    return [a, b, r * (2.0 * t - 1.0) * (1.0 + mu)]


_contact = st.tuples(
    st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    _where, _radius, _unit, _unit,
    _where, _radius, _unit, _unit,
)


@given(st.lists(_contact, min_size=1, max_size=4), st.floats(0.0, 4.0))
@settings(max_examples=300, deadline=None)
def test_residual_matches_numpy_reference(contacts, g_scale):
    mu = np.array([c[0] for c in contacts])
    lam = np.array([x for c in contacts for x in _triple(c[0], *c[1:5])])
    sigma = np.array([x for c in contacts for x in _triple(c[0], *c[5:9])])
    n = len(contacts)
    g = g_scale * np.cos(np.arange(3 * n))
    prob = ContactProblem(np.eye(3 * n), g, mu)
    expect = reference_residual(prob, lam, sigma)
    assert ncp_residual(prob, lam, sigma) == pytest.approx(expect, rel=1e-12, abs=0.0)
    assert ncp_residual(prob, lam.tolist(), sigma.tolist()) == ncp_residual(prob, lam, sigma)
    # sigma defaults to G lam + g
    assert ncp_residual(prob, lam) == ncp_residual(prob, lam, lam + g)


def numpy_pgs(prob, sweeps, warm_start):
    """The PGS iteration of solve_ncp written on numpy blocks: De Saxce
    step, cone projection, incremental sigma update and the refresh of
    sigma every 128 sweeps."""
    G, g, n = prob.G, prob.g, prob.n
    lam = np.concatenate([cone_project(warm_start[3 * c : 3 * c + 3], prob.mu[c])
                          for c in range(n)])
    scales = [np.linalg.norm(G[3 * c : 3 * c + 3, 3 * c : 3 * c + 3], 2) for c in range(n)]
    scales = [s if s > 1e-14 else 1.0 for s in scales]
    sigma = G @ lam + g
    for k in range(1, sweeps + 1):
        for c in range(n):
            i = 3 * c
            y = sigma[i : i + 3] + de_saxce_correction(sigma[i : i + 3], prob.mu[c])
            new = cone_project(lam[i : i + 3] - y / scales[c], prob.mu[c])
            sigma = sigma + G[:, i : i + 3] @ (new - lam[i : i + 3])
            lam[i : i + 3] = new
        if k % 128 == 0:
            sigma = G @ lam + g
    return lam


def test_sweep_setup_matches_per_block_loop():
    """The stacked set-up gives bit for bit the per-contact spectral norms
    and column blocks, including the 1.0 fallback for a vanished block."""
    gen = np.random.default_rng(45)
    for n in range(1, 7):
        G = random_psd_problem(gen, n).G
        G[3 * (n - 1) :, 3 * (n - 1) :] = 0.0
        scales, cols = contact._sweep_setup(G, n)
        for c in range(n):
            s = float(np.linalg.norm(G[3 * c : 3 * c + 3, 3 * c : 3 * c + 3], 2))
            assert scales[c] == (s if s > 1e-14 else 1.0)
            assert cols[c] == G[:, 3 * c : 3 * c + 3].T.tolist()
        assert scales[-1] == 1.0


@pytest.mark.parametrize("sweeps", [1, 7, 130])
def test_solver_iterates_match_numpy_sweep(sweeps):
    gen = np.random.default_rng(46)
    prob = random_psd_problem(gen, 4)
    prob = ContactProblem(prob.G, prob.g, np.array([0.0, *prob.mu[1:]]))
    warm = gen.normal(size=12)
    sol = solve_ncp(prob, tol=0.0, max_iters=sweeps, warm_start=warm)
    assert sol.iterations == sweeps and not sol.converged
    lam = numpy_pgs(prob, sweeps, warm)
    np.testing.assert_allclose(sol.lam, lam, rtol=0, atol=1e-12 * np.abs(lam).max())
    np.testing.assert_allclose(sol.sigma, prob.G @ lam + prob.g, rtol=0,
                               atol=1e-12 * np.abs(sol.sigma).max())
    assert sol.residual == pytest.approx(reference_residual(prob, lam, sol.sigma), rel=1e-10)


# -- the Newton polish on the identified modes -------------------------------


def _recorded_rollout(monkeypatch, model, state, params, horizon, taus=None):
    """Roll out with every NCP solve's problem, keyword arguments and
    solution recorded."""
    calls = []

    def recording(problem, **kw):
        sol = contact.solve_ncp(problem, **kw)
        calls.append((problem, kw, sol))
        return sol

    if taus is None:
        taus = 0.05 * np.random.default_rng(3).normal(size=(horizon, model.nv))
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "solve_ncp", recording)
        simulator.rollout(model, state, taus, horizon, params)
    return calls


def _chain48():
    model = chain_model(48, foot_links=(11, 23, 35, 47))
    state = simulator.SimState(model.neutral_configuration(), np.zeros(model.nv))
    return model, state, simulator.SimParams(ncp_tol=1e-14)


@pytest.mark.parametrize("scene", ["chain12", "chain48"])
def test_polished_solves_match_pgs_only_solves(monkeypatch, scene):
    """Every polished solve on seeded chain rollouts against a solve of the
    same problem and warm start with the polish declining: same modes, and
    lambda within 1e-12 of max(1, |lambda|)."""
    model, state, params = _chain48() if scene == "chain48" else load_scene(scene)
    calls = []
    for seed in (3, 4):
        taus = 0.05 * np.random.default_rng(seed).normal(size=(25, model.nv))
        calls += _recorded_rollout(monkeypatch, model, state, params, 25, taus)
    polished = [(p, kw, sol) for p, kw, sol in calls if sol.polished]
    assert len(polished) >= 40
    monkeypatch.setattr(contact, "_polish", lambda *args: None)
    for problem, kw, sol in polished:
        ref = solve_ncp(problem, **kw)
        assert ref.converged and not ref.polished
        assert sol.modes == ref.modes
        assert sol.iterations < ref.iterations
        scale = max(1.0, np.abs(ref.lam).max())
        assert np.abs(sol.lam - ref.lam).max() <= 1e-12 * scale


@pytest.mark.parametrize("scene, horizon", [
    ("cube_slide", 25), ("cube_on_plane", 25),
    ("fourleg", 4),  # each step after the first stalls for 10000 sweeps
])
def test_redundant_patches_are_left_to_pgs(monkeypatch, scene, horizon):
    """The box's four corners and the four-leg patch constrain more rows
    than G has rank, so lambda is not unique: those solves are never
    polished."""
    model, state, params = load_scene(scene)
    calls = _recorded_rollout(monkeypatch, model, state, params, horizon)
    assert calls
    assert not any(sol.polished for _, _, sol in calls)


def test_chain_rollout_is_mostly_polished(monkeypatch):
    model, state, params = load_scene("chain12")
    calls = _recorded_rollout(monkeypatch, model, state, params, 25)
    assert len(calls) == 25
    assert sum(sol.polished for _, _, sol in calls) >= 20


def test_polished_random_problems_satisfy_principles():
    gen = np.random.default_rng(48)
    polished = 0
    for _ in range(40):
        prob = random_psd_problem(gen, int(gen.integers(1, 5)))
        sol = solve_ncp(prob, tol=1e-12, max_iters=200000)
        assert sol.converged
        if sol.polished:
            polished += 1
            assert ncp_residual(prob, sol.lam) <= 1e-12
            check_contact_principles(prob, sol)
    assert polished >= 10


def test_polish_is_rejected_when_classification_disagrees(monkeypatch):
    """With the breaking threshold above every impulse, classify_modes calls
    each contact breaking, while the projection branches say active: the
    polish meets the tolerance but changes the modes, so PGS must finish
    alone."""
    monkeypatch.setattr(contact, "_EPS_LAMBDA", math.inf)
    gen = np.random.default_rng(48)
    for _ in range(40):
        prob = random_psd_problem(gen, int(gen.integers(1, 5)))
        sol = solve_ncp(prob, tol=1e-12, max_iters=200000)
        assert sol.converged and not sol.polished
