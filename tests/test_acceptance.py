"""End-to-end acceptance run: one test per headline property, each printing a
PASS line with the measured quantities and enforcing a wall-clock budget.

The nine checks cover: (1) analytic step Jacobians vs tangent-space FD across
all contact-mode families, (2) the mode-local derivative invariants, (3) NCP
solution quality on random PSD problems, (4) adjointness of the two collision
frame corrections, (5) stabilization-gain neutrality and penetration
boundedness, (6) inverse dynamics through contact, (7) initial-velocity
estimation where FD Jacobians stall against a contact-activation
discontinuity, (8) the wall-time and call-count advantage of the implicit
Jacobian over FD, and (9) the FD norm blow-up at an activation boundary.
"""
import time

import numpy as np
import pytest

from conftest import (
    chain_model,
    cube_model,
    cube_state,
    sphere_model,
    tight_params,
    worst_error,
)
from diffcontact.cli import load_scene
from diffcontact.contact import ContactProblem, Mode, ncp_residual, solve_ncp
from diffcontact.derivatives import (
    _contact_packs,
    collision_correction_jtl,
    collision_correction_jv,
    sliding_basis,
    step_jacobian,
)
from diffcontact.fd import fd_step_jacobian
from diffcontact.inverse import (
    GnSettings,
    estimate_initial_conditions,
    inverse_dynamics_contact,
)
from diffcontact.model import compute_kinematics, difference, integrate
from diffcontact.simulator import (
    SimParams,
    SimState,
    detect_contacts,
    rollout,
    step,
)
from oracles import rhs_contact_velocity


def _elapsed_ok(t0, budget, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"
    return elapsed


# ---------------------------------------------------------------------------
# random boundary-safe state generators shared by the gradient criteria
# ---------------------------------------------------------------------------

def _away_from_activation(model, q, params, buffer=1e-5):
    """No gap within `buffer` of the detection margin: FD q-perturbations
    cannot flip the active contact set."""
    kin = compute_kinematics(model, q)
    lo = detect_contacts(model, kin, params.contact_margin - buffer)
    hi = detect_contacts(model, kin, params.contact_margin + buffer)
    return len(lo) == len(hi)


def _cube_margins_ok(prob, sol, want):
    """All cube contacts in mode `want`, safely inside the mode region.

    Floors sized so that an eps = 1e-6 tangent perturbation (whose strongest
    channel is the configuration's 1/dt-scaled gap term) cannot flip any
    contact's classification.
    """
    if bool(np.asarray(sol.ambiguous).any()):
        return False
    scale = max(1.0, float(np.abs(prob.g).max()))
    for c, mode in enumerate(sol.modes):
        if mode is not want:
            return False
        lam_c = sol.lam[3 * c : 3 * c + 3]
        sig_c = sol.sigma[3 * c : 3 * c + 3]
        mu = float(prob.mu[c])
        slip = float(np.hypot(sig_c[0], sig_c[1]))
        if mode is Mode.BREAKING:
            if sig_c[2] < 1e-3:
                return False
        elif mode is Mode.STICKING:
            if lam_c[2] < 1e-3 or slip > 1e-9 * scale:
                return False
            if mu * lam_c[2] - np.hypot(lam_c[0], lam_c[1]) < 1e-3 * mu * lam_c[2]:
                return False
        else:  # SLIDING
            if lam_c[2] < 1e-3 or slip < 1e-4:
                return False
    return True


def _chain_margins_ok(prob, sol):
    """Mixed chain state acceptance: >= 2 distinct modes, every contact far
    from its mode boundary.  The chain's long lever arms turn an eps = 1e-6
    joint perturbation into up to ~4e-3 of contact-velocity change, so the
    floors sit more than an order of magnitude above that."""
    if len(set(sol.modes)) < 2 or bool(np.asarray(sol.ambiguous).any()):
        return False
    lam_max = max(float(sol.lam[2::3].max()), 1e-12)
    for c, mode in enumerate(sol.modes):
        lam_c = sol.lam[3 * c : 3 * c + 3]
        sig_c = sol.sigma[3 * c : 3 * c + 3]
        mu = float(prob.mu[c])
        slip = float(np.hypot(sig_c[0], sig_c[1]))
        if mode is Mode.BREAKING:
            if sig_c[2] < 0.05:
                return False
        elif mode is Mode.STICKING:
            if lam_c[2] < max(0.03, 0.05 * lam_max):
                return False
            if mu * lam_c[2] - np.hypot(lam_c[0], lam_c[1]) < 0.1 * mu * lam_c[2]:
                return False
        else:  # SLIDING
            if lam_c[2] < max(0.03, 0.05 * lam_max) or slip < 0.03:
                return False
    return True


def _cube_family(gen, kind):
    """Random cube-on-plane states in one contact-mode family."""
    model = cube_model(mu=0.6)
    if kind == "breaking":
        z = 0.1 + gen.uniform(2e-5, 7e-5)
        v = np.concatenate([gen.uniform(-0.05, 0.05, 3),
                            gen.uniform(-0.2, 0.2, 2),
                            [gen.uniform(0.05, 0.3)]])
        tau = gen.normal(0.0, 0.03, 6)
    elif kind == "sticking":
        z = 0.1 - gen.uniform(0.0, 2e-5)
        v = np.zeros(6)
        tau = gen.normal(0.0, 0.03, 6)
    else:  # sliding: pure planar slide keeps all four corners evenly loaded
        z = 0.1 - gen.uniform(0.0, 2e-5)
        ang = gen.uniform(0.0, 2 * np.pi)
        speed = gen.uniform(0.3, 1.0)
        v = np.array([0.0, 0.0, 0.0,
                      speed * np.cos(ang), speed * np.sin(ang), 0.0])
        tau = np.zeros(6)
    return model, cube_state(model, z=z, v=v), tau


_STATE_CACHE = {}


def _family_states(kind, count=50):
    """Rejection-sample `count` boundary-safe states of a contact-mode
    family; returns list of (model, state, tau, params, result).  Cached so
    the gradient and invariant criteria share one corpus."""
    if kind in _STATE_CACHE:
        return _STATE_CACHE[kind]
    gen = np.random.default_rng(_FAMILY_SEEDS[kind])
    out = []
    if kind == "mixed":
        # 12-DoF planar chain with four sphere feet near touch; moderate
        # friction plus joint-velocity noise mixes the modes
        model = chain_model(12, mu=0.35, foot_links=[2, 5, 8, 11])
        params = tight_params(ncp_tol=1e-14, ncp_max_iters=100000)
        for _ in range(6000):
            if len(out) >= count:
                break
            state = SimState(gen.normal(0.0, 2e-4, model.nq),
                             gen.normal(0.0, 0.8, model.nv))
            tau = gen.normal(0.0, 0.3, model.nv)
            res = step(model, state, tau, params)
            if not (2 <= len(res.contacts) <= 3) or not res.solution.converged:
                continue
            if not _chain_margins_ok(res.problem, res.solution):
                continue
            if not _away_from_activation(model, state.q, params):
                continue
            out.append((model, state, tau, params, res))
    else:
        params = tight_params()
        want = {"breaking": Mode.BREAKING, "sticking": Mode.STICKING,
                "sliding": Mode.SLIDING}[kind]
        for _ in range(600):
            if len(out) >= count:
                break
            model, state, tau = _cube_family(gen, kind)
            res = step(model, state, tau, params)
            if not res.contacts or not res.solution.converged:
                continue
            if not _cube_margins_ok(res.problem, res.solution, want):
                continue
            if not _away_from_activation(model, state.q, params):
                continue
            out.append((model, state, tau, params, res))
    _STATE_CACHE[kind] = out
    return out


FAMILIES = ("breaking", "sticking", "sliding", "mixed")
_FAMILY_SEEDS = {"breaking": 9101, "sticking": 9102, "sliding": 9103, "mixed": 9104}


def test_criterion_1_gradients_match_fd_across_mode_families():
    t0 = time.perf_counter()
    worst = {}
    for kind in FAMILIES:
        states = _family_states(kind)
        assert len(states) >= 50, f"only {len(states)} {kind} states found"
        fam_worst = 0.0
        for model, state, tau, params, res in states:
            jac = step_jacobian(model, state, tau, params, res, theta="all")
            fd = fd_step_jacobian(model, state, tau, params, theta="all",
                                  eps=1e-6, base=res)
            err = worst_error(jac, fd, ("q", "v", "tau"),
                              include_lam=not jac.rank_deficient)
            fam_worst = max(fam_worst, err)
        worst[kind] = fam_worst
        assert fam_worst < 1e-4, f"{kind}: worst rel err {fam_worst:.3e}"
    elapsed = _elapsed_ok(t0, 60.0, "criterion 1")
    detail = " ".join(f"{k}={worst[k]:.2e}" for k in FAMILIES)
    print(f"\nPASS criterion 1: 50 states/family, worst rel err < 1e-4 ({detail}), "
          f"{elapsed:.1f}s")


def test_criterion_2_mode_local_derivative_invariants():
    corpus = {kind: _family_states(kind)[:12] for kind in FAMILIES}
    t0 = time.perf_counter()
    n_checked = {"breaking": 0, "sticking": 0, "sliding": 0}
    for kind in FAMILIES:
        states = corpus[kind]
        assert len(states) >= 10
        for model, state, tau, params, res in states:
            jac = step_jacobian(model, state, tau, params, res, theta="all")
            prob, sol = res.problem, res.solution
            for theta in ("q", "v", "tau"):
                dlam = jac.dlam[theta]
                rhs = rhs_contact_velocity(model, state, tau, params, res,
                                           theta=theta)
                dsig = prob.G @ dlam + rhs
                denom = max(float(np.linalg.norm(rhs)), 1e-12)
                for c, mode in enumerate(sol.modes):
                    rows = slice(3 * c, 3 * c + 3)
                    if mode is Mode.BREAKING:
                        assert np.all(dlam[rows] == 0.0)
                        n_checked["breaking"] += 1
                    elif mode is Mode.STICKING:
                        resid = float(np.linalg.norm(dsig[rows]))
                        assert resid <= 1e-9 * denom, f"sticking resid {resid:.2e}"
                        n_checked["sticking"] += 1
                    else:
                        lam_c = sol.lam[rows]
                        basis = sliding_basis(lam_c, sol.sigma[rows],
                                              float(prob.mu[c]))
                        block = dlam[rows]
                        coeff, *_ = np.linalg.lstsq(basis.R, block, rcond=None)
                        off = np.linalg.norm(basis.R @ coeff - block)
                        scale = max(1.0, float(np.linalg.norm(block)))
                        assert off <= 1e-9 * scale, f"span resid {off:.2e}"
                        # first-order Coulomb-boundary tangency
                        t_hat = lam_c[:2] / np.hypot(lam_c[0], lam_c[1])
                        tang = t_hat @ block[:2] - float(prob.mu[c]) * block[2]
                        assert np.abs(tang).max() <= 1e-9 * scale
                        n_checked["sliding"] += 1
    elapsed = _elapsed_ok(t0, 10.0, "criterion 2")
    print(f"\nPASS criterion 2: mode-local invariants on "
          f"{n_checked['breaking']} breaking / {n_checked['sticking']} sticking / "
          f"{n_checked['sliding']} sliding contact-blocks, {elapsed:.1f}s")


# -- criterion 3: independent restatement of the three contact principles ----

def _random_psd_problem(gen, n):
    A = gen.normal(size=(3 * n, 3 * n))
    G = A @ A.T + 1e-3 * np.eye(3 * n)
    G *= gen.uniform(0.5, 2.0) / np.abs(G).max()
    g = gen.normal(size=3 * n)
    mu = gen.uniform(0.0, 1.5, n)
    return ContactProblem(G, g, mu)


def _principles_ok(prob, sol, tol=1e-9):
    scale = max(1.0, float(np.abs(prob.g).max()))
    for c in range(prob.n):
        lc = sol.lam[3 * c : 3 * c + 3]
        sc = sol.sigma[3 * c : 3 * c + 3]
        mu = float(prob.mu[c])
        assert lc[2] >= -tol * scale                      # no adhesion
        assert sc[2] >= -tol * scale                      # no penetration rate
        assert abs(lc[2] * sc[2]) <= tol * scale**2       # complementarity
        assert np.hypot(lc[0], lc[1]) <= mu * lc[2] + tol * scale
        slip = np.hypot(sc[0], sc[1])
        if slip > 1e-8:
            assert lc[:2] @ sc[:2] <= tol * scale**2      # opposes slip
            cross = lc[0] * sc[1] - lc[1] * sc[0]
            assert abs(cross) <= tol * scale**2           # antiparallel
            assert abs(np.hypot(lc[0], lc[1]) - mu * lc[2]) <= tol * scale


def test_criterion_3_ncp_solution_quality_on_random_problems():
    t0 = time.perf_counter()
    gen = np.random.default_rng(20250825)
    worst = 0.0
    for i in range(200):
        prob = _random_psd_problem(gen, int(gen.integers(1, 9)))
        sol = solve_ncp(prob, tol=1e-10, max_iters=200000)
        assert sol.converged, f"problem {i} did not converge"
        resid = ncp_residual(prob, sol.lam)
        worst = max(worst, resid)
        assert resid <= 1e-9
        _principles_ok(prob, sol)
    elapsed = _elapsed_ok(t0, 30.0, "criterion 3")
    print(f"\nPASS criterion 3: 200 random PSD problems (n<=8), worst residual "
          f"{worst:.2e} <= 1e-9, principles hold, {elapsed:.1f}s")


def test_criterion_4_collision_correction_adjointness():
    t0 = time.perf_counter()
    model = cube_model(mu=0.6)
    # tilt about x so two corners carry contact: exercises non-trivial frames
    angle = 0.08
    quat = np.array([np.sin(angle / 2), 0.0, 0.0, np.cos(angle / 2)])
    q = np.concatenate([[0.0, 0.0, 0.2], quat])
    kin = compute_kinematics(model, q)
    low = min(c.signed_distance
              for c in detect_contacts(model, kin, margin=np.inf))
    q[2] -= low + 3e-5
    state = SimState(q, np.zeros(6))
    params = tight_params()
    res = step(model, state, None, params)
    packs = _contact_packs(model, res)
    n = len(res.contacts)
    assert n
    gen = np.random.default_rng(77)
    n_triples, worst = 0, 0.0
    while n_triples < 100:
        for i in range(n):
            lam_c = gen.normal(size=3)
            w = gen.normal(size=model.nv)
            dq = gen.normal(size=model.nv)
            lam = np.zeros(3 * n)
            lam[3 * i : 3 * i + 3] = lam_c
            lhs = float((collision_correction_jtl(packs, lam) @ dq) @ w)
            rhs = float(lam_c @ (collision_correction_jv(packs, w)[i] @ dq))
            gap = abs(lhs - rhs) / max(1.0, abs(lhs))
            worst = max(worst, gap)
            assert gap <= 1e-10
            n_triples += 1
    elapsed = _elapsed_ok(t0, 5.0, "criterion 4")
    print(f"\nPASS criterion 4: adjointness on {n_triples} random triples, "
          f"worst gap {worst:.2e} <= 1e-10, {elapsed:.1f}s")


def test_criterion_5_stabilization_neutrality_and_bounded_penetration():
    t0 = time.perf_counter()
    model = cube_model(mu=0.6)
    pen_state = cube_state(model, z=0.1 - 5e-4,
                           v=np.array([0.0, 0.0, 0.0, 0.2, -0.1, 0.0]))

    # (a) explicit zero gains vs gain-free defaults: bit-for-bit identical
    base = tight_params()
    zeroed = tight_params(baumgarte_kp=0.0, baumgarte_kd=0.0)
    res_a = step(model, pen_state, None, base)
    res_b = step(model, pen_state, None, zeroed)
    jac_a = step_jacobian(model, pen_state, None, base, res_a, theta="all")
    jac_b = step_jacobian(model, pen_state, None, zeroed, res_b, theta="all")
    for theta in ("q", "v", "tau"):
        assert np.array_equal(jac_a.dv[theta], jac_b.dv[theta])
        assert np.array_equal(jac_a.dq[theta], jac_b.dq[theta])
        assert np.array_equal(jac_a.dlam[theta], jac_b.dlam[theta])

    # (b) K_p = 0.1 (and a damped variant): analytic vs FD still < 1e-4
    worst_fd = 0.0
    for gains in ({"baumgarte_kp": 0.1},
                  {"baumgarte_kp": 0.1, "baumgarte_kd": 0.05}):
        params = tight_params(**gains)
        res = step(model, pen_state, None, params)
        jac = step_jacobian(model, pen_state, None, params, res, theta="all")
        fd = fd_step_jacobian(model, pen_state, None, params, theta="all",
                              eps=1e-6, base=res)
        err = worst_error(jac, fd, ("q", "v", "tau"),
                          include_lam=not jac.rank_deficient)
        worst_fd = max(worst_fd, err)
        assert err < 1e-4

    # (c) resting-cube penetration bounded over 1000 steps at K_p = 0.1
    params = SimParams(baumgarte_kp=0.1)
    results = rollout(model, cube_state(model, z=0.1 - 2e-5), horizon=1000,
                      params=params)
    per_step = [max((abs(c.signed_distance) for c in r.contacts), default=0.0)
                for r in results]
    early = max(per_step[:10])
    overall = max(per_step)
    assert early > 0.0
    assert overall <= 5.0 * early, f"|phi| grew {overall:.2e} vs early {early:.2e}"
    elapsed = _elapsed_ok(t0, 60.0, "criterion 5")
    print(f"\nPASS criterion 5: zero-gain Jacobians bit-identical, gain fdcheck "
          f"worst {worst_fd:.2e} < 1e-4, max|phi| {overall:.2e} <= 5x early "
          f"{early:.2e}, {elapsed:.1f}s")


def test_criterion_6_inverse_dynamics_through_contact():
    t0 = time.perf_counter()
    model, state, params = load_scene("fourleg")
    v_target = np.zeros(model.nv)
    settings = GnSettings(max_iters=50, residual_tol=1e-6)
    tau_act, trace = inverse_dynamics_contact(model, state, v_target, params,
                                              settings=settings)
    assert trace.converged
    assert trace.iterations <= 50
    S = model.selection_matrix()
    replay = step(model, state, S.T @ tau_act, params)
    err = float(np.linalg.norm(replay.state.v - v_target))
    assert err <= 1e-5
    elapsed = _elapsed_ok(t0, 30.0, "criterion 6")
    print(f"\nPASS criterion 6: standing four-leg inverse dynamics |v+ - v*| = "
          f"{err:.2e} <= 1e-5 in {trace.iterations} GN iterations, {elapsed:.1f}s")


# -- criterion 7: initial-velocity estimation against an FD-hostile target ---

def _first_contact_step(model, q0, v, params, horizon):
    st = SimState(q0.copy(), np.asarray(v, dtype=float))
    warm = None
    for t in range(horizon):
        res = step(model, st, np.zeros(model.nv), params, warm_start=warm)
        if res.contacts:
            return t
        st, warm = res.state, res.warm_start()
    return horizon


def test_criterion_7_v0_estimation_beats_fd_jacobians():
    """Self-consistent sliding-cube recovery where the true v0 sits just
    inside a touchdown-step boundary: central differences over whole rollouts
    straddle the activation discontinuity and Gauss-Newton stalls, while the
    implicit Jacobian converges to solver precision."""
    t0 = time.perf_counter()
    model = cube_model(mu=0.4)
    params = tight_params(ncp_tol=1e-12)
    horizon = 80
    q0 = cube_state(model, z=0.13).q

    # bisect the initial vertical rate at which the touchdown step flips
    lo, hi = -0.30, -0.20
    f_lo = _first_contact_step(model, q0, [0, 0, 0, 0.5, 0, lo], params, horizon)
    f_hi = _first_contact_step(model, q0, [0, 0, 0, 0.5, 0, hi], params, horizon)
    assert f_lo < f_hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if _first_contact_step(model, q0, [0, 0, 0, 0.5, 0, mid], params,
                               horizon) == f_lo:
            lo = mid
        else:
            hi = mid
    v_star = hi + 1e-8  # just inside the later-touchdown plateau
    v_true = np.array([0.0, 0.0, 0.0, 0.5, 0.0, v_star])

    truth = rollout(model, SimState(q0.copy(), v_true.copy()), horizon=horizon,
                    params=params)
    touchdown = next(t for t, r in enumerate(truth) if r.contacts)
    assert truth[touchdown].contacts  # impact happens inside the horizon
    target_q = truth[-1].state.q

    settings = GnSettings(max_iters=30, residual_tol=1e-100, step_tol=1e-100,
                          damping=1e-10)
    guess = v_true + np.array([0.002, -0.001, 0.003, -0.03, 0.002, 0.008])
    final_obj, state_err = {}, {}
    for jac in ("analytic", "fd"):
        theta, trace = estimate_initial_conditions(
            model, SimState(q0.copy(), guess.copy()), target_q,
            horizon=horizon, params=params, jacobian=jac, settings=settings)
        final_obj[jac] = trace.objective[-1]
        reached = rollout(model, SimState(q0.copy(), theta.copy()),
                          horizon=horizon, params=params)[-1].state.q
        state_err[jac] = float(np.linalg.norm(difference(model, target_q,
                                                         reached)))
    assert state_err["analytic"] <= 1e-6
    assert final_obj["analytic"] < final_obj["fd"]          # strict separation
    assert final_obj["fd"] > 10.0 * final_obj["analytic"]   # and not by luck
    elapsed = _elapsed_ok(t0, 120.0, "criterion 7")
    print(f"\nPASS criterion 7: analytic GN final objective "
          f"{final_obj['analytic']:.2e} (state err {state_err['analytic']:.2e}"
          f" <= 1e-6) vs FD {final_obj['fd']:.2e} "
          f"({final_obj['fd'] / final_obj['analytic']:.1e}x higher), "
          f"{elapsed:.1f}s")


def test_criterion_8_timing_and_call_count_advantage(count_steps):
    t0 = time.perf_counter()
    model, state, params = load_scene("chain12")
    v = state.v.copy()
    v[::3] = 0.4  # put the feet into motion so the contact step does real work
    state = SimState(state.q.copy(), v)
    tau = np.zeros(model.nv)
    res = step(model, state, tau, params)
    assert res.contacts

    count_steps.clear()
    jac = step_jacobian(model, state, tau, params, res, theta="all")
    analytic_calls = len(count_steps)
    count_steps.clear()
    fd = fd_step_jacobian(model, state, tau, params, theta="all", eps=1e-6,
                          base=res)
    fd_calls = len(count_steps)
    assert fd_calls == 2 * (2 * model.nv + model.nv) == 72
    assert analytic_calls <= 8

    reps = 10
    t_an = time.perf_counter()
    for _ in range(reps):
        step_jacobian(model, state, tau, params, res, theta="all")
    t_an = time.perf_counter() - t_an
    t_fd = time.perf_counter()
    for _ in range(reps):
        fd_step_jacobian(model, state, tau, params, theta="all", eps=1e-6,
                         base=res)
    t_fd = time.perf_counter() - t_fd
    ratio = t_fd / t_an
    assert ratio >= 10.0, f"wall-time ratio only {ratio:.1f}"
    # sanity: both produced comparable derivative blocks on this state
    assert worst_error(jac, fd, ("q", "v", "tau"),
                       include_lam=not jac.rank_deficient) < 1e-4
    elapsed = _elapsed_ok(t0, 60.0, "criterion 8")
    print(f"\nPASS criterion 8: chain12 fd/analytic wall ratio {ratio:.1f}x "
          f">= 10, step calls fd={fd_calls} analytic={analytic_calls} (<= 8), "
          f"{elapsed:.1f}s")


def test_criterion_9_fd_norm_blows_up_at_activation_boundary():
    """State pinned at the detection margin with closing speed above
    margin/dt: the one-step map is discontinuous there, so central FD scales
    like 1/eps while the implicit Jacobian is a fixed one-sided derivative."""
    t0 = time.perf_counter()
    model = sphere_model(mu=0.5)
    params = tight_params()
    results = {}
    for label, vx, want in (("sliding", 0.8, Mode.SLIDING),
                            ("sticking", 0.0, Mode.STICKING)):
        q = model.neutral_configuration()
        q[2] = 0.1 + params.contact_margin - 1e-9
        state = SimState(q, np.array([0.0, 0.0, 0.0, vx, 0.0, -0.5]))
        res = step(model, state, None, params)
        assert res.solution.modes == [want]
        jac = step_jacobian(model, state, None, params, res, theta="q")
        an_norm = float(np.abs(jac.dv["q"]).max())
        fd_norm = {}
        for eps in (1e-4, 1e-6):
            fd = fd_step_jacobian(model, state, None, params, theta="q",
                                  eps=eps, base=res)
            fd_norm[eps] = float(np.abs(fd.dv["q"]).max())
        growth = fd_norm[1e-6] / fd_norm[1e-4]
        assert growth >= 10.0, f"{label}: FD norm grew only {growth:.1f}x"
        # the analytic Jacobian takes no eps and stays at the modest one-sided
        # value, below even the coarsest FD estimate
        assert an_norm <= fd_norm[1e-4]
        results[label] = (an_norm, fd_norm[1e-4], fd_norm[1e-6], growth)
    elapsed = _elapsed_ok(t0, 10.0, "criterion 9")
    detail = "; ".join(
        f"{k}: analytic {a:.1e}, fd {f4:.1e}->{f6:.1e} ({g:.0f}x)"
        for k, (a, f4, f6, g) in results.items())
    print(f"\nPASS criterion 9: {detail}, {elapsed:.1f}s")
