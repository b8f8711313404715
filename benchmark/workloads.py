"""The three workloads: seeded inputs, the timed task, and its checks.

A workload is built once (its set-up: scene or model and the first step),
then runs rounds. Each round draws fresh inputs from
`np.random.default_rng([seed, round])`, runs one timed task through the
library's public calls, and checks what the task returned. The library
sees only the generated inputs.

The library functions are reached through their modules at call time
(`simulator.step`, `derivatives.step_jacobian`, ...), so the call timers
and the tracer from `tracing.py` see every call.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import checks
from diffcontact import derivatives, inverse, simulator
from diffcontact.cli import load_scene
from diffcontact.collision import Halfspace, Sphere
from diffcontact.model import BodyInertia, FrictionPair, Geometry, JointSpec, KinematicModel
from diffcontact.simulator import SimParams, SimState
from diffcontact.spatial import Placement


@dataclass
class Tally:
    """What a run did and found, summed over its rounds."""

    attempted: int = 0
    failed: int = 0
    steps: int = 0            # forward steps inside the timed tasks
    task_s: list = field(default_factory=list)
    gn_iterations: list = field(default_factory=list)
    residual_evals: list = field(default_factory=list)
    fd_compared: int = 0
    fd_skipped: int = 0
    fd_worst: float = 0.0
    contact_steps_checked: int = 0
    flight_steps_checked: int = 0
    errors: list = field(default_factory=list)
    self_tests: dict = field(default_factory=dict)

    def check(self, messages, label):
        self.errors.extend(f"{label}: {m}" for m in messages)

    def check_steps(self, results, label):
        """Cone, dual-cone, complementarity and penetration checks on every
        contact step."""
        for res in results:
            if res.solution is not None:
                self.contact_steps_checked += 1
                self.check(checks.check_step_result(res), label)

    def compare(self, analytic, fd, label):
        self.fd_compared += 1
        self.fd_worst = max(self.fd_worst, checks.directional_error(analytic, fd))
        self.check(checks.check_directional(analytic, fd), label)

    def self_test(self, name, rejected):
        """Record whether a checker rejected its corrupted input."""
        self.self_tests[name] = bool(rejected)
        if not rejected:
            self.errors.append(f"self-test {name}: checker accepted a corrupted input")


def sine_torques(rng, nv, horizon, dt, amplitude):
    """Per joint a sinusoid of the given amplitude with frequency U(1, 4) Hz
    and phase U(0, 2 pi), sampled at the step times. A seeded amplitude
    would make the PGS sweep count, and so the step time, vary several-fold
    from round to round."""
    f = rng.uniform(1.0, 4.0, nv)
    ph = rng.uniform(0.0, 2.0 * np.pi, nv)
    t = np.arange(horizon)[:, None] * dt
    return amplitude * np.sin(2.0 * np.pi * f * t + ph)


def chain_model(n_links, feet, mu=0.8):
    """Fixed-base revolute-y chain of 0.3 m links along x, sphere feet of
    radius 0.1 at the tips of the `feet` links resting on the ground plane
    (the layout of the bundled chain12 scene, at any length)."""
    def at(t):
        return Placement(np.eye(3), np.asarray(t, dtype=float))

    joints = [JointSpec("revolute", i - 1, at([0, 0, 0.09998] if i == 0 else [0.3, 0, 0]),
                        np.array([0.0, 1.0, 0.0])) for i in range(n_links)]
    inertias = [BodyInertia(0.5, np.array([0.15, 0.0, 0.0]), np.diag([0.001, 0.004, 0.004]))
                for _ in range(n_links)]
    geoms = [Geometry(b, Sphere(0.1), at([0.3, 0, 0])) for b in feet]
    geoms.append(Geometry(-1, Halfspace(np.array([0.0, 0.0, 1.0]), 0.0), Placement.identity()))
    pairs = [FrictionPair(k, len(feet), mu) for k in range(len(feet))]
    return KinematicModel(joints, inertias, geoms, pairs, name=f"chain{n_links}")


def _ncp_failed(results) -> int:
    return sum(1 for r in results if r.solution is not None and not r.solution.converged)


class ChainWorkload:
    """Shared by the two chain workloads. An operation is one step (with
    its Jacobian on mpc_chain48); it fails when its NCP solve does not
    converge. The output check compares directional central differences of
    one step per round with the analytic Jacobian."""

    SELF_TESTS = ("contact_cone", "jacobian_column")
    AMPLITUDE = 0.1           # N m, torque sinusoid amplitude

    def inputs(self, rng):
        taus = sine_torques(rng, self.model.nv, self.HORIZON, self.params.dt, self.AMPLITUDE)
        return taus, rng

    def account(self, tally, task_s, outputs, step_results):
        tally.attempted += self.HORIZON
        tally.failed += _ncp_failed(step_results)
        tally.steps += len(step_results)
        tally.task_s.append(task_s)

    def check(self, tally, inputs, outputs, self_test):
        taus, rng = inputs
        results, states, jacs = outputs
        k = self.FD_AT
        state, tau, base, jac = states[k], taus[k], results[k], jacs[k]
        d_q, d_v, d_t = (rng.normal(size=self.model.nv) for _ in range(3))
        # q reaches the contact velocities through phi / dt; weighting its
        # direction by dt keeps all three blocks at the same velocity scale,
        # so eps perturbations rarely cross a mode boundary.
        d_q *= self.params.dt
        eps = checks.FD_EPS
        warm = base.warm_start()
        plus, minus = (
            simulator.step(self.model, SimState(state.q + s * d_q, state.v + s * d_v),
                           tau + s * d_t, self.params, warm_start=warm)
            for s in (eps, -eps))
        sig = checks.contact_signature(base)
        if checks.contact_signature(plus) != sig or checks.contact_signature(minus) != sig:
            tally.fd_skipped += 1
            return
        # Revolute joints only: the configuration chart is plain addition.
        fd = np.concatenate([plus.state.v - minus.state.v,
                             plus.state.q - minus.state.q]) / (2 * eps)

        def directional(dv):
            return np.concatenate([dv["q"] @ d_q + dv["v"] @ d_v + dv["tau"] @ d_t,
                                   jac.dq["q"] @ d_q + jac.dq["v"] @ d_v + jac.dq["tau"] @ d_t])

        tally.compare(directional(jac.dv), fd, "step Jacobian")
        if self_test:
            bad = dict(jac.dv, v=checks.corrupt_column(jac.dv["v"], d_v))
            tally.self_test("jacobian_column", checks.check_directional(directional(bad), fd))


class RolloutChain12(ChainWorkload):
    """Forward rollout of the bundled chain12 scene; the timed task has no
    derivatives. step_jacobian runs at five sampled states per round,
    outside the rollout's timing, for jacobian_us and the output check."""

    name = "rollout_chain12"
    HORIZON = 25
    SAMPLED = (4, 9, 14, 19, 24)
    FD_AT = 14

    def __init__(self):
        self.model, self.state0, self.params = load_scene("chain12")
        simulator.step(self.model, self.state0, np.zeros(self.model.nv), self.params)

    def task(self, inputs):
        taus, _ = inputs
        t0 = time.perf_counter()
        results = simulator.rollout(self.model, self.state0, taus, self.HORIZON, self.params)
        task_s = time.perf_counter() - t0
        states = [self.state0] + [r.state for r in results]
        jacs = {t: derivatives.step_jacobian(self.model, states[t], taus[t], self.params,
                                             results[t], theta="all")
                for t in self.SAMPLED}
        return task_s, (results, states, jacs)


class MpcChain48(ChainWorkload):
    """The MPC / iLQR pattern: step, then step_jacobian(theta="all"), at
    every state of a seeded trajectory of a 48-link chain."""

    name = "mpc_chain48"
    HORIZON = 8
    FD_AT = 3

    def __init__(self):
        self.model = chain_model(48, (11, 23, 35, 47))
        self.params = SimParams(ncp_tol=1e-14)
        self.state0 = SimState(self.model.neutral_configuration(), np.zeros(self.model.nv))
        simulator.step(self.model, self.state0, np.zeros(self.model.nv), self.params)

    def task(self, inputs):
        taus, _ = inputs
        model, params = self.model, self.params
        states, results, jacs = [self.state0], [], []
        warm = None
        t0 = time.perf_counter()
        for k in range(self.HORIZON):
            res = simulator.step(model, states[-1], taus[k], params, warm_start=warm)
            jacs.append(derivatives.step_jacobian(model, states[-1], taus[k], params, res,
                                                  theta="all"))
            results.append(res)
            states.append(res.state)
            warm = res.warm_start()
        return time.perf_counter() - t0, (results, states, jacs)


class SysidCube:
    """Gauss-Newton recovery of a thrown box's initial velocity from its
    final configuration: flight, touchdown on the 4-corner patch, sliding.
    An operation is one GN solve; it fails when the solve does not reach
    the residual tolerance or any NCP solve inside it does not converge.

    The box starts level and at rest vertically, 0.2 mm above the plane,
    so it lands at 0.06 m/s, within one step of the contact margin: a
    faster landing tunnels past the margin and rebounds (see README)."""

    name = "sysid_cube"
    SELF_TESTS = ("contact_cone", "jacobian_column", "gn_target", "ballistic")
    HORIZON = 24
    DROP = 2e-4               # m, initial gap under the box
    GUESS_OFFSET = 0.05       # m/s, |guess - true v0|
    SETTINGS = inverse.GnSettings(max_iters=30)

    def __init__(self):
        self.model, state, self.params = load_scene("cube_slide")
        simulator.step(self.model, state, np.zeros(self.model.nv), self.params)
        self.inertia = self.model.inertias[0].inertia

    def inputs(self, rng):
        q0 = self.model.neutral_configuration()
        q0[2] = 0.1 + self.DROP
        heading, offset = rng.uniform(0.0, 2.0 * np.pi, 2)
        v_true = np.zeros(6)
        v_true[3:5] = rng.uniform(0.8, 1.2) * np.array([np.cos(heading), np.sin(heading)])
        # The guess is off in the horizontal velocity only. Spin would make
        # the box yaw on its 4-corner patch, where step_jacobian and central
        # differences disagree (README, "Known faults"); a vertical offset
        # would change the flight length and, with it, how many steps and
        # GN iterations a solve takes, which spreads the timings.
        guess = v_true.copy()
        guess[3:5] += self.GUESS_OFFSET * np.array([np.cos(offset), np.sin(offset)])
        target = simulator.rollout(self.model, SimState(q0, v_true), None, self.HORIZON,
                                   self.params)
        return q0, v_true, guess, target, rng

    def task(self, inputs):
        q0, _, guess, target, _ = inputs
        t0 = time.perf_counter()
        theta, trace = inverse.estimate_initial_conditions(
            self.model, SimState(q0, guess), target[-1].state.q, self.HORIZON, self.params,
            theta_kind="v0", settings=self.SETTINGS, jacobian="analytic")
        return time.perf_counter() - t0, (theta, trace)

    def account(self, tally, task_s, outputs, step_results):
        _, trace = outputs
        reached = bool(trace.converged and trace.objective
                       and np.sqrt(2.0 * trace.objective[-1]) <= self.SETTINGS.residual_tol)
        tally.attempted += 1
        tally.failed += int(not reached or _ncp_failed(step_results) > 0)
        tally.steps += len(step_results)
        tally.task_s.append(task_s)
        tally.gn_iterations.append(trace.iterations)

    def _rollout(self, q0, v0):
        return simulator.rollout(self.model, SimState(q0, v0), None, self.HORIZON, self.params)

    def _check_flight(self, tally, q0, v0, results):
        q, v = q0, v0
        for res in results:
            if not res.contacts:
                tally.flight_steps_checked += 1
                tally.check(checks.check_ballistic(q, v, res.state.q, res.state.v,
                                                   self.params.dt, self.model.gravity,
                                                   self.inertia), self.name)
            q, v = res.state.q, res.state.v

    def check(self, tally, inputs, outputs, self_test):
        q0, v_true, guess, target, rng = inputs
        theta, _ = outputs
        q_target = target[-1].state.q
        tally.check_steps(target, self.name)
        self._check_flight(tally, q0, v_true, target)
        solved = self._rollout(q0, theta)
        tally.check_steps(solved, self.name)
        self._check_flight(tally, q0, theta, solved)
        tally.check(checks.check_target(solved[-1].state.q, q_target), self.name)

        # Directional central differences through rollout_jacobian at the guess.
        base, Jq, Jv = simulator.rollout_jacobian(self.model, SimState(q0, guess), None,
                                                  self.HORIZON, self.params, theta="v0")
        d = rng.normal(size=self.model.nv)
        eps = checks.FD_EPS
        plus = self._rollout(q0, guess + eps * d)
        minus = self._rollout(q0, guess - eps * d)
        sigs = [checks.contact_signature(r) for r in base]
        if ([checks.contact_signature(r) for r in plus] != sigs
                or [checks.contact_signature(r) for r in minus] != sigs):
            tally.fd_skipped += 1
        else:
            q_T = base[-1].state.q
            fd = np.concatenate([
                checks.free_body_tangent(q_T, plus[-1].state.q)
                - checks.free_body_tangent(q_T, minus[-1].state.q),
                plus[-1].state.v - minus[-1].state.v]) / (2 * eps)
            tally.compare(np.concatenate([Jq @ d, Jv @ d]), fd, "rollout Jacobian")
            if self_test:
                bad = np.concatenate([checks.corrupt_column(Jq, d) @ d, Jv @ d])
                tally.self_test("jacobian_column", checks.check_directional(bad, fd))

        if self_test:
            missed = self._rollout(q0, theta + 1e-3 * d)
            tally.self_test("gn_target", checks.check_target(missed[-1].state.q, q_target))
            k = next(i for i, r in enumerate(target) if not r.contacts)
            q_k, v_k = (q0, v_true) if k == 0 else (target[k - 1].state.q, target[k - 1].state.v)
            tally.self_test("ballistic", checks.check_ballistic(
                q_k, v_k, target[k].state.q, target[k].state.v + 1e-6,
                self.params.dt, self.model.gravity, self.inertia))


WORKLOADS = {w.name: w for w in (RolloutChain12, MpcChain48, SysidCube)}
