"""Call timers and the span tracer, both installed from the benchmark.

Nothing in the library is instrumented. Both mechanisms replace a name in
the module namespace where the library looks it up at call time (for
example `diffcontact.simulator.solve_ncp`, which `step` calls) with a
wrapper, and put the original back afterwards.

- `CallLog` times the two public entry points every workload reports on,
  `simulator.step` and `derivatives.step_jacobian`, and keeps the step
  results so that every contact solve can be checked. It is installed in
  untraced and traced runs alike.
- `Tracer` records one span per call at each layer boundary listed in
  `SPANS`, keeps them in memory as per-name duration lists, and derives
  inclusive and self times (self = duration minus the time of child
  spans) plus the solver counts.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from diffcontact import contact, derivatives, dynamics, inverse, model, simulator


class Patches:
    """Set module attributes; `restore` puts them back in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, module, name, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def restore(self):
        while self._saved:
            module, name, value = self._saved.pop()
            setattr(module, name, value)


class CallLog:
    """Per-call wall time of `step` and `step_jacobian`, and every step
    result, while `recording` is set."""

    def __init__(self):
        self.recording = False
        self.step_s = []
        self.jacobian_s = []
        self.step_results = []

    def install(self, patches: Patches):
        patches.set(simulator, "step", self._timed(simulator.step, self.step_s, True))
        patches.set(derivatives, "step_jacobian",
                    self._timed(derivatives.step_jacobian, self.jacobian_s, False))

    def _timed(self, fn, durations, keep):
        pc = time.perf_counter
        results = self.step_results

        def timed(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            t0 = pc()
            out = fn(*args, **kwargs)
            durations.append(pc() - t0)
            if keep:
                results.append(out)
            return out

        return timed


# (module, attribute, span name). A name listed under several modules is
# one layer reached through several import sites.
SPANS = [
    (simulator, "step", "simulator.step"),
    (simulator, "detect_contacts", "simulator.detect_contacts"),
    (simulator, "contact_jacobian", "simulator.contact_jacobian"),
    (simulator, "narrow_phase", "collision.narrow_phase"),
    (simulator, "compute_kinematics", "model.compute_kinematics"),
    (simulator, "compute_dynamics", "dynamics.compute_dynamics"),
    (simulator, "solve_ncp", "contact.solve_ncp"),
    (simulator, "integrate", "model.integrate"),
    (contact, "ncp_residual", "contact.ncp_residual"),
    (derivatives, "step_jacobian", "derivatives.step_jacobian"),
    (derivatives, "compute_kinematics", "model.compute_kinematics"),
    (derivatives, "compute_dynamics", "dynamics.compute_dynamics"),
    (derivatives, "id_state_derivatives", "dynamics.id_state_derivatives"),
    (derivatives, "applied_wrench_q_derivative", "dynamics.applied_wrench_q_derivative"),
    (derivatives, "jv_q_derivatives", "model.jv_q_derivatives"),
    (derivatives, "integrate_jacobians", "model.integrate_jacobians"),
    (derivatives, "_contact_packs", "derivatives.contact_packs"),
    (derivatives, "assemble_reduced_system", "derivatives.assemble_reduced_system"),
    (derivatives, "solve_reduced", "derivatives.solve_reduced"),
    (model, "motion_cross_cols", "spatial.cross_cols"),
    (dynamics, "motion_cross_cols", "spatial.cross_cols"),
    (dynamics, "force_cross_cols", "spatial.cross_cols"),
    (inverse, "rollout_jacobian", "simulator.rollout_jacobian"),
]


class Tracer:
    def __init__(self):
        self._stack = []
        self.inclusive = defaultdict(list)
        self.self_time = defaultdict(list)
        self.ncp_sweeps = []
        self.ncp_residual_calls = []
        self.unconverged_solves = 0
        self.rank_deficient_solves = 0

    def install(self, patches: Patches):
        hooks = {
            "contact.solve_ncp": self._after_solve_ncp,
            "derivatives.solve_reduced": self._after_solve_reduced,
        }
        for module, attr, name in SPANS:
            patches.set(module, attr, self._span(name, getattr(module, attr), hooks.get(name)))

    def _span(self, name, fn, after):
        stack = self._stack
        incl = self.inclusive[name]
        selft = self.self_time[name]
        residuals = self.inclusive["contact.ncp_residual"]
        pc = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, len(residuals)]
            stack.append(frame)
            t0 = pc()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = pc() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += d
                incl.append(d)
                selft.append(d - frame[0])
            if after is not None:
                after(out, frame)
            return out

        return traced

    def _after_solve_ncp(self, sol, frame):
        self.ncp_sweeps.append(sol.iterations)
        self.ncp_residual_calls.append(len(self.inclusive["contact.ncp_residual"]) - frame[1])
        self.unconverged_solves += not sol.converged

    def _after_solve_reduced(self, out, frame):
        self.rank_deficient_solves += bool(out[1])

    def marks(self) -> dict:
        """Current length of every span list, for `scale_since`."""
        return {name: len(values) for name, values in self.inclusive.items()}

    def scale_since(self, marks, factor):
        """Scale the durations recorded after `marks` by `factor`."""
        for name, values in self.inclusive.items():
            start = marks.get(name, 0)
            for series in (values, self.self_time[name]):
                for i in range(start, len(series)):
                    series[i] *= factor

    def calls(self, name) -> int:
        return len(self.inclusive[name])

    def median_us(self, name, self_only=False) -> float:
        values = (self.self_time if self_only else self.inclusive)[name]
        return float(np.median(values)) * 1e6 if values else 0.0

    def summary(self) -> dict:
        """Per span name: calls, median and total inclusive and self time."""
        return {
            name: {
                "calls": len(values),
                "median_us": float(np.median(values)) * 1e6,
                "total_s": float(np.sum(values)),
                "self_median_us": float(np.median(self.self_time[name])) * 1e6,
                "self_total_s": float(np.sum(self.self_time[name])),
            }
            for name, values in sorted(self.inclusive.items()) if values
        }
