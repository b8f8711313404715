#!/usr/bin/env python3
"""diffcontact benchmark: forward rollouts, MPC step derivatives and
system identification through hard contact.

    python3 benchmark/run.py --workload rollout_chain12 --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all          # the three workloads in turn

Run from the repository root or anywhere else: the library is imported
from the `src/` directory next to this one, never from an installed copy.
BLAS is pinned to one thread before numpy loads.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see README.md). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 when every output check passed, 1 when one failed and 2 when the
library cannot be imported.
"""
import time

_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("rollout_chain12", "mpc_chain48", "sysid_cube")
# Latency metrics report a p90, which needs this many samples in a run;
# a run goes on past --seconds, by whole rounds, until it has them.
MIN_SAMPLES = 100


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Import diffcontact from ../src only."""
    sys.path.insert(0, str(SRC))
    import diffcontact

    found = Path(diffcontact.__file__).resolve().parent
    if found != SRC / "diffcontact":
        raise ImportError(f"diffcontact found at {found}, not under {SRC}")


def run_round(workload, inputs, log):
    """One timed task with the call log recording. Returns the task's own
    time, its outputs, the step results it produced and its wall time."""
    log.step_results.clear()
    log.recording = True
    t0 = time.perf_counter()
    try:
        task_s, outputs = workload.task(inputs)
    finally:
        log.recording = False
    wall = time.perf_counter() - t0
    return task_s, outputs, list(log.step_results), wall


def _scale_tail(values, start, factor):
    for i in range(start, len(values)):
        values[i] *= factor


def measure(workload, seed, seconds, trace, calibration):
    """Rounds until `seconds` have passed (and every latency metric has
    MIN_SAMPLES samples). Every time taken in a round is scaled to
    reference speed by the calibration kernel timed just before and after
    its task. With trace, each round runs once untraced and once traced on
    the same inputs; only the traced pass is kept."""
    import numpy as np

    import checks
    from tracing import CallLog, Patches, Tracer
    from workloads import Tally

    tally = Tally()
    log = CallLog()
    tracer = Tracer() if trace else None
    walls = [0.0, 0.0]          # untraced, traced wall time of the tasks
    factors = []
    patches = Patches()
    log.install(patches)
    t_begin = time.perf_counter()
    rounds = 0
    try:
        while True:
            inputs = workload.inputs(np.random.default_rng([seed, rounds]))
            n_step, n_jac = len(log.step_s), len(log.jacobian_s)
            before = calibration.measure()
            if trace:
                wall = run_round(workload, inputs, log)[3]
                middle = calibration.measure()
                walls[0] += wall * calibration.factor(before, middle)
                before = middle
                del log.step_s[n_step:], log.jacobian_s[n_jac:]
                span_patches = Patches()
                tracer.install(span_patches)
                marks = tracer.marks()
                try:
                    task_s, outputs, results, wall = run_round(workload, inputs, log)
                finally:
                    span_patches.restore()
            else:
                task_s, outputs, results, wall = run_round(workload, inputs, log)
            factor = calibration.factor(before, calibration.measure())
            factors.append(factor)
            _scale_tail(log.step_s, n_step, factor)
            _scale_tail(log.jacobian_s, n_jac, factor)
            if trace:
                walls[1] += wall * factor
                tracer.scale_since(marks, factor)
                tally.residual_evals.append(
                    tracer.calls("simulator.rollout_jacobian") - marks["simulator.rollout_jacobian"])
            rounds += 1
            workload.account(tally, task_s * factor, outputs, results)
            tally.check_steps(results, workload.name)
            self_test = len(tally.self_tests) < len(workload.SELF_TESTS)
            if "contact_cone" not in tally.self_tests:
                contact = next((r for r in results if r.solution is not None), None)
                if contact is not None:
                    tally.self_test("contact_cone", checks.self_test_cone(contact))
            workload.check(tally, inputs, outputs, self_test)
            enough = min(len(log.step_s), len(log.jacobian_s)) >= MIN_SAMPLES
            if time.perf_counter() - t_begin >= seconds and (enough or trace):
                break
    finally:
        patches.restore()
    for name in workload.SELF_TESTS:
        if name not in tally.self_tests:
            tally.errors.append(f"self-test {name} never ran")
    return tally, log, tracer, walls, factors, time.perf_counter() - t_begin


def end_to_end(setup_s, tally, log):
    import numpy as np

    step_us = np.asarray(log.step_s) * 1e6
    jac_us = np.asarray(log.jacobian_s) * 1e6
    return {
        "setup_s": (setup_s, "s"),
        "sim_steps_per_s": (tally.steps / sum(tally.task_s), "steps/s"),
        "step_us": (float(np.median(step_us)), "us"),
        "step_us_p90": (float(np.percentile(step_us, 90)), "us"),
        "jacobian_us": (float(np.median(jac_us)), "us"),
        "jacobian_us_p90": (float(np.percentile(jac_us, 90)), "us"),
        "task_s": (float(np.median(tally.task_s)), "s"),
    }


def per_layer(tally, tracer, walls):
    import numpy as np

    def med(values):
        return float(np.median(values)) if values else 0.0

    us = tracer.median_us
    steps = max(tracer.calls("simulator.step"), 1)
    jacobians = max(tracer.calls("derivatives.step_jacobian"), 1)
    return {
        "contact.solve_ncp_us": (us("contact.solve_ncp"), "us"),
        "contact.ncp_residual_us": (us("contact.ncp_residual"), "us"),
        "contact.ncp_sweeps": (med(tracer.ncp_sweeps), "count"),
        "contact.ncp_residual_calls": (med(tracer.ncp_residual_calls), "count"),
        "contact.unconverged_solves": (tracer.unconverged_solves, "count"),
        "simulator.step_self_us": (us("simulator.step", self_only=True), "us"),
        "simulator.detect_contacts_us": (us("simulator.detect_contacts"), "us"),
        "simulator.contact_jacobian_us": (us("simulator.contact_jacobian"), "us"),
        "model.compute_kinematics_us": (us("model.compute_kinematics"), "us"),
        "model.integrate_us": (us("model.integrate"), "us"),
        "model.jv_q_derivatives_us": (us("model.jv_q_derivatives"), "us"),
        "model.integrate_jacobians_us": (us("model.integrate_jacobians"), "us"),
        "dynamics.compute_dynamics_us": (us("dynamics.compute_dynamics"), "us"),
        "dynamics.compute_dynamics_calls":
            (tracer.calls("dynamics.compute_dynamics") / steps, "count"),
        "dynamics.id_state_derivatives_us": (us("dynamics.id_state_derivatives"), "us"),
        "dynamics.applied_wrench_q_derivative_us":
            (us("dynamics.applied_wrench_q_derivative"), "us"),
        "spatial.cross_cols_us": (us("spatial.cross_cols"), "us"),
        "collision.narrow_phase_us": (us("collision.narrow_phase"), "us"),
        "derivatives.contact_packs_us": (us("derivatives.contact_packs"), "us"),
        "derivatives.assemble_reduced_system_us":
            (us("derivatives.assemble_reduced_system"), "us"),
        "derivatives.solve_reduced_us": (us("derivatives.solve_reduced"), "us"),
        "derivatives.step_jacobian_self_us":
            (us("derivatives.step_jacobian", self_only=True), "us"),
        "derivatives.rank_deficient_solves": (tracer.rank_deficient_solves / jacobians, "count"),
        "inverse.gn_iterations": (med(tally.gn_iterations), "count"),
        "inverse.residual_evals": (med(tally.residual_evals) if tally.gn_iterations else 0,
                                   "count"),
        "trace.overhead_us": ((walls[1] - walls[0]) / tally.attempted * 1e6, "us"),
    }


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(name, seed, seconds, trace, start):
    """Set up, measure and report one workload. `start` is when its set-up
    began (process start for the first workload)."""
    from calibration import Calibration
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    setup_raw = time.perf_counter() - start
    calibration = Calibration()
    setup_speed = calibration.factor(*(calibration.measure() for _ in range(2)))
    setup_s = setup_raw * setup_speed
    tally, log, tracer, walls, factors, elapsed = measure(workload, seed, seconds, trace,
                                                          calibration)
    metrics = per_layer(tally, tracer, walls) if trace else end_to_end(setup_s, tally, log)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    print(f"{name}: seed {seed}, {len(factors)} rounds in {elapsed:.1f} s, trace {trace}; "
          f"times at reference speed (measured x {min(factors):.3f} .. {max(factors):.3f}; "
          f"set-up measured {setup_raw:.3f} s)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:42s} {value:14.6g} {unit}")
    print(f"  operations attempted {tally.attempted}, failed {tally.failed}")
    print(f"  checked: {tally.contact_steps_checked} contact steps, "
          f"{tally.flight_steps_checked} flight steps, {tally.fd_compared} directional FD "
          f"comparisons (worst {tally.fd_worst:.2e}, {tally.fd_skipped} skipped on a mode "
          f"change); self-tests rejected corrupted input: "
          + ", ".join(f"{k}={v}" for k, v in tally.self_tests.items()))
    for err in tally.errors[:20]:
        print(f"  CHECK FAILED {err}")

    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace,
                  rounds=len(factors), speed_factors=factors, setup_raw_s=setup_raw,
                  calibration_s=calibration.samples,
                  environment=environment(), errors=tally.errors,
                  self_tests=tally.self_tests, fd_compared=tally.fd_compared,
                  fd_skipped=tally.fd_skipped, fd_worst=tally.fd_worst)
    if trace:
        record["spans"] = tracer.summary()
    with open(OUT / f"{name}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"benchmark: cannot import diffcontact from {SRC}: {exc}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    start = _START
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, start)
        start = time.perf_counter()
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
