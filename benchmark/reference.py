#!/usr/bin/env python3
"""Reference figures for README.md; not benchmark metrics.

    python3 benchmark/reference.py

Prints, with BLAS pinned to one thread and every time scaled to reference
speed as in the benchmark (calibration.py):
- the nv-scaling of step and step_jacobian(theta="all") latency (median
  over a 10-step warm-started trajectory per chain, 3 trajectories) for
  revolute chains of 12, 24 and 48 links with four sphere feet;
- the wall-time ratio of the central-difference Jacobian
  (fd.fd_step_jacobian, theta="all") over the analytic one on chain12.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from calibration import Calibration  # noqa: E402
from diffcontact import derivatives, fd, simulator  # noqa: E402
from diffcontact.cli import load_scene  # noqa: E402
from diffcontact.simulator import SimParams, SimState  # noqa: E402
from workloads import chain_model, sine_torques  # noqa: E402


_CALIBRATION = Calibration()


def timed(fn):
    """Wall time of fn() at reference speed, and its result."""
    before = _CALIBRATION.measure()
    t0 = time.perf_counter()
    out = fn()
    elapsed = time.perf_counter() - t0
    return elapsed * Calibration.factor(before, _CALIBRATION.measure()), out


def scaling(n_links, trajectories=3, horizon=10):
    feet = tuple(n_links * k // 4 - 1 for k in (1, 2, 3, 4))
    model = chain_model(n_links, feet)
    params = SimParams(ncp_tol=1e-14)
    step_s, jac_s = [], []
    for seed in range(trajectories):
        taus = sine_torques(np.random.default_rng(seed), model.nv, horizon, params.dt, 0.1)
        state = SimState(model.neutral_configuration(), np.zeros(model.nv))
        warm = None
        for k in range(horizon):
            t, res = timed(lambda: simulator.step(model, state, taus[k], params, warm_start=warm))
            step_s.append(t)
            jac_s.append(timed(lambda: derivatives.step_jacobian(model, state, taus[k], params,
                                                                 res, theta="all"))[0])
            state, warm = res.state, res.warm_start()
    return model.nv, np.median(step_s) * 1e6, np.median(jac_s) * 1e6


def fd_ratio(reps=3):
    model, state, params = load_scene("chain12")
    taus = sine_torques(np.random.default_rng(0), model.nv, 20, params.dt, 0.1)
    results = simulator.rollout(model, state, taus, 20, params)
    state, tau, base = results[-2].state, taus[-1], results[-1]
    jac = [timed(lambda: derivatives.step_jacobian(model, state, tau, params, base))[0]
           for _ in range(3 * reps)]
    fds = [timed(lambda: fd.fd_step_jacobian(model, state, tau, params, theta="all",
                                             base=base))[0] for _ in range(reps)]
    return np.median(fds) * 1e6, np.median(jac) * 1e6


def main():
    print("| links | nv | step_us (median) | jacobian_us (median) |")
    print("|---|---|---|---|")
    for n in (12, 24, 48):
        nv, s, j = scaling(n)
        print(f"| {n} | {nv} | {s:.0f} | {j:.0f} |")
    f, a = fd_ratio()
    print(f"\nchain12 fd_step_jacobian {f:.0f} us, step_jacobian {a:.0f} us, "
          f"FD/analytic {f / a:.1f}x")


if __name__ == "__main__":
    main()
