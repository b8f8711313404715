"""Machine-speed calibration for the reported times.

The shared host this benchmark was written on switches between a fast and
a slow state, about 1.7x apart, several times a second, and the share of
time spent slow drifts over minutes. Every kind of work slows alike: a
chain12 `step_jacobian` took 14 ms and 27 ms within two minutes, while its
ratio to the kernel below stayed at 10 +- 0.5. Raw wall times from two sets
of runs are therefore not comparable, but times scaled by the kernel's
speed at the moment they were taken are.

The kernel is a fixed mix shaped like the library's work: a Python loop of
3- and 6-vector numpy operations, and dense 48 x 48 Cholesky solves. It
uses numpy and scipy only, never the library, so no change to the library
moves it. A run times it just before and just after each timed task and
reports each time of that task at reference speed:
    reported = measured * REFERENCE_S / mean(kernel time before, after).
"""
from __future__ import annotations

import time

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# The kernel's median time on the reference machine (see README).
REFERENCE_S = 1.6e-3


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._cols = rng.normal(size=(6, 48))
        self._B = rng.normal(size=(48, 48))
        self._M = self._B @ self._B.T + 48.0 * np.eye(48)
        self.samples = []

    def _kernel(self) -> float:
        acc = 0.0
        for k in range(48):
            col = self._cols[:, k]
            w = np.cross(col[:3], col[3:])
            acc += float(np.hypot(w[0], w[1])) + float(np.linalg.norm(col))
            acc += float((np.outer(col, col) @ self._cols[:, :6])[0, 0])
        for _ in range(4):
            acc += float(cho_solve(cho_factor(self._M, lower=True), self._B)[0, 0])
        return acc

    def measure(self, reps: int = 3) -> float:
        """Median kernel time over `reps` runs, now."""
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.samples.extend(times)
        return float(np.median(times))

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Multiplier taking a time measured between two kernel timings to
        reference speed."""
        return REFERENCE_S / (0.5 * (before + after))
