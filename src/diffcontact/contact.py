"""Frictional-contact NCP: K ni lambda perp sigma + Gamma(sigma) in K*.

sigma = G lambda + g is the contact-space velocity, Gamma the De Saxce
correction (0, 0, mu |sigma_T|). Solved exactly (to tolerance) with a
projected Gauss-Seidel sweep over contacts; no relaxation of the cone
constraint or of the maximum dissipation principle.

Units are whatever the caller puts into (G, g); the simulator uses impulses
and velocities.

The sweep and the residual work on Python floats, one contact at a time,
through one scalar cone projection. Each contact is a 3-vector block and
scenes have a handful of contacts, so a numpy call on a block costs more in
dispatch than its arithmetic; numpy is kept for the once-per-solve work
(block norms, the exact sigma = G lambda + g).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Mode(enum.Enum):
    BREAKING = "breaking"
    STICKING = "sticking"
    SLIDING = "sliding"


@dataclass(frozen=True)
class ContactProblem:
    """Delassus matrix G (3n x 3n, PSD), free velocity g (3n), friction
    coefficients mu (n). Rows per contact: (t1, t2, normal)."""

    G: np.ndarray
    g: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        n = len(self.mu)
        if self.G.shape != (3 * n, 3 * n) or self.g.shape != (3 * n,):
            raise ValueError("inconsistent contact problem dimensions")
        if np.any(np.asarray(self.mu) < 0.0):
            raise ValueError("friction coefficients must be >= 0")

    @property
    def n(self) -> int:
        return len(self.mu)


@dataclass(frozen=True)
class ModeThresholds:
    """Classification thresholds. eps_lambda defaults to a problem-scaled
    value ~ 1e-9 * |g|_inf / |G|_inf (an impulse scale)."""

    eps_lambda: float | None = None
    eps_slide: float = 1e-8
    eps_cone: float = 1e-7

    def lambda_threshold(self, problem: ContactProblem) -> float:
        if self.eps_lambda is not None:
            return self.eps_lambda
        g_scale = max(float(np.abs(problem.g).max(initial=0.0)), 1e-6)
        G_scale = max(float(np.abs(problem.G).max(initial=0.0)), 1e-6)
        return 1e-9 * g_scale / G_scale


@dataclass
class ContactSolution:
    lam: np.ndarray
    sigma: np.ndarray
    modes: list
    ambiguous: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _project(a: float, b: float, n: float, mu: float):
    """Euclidean projection of (a, b, n) onto the cone |(a, b)| <= mu n,
    as Python floats."""
    s = math.hypot(a, b)
    if s <= mu * n:
        return a, b, n
    if mu * s <= -n:
        return 0.0, 0.0, 0.0
    proj_n = (mu * s + n) / (1.0 + mu * mu)
    if s > 0.0:
        return mu * proj_n * a / s, mu * proj_n * b / s, proj_n
    return 0.0, 0.0, proj_n


def _cone_distance(a: float, b: float, n: float, mu: float) -> float:
    pa, pb, pn = _project(a, b, n, mu)
    return math.hypot(a - pa, b - pb, n - pn)


def _triples(x):
    """Consecutive (t1, t2, normal) triples of a flat sequence."""
    it = iter(x)
    return zip(it, it, it)


def _floats(x) -> list:
    return x.tolist() if isinstance(x, np.ndarray) else list(x)


def cone_project(lam: np.ndarray, mu: float) -> np.ndarray:
    """Euclidean projection onto the friction cone |lam_T| <= mu lam_N."""
    return np.array(_project(float(lam[0]), float(lam[1]), float(lam[2]), mu))


def dual_cone_project(y: np.ndarray, mu: float) -> np.ndarray:
    """Projection onto the dual cone K_mu^* (= K_{1/mu}; halfspace y_N >= 0
    at mu = 0)."""
    a, b, n = float(y[0]), float(y[1]), float(y[2])
    if mu == 0.0:
        return np.array([a, b, max(n, 0.0)])
    return np.array(_project(a, b, n, 1.0 / mu))


def de_saxce_correction(sigma: np.ndarray, mu) -> np.ndarray:
    """Gamma(sigma): (0, 0, mu |sigma_T|) per contact; accepts stacked
    (3n,) input with mu of shape (n,)."""
    sig = sigma.reshape(-1, 3)
    out = np.zeros_like(sig)
    out[:, 2] = np.asarray(mu) * np.hypot(sig[:, 0], sig[:, 1])
    return out.reshape(sigma.shape)


def ncp_residual(problem: ContactProblem, lam, sigma=None) -> float:
    """Worst per-contact violation of cone feasibility, dual feasibility,
    complementarity and slip alignment, normalized by max(1, |g|_inf).
    lam and sigma may be arrays or flat sequences of floats.

    The alignment term |lam_T |sigma_T| + mu lam_N sigma_T| is first order
    in the angle between the friction impulse and the slip direction;
    the complementarity gap alone is only second order in it, which would
    let a warm-started solve stop with a stale friction direction.

    Both terms scale with lam, so they are divided by min(1, |lam_c|): a
    contact carrying a tiny impulse must still meet the tolerance in its
    contact velocity, never more loosely than at |lam_c| = 1."""
    if problem.n == 0:
        return 0.0
    if sigma is None:
        sigma = problem.G @ np.asarray(lam, dtype=float) + problem.g
    worst = 0.0
    mus = np.asarray(problem.mu, dtype=float).tolist()
    for mu, (l0, l1, l2), (s0, s1, s2) in zip(mus, _triples(_floats(lam)),
                                               _triples(_floats(sigma))):
        s_t = math.hypot(s0, s1)
        y2 = s2 + mu * s_t  # normal part of y = sigma + Gamma(sigma)
        dual = max(-y2, 0.0) if mu == 0.0 else _cone_distance(s0, s1, y2, 1.0 / mu)
        lam_scale = min(1.0, math.hypot(l0, l1, l2)) or 1.0
        worst = max(
            worst,
            _cone_distance(l0, l1, l2, mu),
            dual,
            abs(l0 * s0 + l1 * s1 + l2 * y2) / lam_scale,
            math.hypot(l0 * s_t + mu * l2 * s0, l1 * s_t + mu * l2 * s1) / lam_scale,
        )
    return worst / max(1.0, max(map(abs, problem.g.tolist())))


def solve_ncp(problem: ContactProblem, tol: float = 1e-10, max_iters: int = 10000,
              warm_start=None, thresholds: ModeThresholds = ModeThresholds()) -> ContactSolution:
    """Projected Gauss-Seidel with the De Saxce correction.

    Per contact: lam_c <- project_K(lam_c - (sigma_c + Gamma(sigma_c)) / s_c)
    with s_c the spectral norm of the diagonal block. Deterministic sweep
    order = contact order; warm starts shift the iterate only, never the
    fixed point. The sweep runs on Python floats (see the module note)."""
    n = problem.n
    if n == 0:
        return ContactSolution(np.zeros(0), np.zeros(0), [], np.zeros(0, bool), 0, 0.0, True)
    G, g = problem.G, problem.g
    mus = np.asarray(problem.mu, dtype=float).tolist()
    lam = [0.0] * (3 * n)
    if warm_start is not None and warm_start.shape == (3 * n,):
        for c, (a, b, nrm) in enumerate(_triples(warm_start.tolist())):
            lam[3 * c : 3 * c + 3] = _project(a, b, nrm, mus[c])
    scales = []
    cols = []
    for c in range(n):
        s = float(np.linalg.norm(G[3 * c : 3 * c + 3, 3 * c : 3 * c + 3], 2))
        scales.append(s if s > 1e-14 else 1.0)
        cols.append(G[:, 3 * c : 3 * c + 3].T.tolist())
    sigma = (G @ np.array(lam) + g).tolist()
    residual = ncp_residual(problem, lam, sigma)
    converged = residual <= tol
    sweeps = 0
    while not converged and sweeps < max_iters:
        sweeps += 1
        for c, (mu, s, (c0, c1, c2)) in enumerate(zip(mus, scales, cols)):
            i = 3 * c
            l0, l1, l2 = lam[i : i + 3]
            s0, s1, s2 = sigma[i : i + 3]
            y2 = s2 + mu * math.hypot(s0, s1)
            p0, p1, p2 = _project(l0 - s0 / s, l1 - s1 / s, l2 - y2 / s, mu)
            d0, d1, d2 = p0 - l0, p1 - l1, p2 - l2
            if d0 != 0.0 or d1 != 0.0 or d2 != 0.0:
                sigma = [x + (a * d0 + b * d1 + e * d2)
                         for x, a, b, e in zip(sigma, c0, c1, c2)]
                lam[i : i + 3] = p0, p1, p2
        if sweeps % 128 == 0:
            sigma = (G @ np.array(lam) + g).tolist()  # refresh incremental updates
        residual = ncp_residual(problem, lam, sigma)
        converged = residual <= tol
    lam = np.array(lam)
    sigma = G @ lam + g
    residual = ncp_residual(problem, lam, sigma)
    modes, ambiguous = classify_modes(problem, lam, sigma, thresholds)
    return ContactSolution(lam, sigma, modes, ambiguous, sweeps, residual, converged)


def classify_modes(problem: ContactProblem, lam: np.ndarray, sigma=None,
                   thresholds: ModeThresholds = ModeThresholds()):
    """Per-contact mode: Breaking (|lam| ~ 0), Sliding (on the cone
    boundary with tangential slip) or Sticking. Contacts with tangential
    slip but an interior impulse are flagged ambiguous (solver did not
    converge to a consistent mode)."""
    if sigma is None:
        sigma = problem.G @ lam + problem.g
    L, S = np.reshape(lam, (-1, 3)), np.reshape(sigma, (-1, 3))
    mu, eps_lam = np.asarray(problem.mu, dtype=float), thresholds.lambda_threshold(problem)
    breaking = np.sqrt(L[:, None, :] @ L[:, :, None])[:, 0, 0] <= eps_lam
    slip = ~breaking & (mu > 0.0) & (np.hypot(S[:, 0], S[:, 1]) > thresholds.eps_slide)
    on_cone = np.hypot(L[:, 0], L[:, 1]) >= (1.0 - thresholds.eps_cone) * mu * L[:, 2]
    modes = [Mode.BREAKING if b else Mode.SLIDING if s else Mode.STICKING
             for b, s in zip(breaking.tolist(), (slip & on_cone).tolist())]
    return modes, slip & ~on_cone
