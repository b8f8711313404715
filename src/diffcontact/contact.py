"""Frictional-contact NCP: K ni lambda perp sigma + Gamma(sigma) in K*.

sigma = G lambda + g is the contact-space velocity, Gamma the De Saxce
correction (0, 0, mu |sigma_T|). Solved exactly (to tolerance) with a
projected Gauss-Seidel sweep over contacts; no relaxation of the cone
constraint or of the maximum dissipation principle. Newton steps on the
modes the sweeps found replace PGS's linearly converging tail (_polish),
kept only if they meet the tolerance with the same modes; redundant sets,
where lambda is not unique, are left to PGS.

Units are whatever the caller puts into (G, g); the simulator uses impulses
and velocities.

The sweep and the residual work on Python floats, one contact at a time,
through one scalar cone projection. Each contact is a 3-vector block and
scenes have a handful of contacts, so a numpy call on a block costs more in
dispatch than its arithmetic; numpy is kept for the once-per-solve work
(block norms, the exact sigma = G lambda + g) and the polish's linear algebra.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dsyev

# Relative singular-value cutoff of a redundant set (polish and derivatives).
_RANK_RTOL = 1e-12
_FIRST_POLISH = 8  # sweep of the first polish attempt, then at doubling counts
# Mode classification. A contact breaks when |lam_c| is at most
# _EPS_LAMBDA * |g|_inf / |G|_inf (each scale floored at 1e-6): g is a velocity
# and G maps impulses to velocities, so the ratio is an impulse scale and the
# threshold follows the problem's units. A contact slides when |sigma_T| >
# _EPS_SLIDE and |lam_T| >= (1 - _EPS_CONE) mu lam_N.
_EPS_LAMBDA = 1e-9
_EPS_SLIDE = 1e-8
_EPS_CONE = 1e-7


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
        if not all(np.isfinite(x).all() for x in (self.G, self.g, self.mu)):
            raise ValueError("contact problem has non-finite entries")
        if np.any(np.asarray(self.mu) < 0.0):
            raise ValueError("friction coefficients must be >= 0")

    @property
    def n(self) -> int:
        return len(self.mu)

    @cached_property
    def mus(self) -> list:
        """mu as Python floats, for the sweep and the residual."""
        return np.asarray(self.mu, dtype=float).tolist()

    @cached_property
    def residual_scale(self) -> float:
        """max(1, |g|_inf), the divisor of ncp_residual."""
        return max(1.0, max(map(abs, self.g.tolist())))


@dataclass
class ContactSolution:
    lam: np.ndarray
    sigma: np.ndarray
    modes: list
    ambiguous: np.ndarray
    iterations: int  # PGS sweeps
    residual: float
    converged: bool
    polished: bool = False  # lam came from the Newton polish


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
    return x if isinstance(x, list) else x.tolist() if isinstance(x, np.ndarray) else list(x)


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
    contact velocity, never more loosely than at |lam_c| = 1. NaN if lam or
    sigma is not finite."""
    if problem.n == 0:
        return 0.0
    if sigma is None:
        sigma = problem.G @ np.asarray(lam, dtype=float) + problem.g
    lam, sigma = _floats(lam), _floats(sigma)
    if not math.isfinite(sum(lam) + sum(sigma)):
        return math.nan  # max() below would drop a NaN term
    worst = 0.0
    for mu, (l0, l1, l2), (s0, s1, s2) in zip(problem.mus, _triples(lam), _triples(sigma)):
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
    return worst / problem.residual_scale


def solve_ncp(problem: ContactProblem, tol: float = 1e-10, max_iters: int = 10000,
              warm_start=None) -> ContactSolution:
    """Projected Gauss-Seidel with the De Saxce correction, then the polish
    from sweep _FIRST_POLISH on, until it succeeds or meets a redundant set.

    Per contact: lam_c <- project_K(lam_c - (sigma_c + Gamma(sigma_c)) / s_c)
    with s_c the spectral norm of the diagonal block. Deterministic sweep
    order = contact order; warm starts shift the iterate only, never the
    fixed point. The sweep runs on Python floats (see the module note)."""
    n = problem.n
    if n == 0:
        return ContactSolution(np.zeros(0), np.zeros(0), [], np.zeros(0, bool), 0, 0.0, True)
    G, g, mus = problem.G, problem.g, problem.mus
    lam = [0.0] * (3 * n)
    if warm_start is not None and np.shape(warm_start) != (3 * n,):
        raise ValueError(f"warm start of shape {np.shape(warm_start)}, expected ({3 * n},)")
    if warm_start is not None:
        for c, (a, b, nrm) in enumerate(_triples(np.asarray(warm_start, dtype=float).tolist())):
            lam[3 * c : 3 * c + 3] = _project(a, b, nrm, mus[c])
    scales, cols = _sweep_setup(G, n)
    sigma = (G @ np.array(lam) + g).tolist()
    residual = ncp_residual(problem, lam, sigma)
    sweeps, attempt = 0, _FIRST_POLISH
    while residual > tol and sweeps < max_iters:  # a NaN residual ends the solve
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
        if residual > tol and sweeps >= attempt:
            attempt, (modes, rows) = 2 * attempt, _mode_guess(lam, sigma, mus, scales)
            w, _, info = dsyev(G[rows][:, rows], compute_v=0)  # ascending eigenvalues
            if info != 0 or w.size and w[0] <= _RANK_RTOL * w[-1]:
                attempt = math.inf  # a redundant set: lambda is not unique
            elif (done := _polish(problem, mus, lam, modes, rows, tol)) is not None:
                return replace(done, iterations=sweeps)
    converged = residual <= tol
    lam = np.array(lam)
    sigma = G @ lam + g
    residual = ncp_residual(problem, lam, sigma)
    modes, ambiguous = classify_modes(problem, lam, sigma)
    return ContactSolution(lam, sigma, modes, ambiguous, sweeps, residual, converged)


def _sweep_setup(G: np.ndarray, n: int):
    """Each contact's PGS step scale, the spectral norm of its diagonal 3x3
    block of G (1.0 where that vanishes), and its three columns of G, as
    Python floats; one stacked SVD and one reshape for all contacts."""
    c = np.arange(n)
    norms = np.linalg.svd(G.reshape(n, 3, n, 3)[c, :, c], compute_uv=False)[:, 0]
    return [s if s > 1e-14 else 1.0 for s in norms.tolist()], G.T.reshape(n, 3, 3 * n).tolist()


def _mode_guess(lam: list, sigma: list, mus: list, scales: list):
    """Each contact's mode by its next PGS projection: polar (breaking),
    interior (sticking, or active frictionless) or cone boundary (sliding);
    and the rows of G those modes constrain."""
    modes, rows = [], []
    for c, (mu, s, (l0, l1, l2), (s0, s1, s2)) in enumerate(
            zip(mus, scales, _triples(lam), _triples(sigma))):
        q2 = l2 - (s2 + mu * math.hypot(s0, s1)) / s
        p2 = _project(l0 - s0 / s, l1 - s1 / s, q2, mu)[2]
        stick = p2 == q2 and mu > 0.0
        modes.append(Mode.BREAKING if p2 == 0.0 else
                     Mode.STICKING if stick or mu == 0.0 else Mode.SLIDING)
        rows += [] if p2 == 0.0 else [3 * c, 3 * c + 1, 3 * c + 2] if stick else [3 * c + 2]
    return modes, rows


def _polish(problem: ContactProblem, mus: list, lam: list, modes: list, rows: list,
            tol: float) -> ContactSolution | None:
    """Newton steps on F = L lam + K sigma = 0: sigma = 0 on the constrained
    rows (K), lam = 0 on the others (L = I - K), and lam_T + mu lam_N
    sigma_T/|sigma_T| = 0 on sliding tangent rows. Returns the first iterate
    that meets tol (a NaN residual never does) if it keeps the modes."""
    G, g, lam = problem.G, problem.g, np.array(lam)
    K = np.diag(np.bincount(rows, minlength=len(g)) * 1.0)  # rows are distinct
    L = np.eye(len(g)) - K
    sliding = [(3 * c, mu) for c, (m, mu) in enumerate(zip(modes, mus)) if m is Mode.SLIDING]
    sigma = G @ lam + g
    try:
        for _ in range(4):  # convergence is quadratic: one to three steps
            s, ln = sigma.tolist(), lam.tolist()
            for i, mu in sliding:
                s_t = math.hypot(s[i], s[i + 1])
                u0, u1, k = s[i] / s_t, s[i + 1] / s_t, mu * ln[i + 2] / s_t
                L[i : i + 2, i + 2] = mu * u0, mu * u1
                K[i : i + 2, i : i + 2] = [[k - k * u0 * u0, -k * u0 * u1],
                                           [-k * u0 * u1, k - k * u1 * u1]]
            lam = lam - np.linalg.solve(L + K @ G, L @ lam + K @ sigma)
            sigma = G @ lam + g
            if (residual := ncp_residual(problem, lam, sigma)) <= tol:
                found, ambiguous = classify_modes(problem, lam, sigma)
                return (ContactSolution(lam, sigma, found, ambiguous, 0, residual, True, True)
                        if found == modes else None)
    except (np.linalg.LinAlgError, ZeroDivisionError):
        pass
    return None


def classify_modes(problem: ContactProblem, lam: np.ndarray, sigma=None):
    """Per-contact mode: Breaking (|lam| ~ 0), Sliding (on the cone
    boundary with tangential slip) or Sticking. Contacts with tangential
    slip but an interior impulse are flagged ambiguous (solver did not
    converge to a consistent mode)."""
    if sigma is None:
        sigma = problem.G @ lam + problem.g
    L, S = np.reshape(lam, (-1, 3)), np.reshape(sigma, (-1, 3))
    mu = np.asarray(problem.mu, dtype=float)
    g_scale = max(float(np.abs(problem.g).max(initial=0.0)), 1e-6)
    G_scale = max(float(np.abs(problem.G).max(initial=0.0)), 1e-6)
    breaking = np.sqrt(L[:, None, :] @ L[:, :, None])[:, 0, 0] <= _EPS_LAMBDA * g_scale / G_scale
    slip = ~breaking & (mu > 0.0) & (np.hypot(S[:, 0], S[:, 1]) > _EPS_SLIDE)
    on_cone = np.hypot(L[:, 0], L[:, 1]) >= (1.0 - _EPS_CONE) * mu * L[:, 2]
    modes = [Mode.BREAKING if b else Mode.SLIDING if s else Mode.STICKING
             for b, s in zip(breaking.tolist(), (slip & on_cone).tolist())]
    return modes, slip & ~on_cone
