"""Reference functions that only the tests use: the friction-cone
projections and the De Saxce correction written out on numpy vectors.

cone_project wraps the solver's own scalar projection, so the tests of the
projection check the code the PGS sweep runs.
"""
import numpy as np

from diffcontact.contact import _project


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
