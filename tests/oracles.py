"""Reference formulas shared by the tests, written independently of the library.

``t_logpdf`` is checked once against scipy in test_statcore.py; the
oracles that integrate or sample the t density call it instead of scipy,
which costs about a hundred times more per call.
"""

import math

import numpy as np


def t_logpdf(x: float, location: float, scale: float, dof: float) -> float:
    """Log density of the location-scale Student t. Requires scale > 0."""
    z = (x - location) / scale
    return (
        math.lgamma(0.5 * (dof + 1.0))
        - math.lgamma(0.5 * dof)
        - 0.5 * math.log(dof * math.pi)
        - math.log(scale)
        - 0.5 * (dof + 1.0) * math.log1p(z * z / dof)
    )


def cs_dense(n: int, variance: float, rho: float) -> np.ndarray:
    """The n-by-n compound-symmetry covariance ``variance * ((1 - rho) I + rho J)``."""
    out = np.full((n, n), variance * rho)
    np.fill_diagonal(out, variance)
    return out


def dense_cs_loglik(x: np.ndarray, mean: float, variance: float, rho: float) -> float:
    """MVN(mean * 1, cs_dense(n, variance, rho)) log density at x, via Cholesky."""
    resid = np.asarray(x, dtype=float) - mean
    chol = np.linalg.cholesky(cs_dense(len(resid), variance, rho))
    white = np.linalg.solve(chol, resid)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (len(resid) * math.log(2.0 * math.pi) + logdet + float(white @ white))
