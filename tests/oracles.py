"""Reference formulas shared by the tests, written independently of the library.

``t_logpdf`` and ``cs_loglik`` are checked once against scipy in
test_statcore.py; the oracles that integrate or sample those densities
call them instead of scipy, which costs about a hundred times more per
call.
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


def cs_loglik(stats: tuple, mean: float, variance: float) -> float:
    """MVN(mean * 1, cs_dense(n, variance, rho)) log density at x, from
    ``stats``, the library's ``cs_stats(x, rho)``: (n, mean of x, sum of
    squared deviations, 1 + (n-1) rho, 1 - rho).

    The last two are the eigenvalues of the unit correlation matrix along
    the constant vector and (n - 1 times) on its complement, so the log
    determinant and the quadratic form split the same way.
    """
    n, xbar, ss, c1, c2 = stats
    logdet = n * math.log(variance) + math.log(c1) + (n - 1.0) * math.log(c2)
    quad = (n * (xbar - mean) ** 2 / c1 + ss / c2) / variance
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)


def dense_cs_loglik(x: np.ndarray, mean: float, variance: float, rho: float) -> float:
    """MVN(mean * 1, cs_dense(n, variance, rho)) log density at x, via Cholesky."""
    resid = np.asarray(x, dtype=float) - mean
    chol = np.linalg.cholesky(cs_dense(len(resid), variance, rho))
    white = np.linalg.solve(chol, resid)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (len(resid) * math.log(2.0 * math.pi) + logdet + float(white @ white))
