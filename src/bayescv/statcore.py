"""Numerical kernels used everywhere else.

Student-t distribution functions, the O(n) log density of a multivariate
normal with compound-symmetry covariance, and reproducible random streams.
The t CDF is computed from scratch (regularized incomplete beta via a
continued fraction, evaluated over whole numpy arrays at once) so the
package has no runtime dependency on a special function library; scipy
appears only in the test suite as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .errors import DimensionMismatch

__all__ = [
    "StudentT",
    "CompoundSymmetryCov",
    "betainc",
    "std_t_cdf",
    "t_cdf",
    "t_sf",
    "t_logpdf",
    "t_sample",
    "cs_mvn_loglik",
    "rng_fork",
]

_CF_MAX_ITER = 400
_CF_EPS = 1e-16
_CF_TINY = 1e-300


@dataclass(frozen=True)
class StudentT:
    """Location-scale Student t.

    ``scale == 0`` is accepted and means the point mass at ``location``
    (the limit of the family as the scale shrinks); ``dof`` must be
    strictly positive.
    """

    location: float
    scale: float
    dof: float

    def __post_init__(self) -> None:
        if not (self.scale >= 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")
        if not (self.dof > 0.0 and math.isfinite(self.dof)):
            raise ValueError(f"dof must be finite and > 0, got {self.dof}")
        if not math.isfinite(self.location):
            raise ValueError(f"location must be finite, got {self.location}")


@dataclass(frozen=True)
class CompoundSymmetryCov:
    """n-by-n covariance ``variance * ((1 - rho) I + rho J)`` with J all ones.

    Positive definiteness requires ``-1/(n-1) < rho < 1`` (any rho in
    (-1, 1) when n == 1). Its eigenstructure is fully explicit: eigenvalue
    ``variance * (1 + (n-1) rho)`` along the constant vector and
    ``variance * (1 - rho)`` with multiplicity n - 1 on its complement,
    which is what makes the O(n) density below possible.
    """

    n: int
    variance: float
    rho: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (self.variance > 0.0 and math.isfinite(self.variance)):
            raise ValueError(f"variance must be finite and > 0, got {self.variance}")
        lo = -1.0 / (self.n - 1) if self.n > 1 else -1.0
        if not (lo < self.rho < 1.0):
            raise ValueError(
                f"rho={self.rho} outside ({lo}, 1) breaks positive definiteness for n={self.n}"
            )

    def dense(self) -> np.ndarray:
        """Materialize the full matrix. Meant for tests and oracles."""
        out = np.full((self.n, self.n), self.variance * self.rho)
        np.fill_diagonal(out, self.variance)
        return out


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _float_or_array(out: np.ndarray) -> float | np.ndarray:
    return float(out) if out.ndim == 0 else out


def _away_from_zero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)


def betainc(a: ArrayLike, b: ArrayLike, x: ArrayLike) -> float | np.ndarray:
    """Regularized incomplete beta function I_x(a, b), elementwise.

    Numerical Recipes continued fraction (modified Lentz scheme) with the
    symmetry split at x = (a+1)/(a+b+2) so the fraction always converges
    quickly. The inputs broadcast against each other; each iteration
    updates only the entries that have not converged yet. All-scalar
    inputs give a float.
    """
    a, b, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, x)))
    if not (np.all(a > 0.0) and np.all(b > 0.0)):
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    out = np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, np.nan))
    inside = (x > 0.0) & (x < 1.0)
    a, b, x = a[inside], b[inside], x[inside]
    front = np.exp(_lgamma(a + b) - _lgamma(a) - _lgamma(b) + a * np.log(x) + b * np.log1p(-x))
    # Past the split, I_x(a, b) = 1 - I_{1-x}(b, a): swap, then one fraction.
    swap = x >= (a + 1.0) / (a + b + 2.0)
    a, b, x = np.where(swap, b, a), np.where(swap, a, b), np.where(swap, 1.0 - x, x)
    denom = a
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _away_from_zero(1.0 - qab * x / qap)
    h = d.copy()
    frac = np.empty_like(x)
    idx = np.arange(x.size)
    for m in range(1, _CF_MAX_ITER + 1):
        if idx.size == 0:
            break
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _away_from_zero(1.0 + aa * d)
        c = _away_from_zero(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _away_from_zero(1.0 + aa * d)
        c = _away_from_zero(1.0 + aa / c)
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _CF_EPS
        if done.any():
            frac[idx[done]] = h[done]
            keep = ~done
            a, b, x, qab, qap, qam, c, d, h, idx = (v[keep] for v in (a, b, x, qab, qap, qam, c, d, h, idx))
    if idx.size:
        raise ArithmeticError(f"incomplete beta did not converge for {idx.size} entries")
    ratio = front * frac / denom
    out[inside] = np.where(swap, 1.0 - ratio, ratio)
    return _float_or_array(out)


def std_t_cdf(z: ArrayLike, dof: ArrayLike) -> float | np.ndarray:
    """CDF of the standard Student t, elementwise; all-scalar inputs give a float.

    The tail mass is computed directly from the incomplete beta and only
    depends on z through z*z, so for z > 0 ``std_t_cdf(-z) == tail`` and
    ``std_t_cdf(z) == 1 - tail`` use the exact same tail value. Callers that
    need exact mirror symmetry (the decision counters) rely on this.
    z = 0 gives exactly 0.5, z = -inf/+inf give 0/1, and NaN stays NaN.
    """
    z, dof = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(dof, dtype=float))
    tail = 0.5 * betainc(0.5 * dof, 0.5, dof / (dof + z * z))
    return _float_or_array(np.where(z < 0.0, tail, 1.0 - tail))


def t_cdf(x: float, dist: StudentT) -> float:
    """P(T <= x) for a location-scale Student t, absolute error below 1e-12.

    A zero scale gives the degenerate step function: 0 left of the
    location, 1 at and right of it.
    """
    if dist.scale == 0.0:
        return 0.0 if x < dist.location else 1.0
    return std_t_cdf((x - dist.location) / dist.scale, dist.dof)


def t_sf(x: float, dist: StudentT) -> float:
    """P(T > x), computed directly rather than as 1 - t_cdf(x).

    For small tails this keeps all the precision, and it mirrors t_cdf
    exactly: t_sf(x) under location m equals t_cdf(-x) under location -m.
    """
    if dist.scale == 0.0:
        return 1.0 if x < dist.location else 0.0
    return std_t_cdf(-((x - dist.location) / dist.scale), dist.dof)


def t_logpdf(x: float, dist: StudentT) -> float:
    """Log density of the location-scale Student t. Requires scale > 0."""
    if dist.scale == 0.0:
        raise ValueError("log density undefined for a point mass (scale == 0)")
    nu = dist.dof
    z = (x - dist.location) / dist.scale
    return (
        math.lgamma(0.5 * (nu + 1.0))
        - math.lgamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi)
        - math.log(dist.scale)
        - 0.5 * (nu + 1.0) * math.log1p(z * z / nu)
    )


def t_sample(
    dist: StudentT, rng: np.random.Generator, size: int | tuple[int, ...] | None = None
) -> float | np.ndarray:
    """Draw from the distribution. Deterministic given the generator state.

    A zero scale returns the location (point mass), still consuming no
    randomness in that case.
    """
    if dist.scale == 0.0:
        if size is None:
            return dist.location
        return np.full(size, dist.location)
    t = rng.standard_t(dist.dof, size=size)
    return dist.location + dist.scale * t


def cs_mvn_loglik(x: np.ndarray, mean: float, cov: CompoundSymmetryCov) -> float:
    """Log density of MVN(mean * 1, cov) at x, evaluated in O(n).

    Splitting x into its projection onto the constant vector and the
    residuals diagonalizes the quadratic form: the mean direction carries
    eigenvalue ``variance * (1 + (n-1) rho)`` and the residuals carry
    ``variance * (1 - rho)``. No n-by-n matrix is ever formed.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d vector, got shape {x.shape}")
    if x.shape[0] != cov.n:
        raise DimensionMismatch(f"vector has length {x.shape[0]}, covariance is {cov.n}-dimensional")
    n = cov.n
    lam_mean = cov.variance * (1.0 + (n - 1) * cov.rho)
    lam_dev = cov.variance * (1.0 - cov.rho)
    xbar = float(x.mean())
    ssdev = float(np.sum((x - xbar) ** 2))
    quad = n * (xbar - mean) ** 2 / lam_mean + ssdev / lam_dev
    logdet = math.log(lam_mean) + (n - 1) * math.log(lam_dev)
    return -0.5 * (n * math.log(2.0 * math.pi) + logdet + quad)


def rng_fork(seed: int, stream_id: int) -> np.random.Generator:
    """Independent, reproducible random stream for (seed, stream_id).

    Streams with different ids never overlap, and the stream for a given
    pair does not depend on how many other streams exist. Both arguments
    must be non-negative integers.
    """
    if seed < 0 or stream_id < 0:
        raise ValueError(f"seed and stream_id must be >= 0, got ({seed}, {stream_id})")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,)))
