"""Numerical kernels used everywhere else.

The Student t CDF, the compound-symmetry quadratic form that the
sampler runs, and reproducible random streams. The t CDF is computed from
scratch (regularized incomplete beta via a continued fraction, evaluated
over whole numpy arrays at once) so the package has no runtime dependency
on a special function library; scipy appears only in the test suite as an
oracle. The quadratic form is written on the sufficient statistics of
``cs_stats``, so it costs O(1) per evaluation and never forms the n-by-n
covariance matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

__all__ = [
    "StudentT",
    "lgamma",
    "betainc",
    "std_t_cdf",
    "t_sample",
    "cs_stats",
    "cs_quad_form",
    "rng_fork",
]

_CF_MAX_ITER = 400
_CF_EPS = 1e-16
_CF_TINY = 1e-300
_NORMAL_DOF = 1e5


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


# Stirling series of log Gamma(y) - ((y - 1/2) log y - y + log(2 pi)/2), in
# powers of 1/y^2 after a first 1/y: B_2k / (2k (2k - 1)) for k = 1..7.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def lgamma(x: ArrayLike) -> np.ndarray:
    """log Gamma(x) elementwise, for 0 < x < 1e50.

    The Stirling series at y = x + 6, less log(x (x+1) ... (x+5)). Against
    ``math.lgamma`` on [0.05, 1e7] its error is below 3e-14 relative to
    max(1, |log Gamma(x)|).
    """
    x = np.asarray(x, dtype=float)
    y = x + 6.0
    r = 1.0 / (y * y)
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * r + c
    # x (x+1) ... (x+5) as u (u + 4) (u + 6), with u = x (x + 5).
    u = x * (x + 5.0)
    shifted = u * (u + 4.0) * (u + 6.0)
    return (y - 0.5) * np.log(y) - y + series / y - np.log(shifted) + _HALF_LOG_2PI


def _away_from_zero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _CF_TINY, _CF_TINY, v)


def betainc(
    a: ArrayLike, b: ArrayLike, x: ArrayLike, complement: ArrayLike | None = None
) -> np.ndarray:
    """Regularized incomplete beta function I_x(a, b), elementwise.

    Numerical Recipes continued fraction (modified Lentz scheme) with the
    symmetry split at x = (a+1)/(a+b+2) so the fraction always converges
    quickly. The inputs broadcast against each other; each iteration
    updates only the entries that have not converged yet, and one whose
    prefactor x^a (1-x)^b / B(a, b) is 0 needs none. ``complement`` is
    1 - x without its rounding near x = 1, for log(1 - x) and the swapped
    fraction. All-scalar inputs give a 0-d array.
    """
    a, b, x = (np.asarray(v, dtype=float) for v in (a, b, x))
    y = 1.0 - x if complement is None else np.asarray(complement, dtype=float)
    if not (np.all(a > 0.0) and np.all(b > 0.0)):
        raise ValueError(f"a and b must be positive, got a={a}, b={b}")
    # log B(a, b) before x broadcasts a and b: std_t_cdf passes both tails
    # of a draw against one a, so each draw's lgamma terms run once.
    log_gammas = lgamma(np.stack(np.broadcast_arrays(a + b, a, b)))
    log_beta = log_gammas[0] - log_gammas[1] - log_gammas[2]
    a, b, x, y, log_beta = np.broadcast_arrays(a, b, x, y, log_beta)
    out = np.where(x <= 0.0, 0.0, np.where(y <= 0.0, 1.0, np.nan))
    inside = (x > 0.0) & (y > 0.0)
    a, b, x, y, log_beta = a[inside], b[inside], x[inside], y[inside], log_beta[inside]
    # log(1 - x): from the complement, or else log1p, exact for small x.
    log_y = np.log1p(-x) if complement is None else np.log(y)
    front = np.exp(log_beta + a * np.log(x) + b * log_y)
    # Past the split, I_x(a, b) = 1 - I_{1-x}(b, a): swap, then one fraction.
    swap = x >= (a + 1.0) / (a + b + 2.0)
    a, b, x = np.where(swap, b, a), np.where(swap, a, b), np.where(swap, y, x)
    denom = a
    frac = np.zeros_like(x)
    idx = np.flatnonzero(front > 0.0)
    a, b, x = a[idx], b[idx], x[idx]
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _away_from_zero(1.0 - qab * x / qap)
    h = d.copy()
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
    return out


def std_t_cdf(z: ArrayLike, dof: ArrayLike) -> np.ndarray:
    """CDF of the standard Student t, elementwise; all-scalar inputs give a 0-d array.

    The tail mass is computed directly from the incomplete beta and only
    depends on z through z*z, so for z > 0 ``std_t_cdf(-z) == tail`` and
    ``std_t_cdf(z) == 1 - tail`` use the exact same tail value. Callers that
    need exact mirror symmetry (the decision counters) rely on this.
    z = 0 gives exactly 0.5, z = -inf/+inf give 0/1, and NaN stays NaN.
    x = dof / (dof + z*z) and 1 - x = z*z / (dof + z*z) are both computed
    directly. From dof = _NORMAL_DOF on, where the log gammas of dof / 2
    and the continued fraction lose digits, the tail is the normal one plus
    its first-order correction phi(z) (|z|^3 + |z|) / (4 dof), within
    1e-10 there.
    """
    z, dof = np.asarray(z, dtype=float), np.asarray(dof, dtype=float)
    # Each entry from _NORMAL_DOF on is replaced below.
    nu = np.minimum(dof, _NORMAL_DOF)
    z2 = z * z
    total = nu + z2
    with np.errstate(invalid="ignore"):
        # z = +-inf: x = 0 decides, and y = inf / inf = NaN is never read.
        y = z2 / total
    tail = betainc(0.5 * nu, 0.5, nu / total, y)
    tail *= 0.5
    normal = np.broadcast_to(dof >= _NORMAL_DOF, tail.shape)
    # Past |z| = 40 both terms below are 0 in double precision; the cap
    # keeps z = +-inf from giving 0 * inf.
    r = np.minimum(np.abs(np.broadcast_to(z, tail.shape)[normal]), 40.0)
    erfc = np.frompyfunc(math.erfc, 1, 1)(r / math.sqrt(2.0)).astype(float)
    density = np.exp(-0.5 * r * r) / math.sqrt(2.0 * math.pi)
    nu = np.broadcast_to(dof, tail.shape)[normal]
    tail[normal] = 0.5 * erfc + density * (r * r * r + r) / (4.0 * nu)
    return np.where(z < 0.0, tail, 1.0 - tail)


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


CsStats = tuple[float, float, float, float, float]


def cs_stats(x: ArrayLike, rho: float) -> CsStats:
    """Sufficient statistics of x under a compound-symmetry normal model.

    Returns (n, mean, sum of squared deviations from the mean,
    1 + (n-1) rho, 1 - rho). The last two are the eigenvalues of the unit
    correlation matrix ``(1 - rho) I + rho J``: along the constant vector,
    and (n - 1 times) on its complement.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    xbar = float(x.mean())
    return (float(n), xbar, float(np.sum((x - xbar) ** 2)), 1.0 + (n - 1) * rho, 1.0 - rho)


def cs_quad_form(stats: CsStats, mean: ArrayLike) -> ArrayLike:
    """Quadratic form of x at ``mean`` under the unit-variance correlation matrix.

    The mean direction carries eigenvalue 1 + (n-1) rho and the residuals
    1 - rho, so the form splits into two terms. Elementwise over array
    statistics and means; divide by the variance for the form under
    ``variance * ((1 - rho) I + rho J)``.
    """
    n, xbar, ss, c1, c2 = stats
    r = xbar - mean
    return n * r * r / c1 + ss / c2


def rng_fork(seed: int, stream_id: int) -> np.random.Generator:
    """Independent, reproducible random stream for (seed, stream_id).

    Streams with different ids never overlap, and the stream for a given
    pair does not depend on how many other streams exist. Both arguments
    must be non-negative integers.
    """
    if seed < 0 or stream_id < 0:
        raise ValueError(f"seed and stream_id must be >= 0, got ({seed}, {stream_id})")
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,)))
