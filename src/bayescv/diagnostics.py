"""Convergence diagnostics for scalar MCMC parameters.

Split R-hat (each chain halved before the between/within comparison) and
a combined-chain effective sample size built from FFT autocorrelations
with Geyer's initial-positive-sequence truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ParameterDiagnostics", "diagnose"]


@dataclass(frozen=True)
class ParameterDiagnostics:
    r_hat: float
    ess: float


def _split_halves(chains: np.ndarray) -> np.ndarray:
    """(n_chains, n_draws) -> (2 * n_chains, n_draws // 2), dropping an odd draw."""
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2:
        raise ValueError(f"expected (n_chains, n_draws), got shape {chains.shape}")
    n = (chains.shape[1] // 2) * 2
    if n < 4:
        raise ValueError("need at least 4 draws per chain")
    half = n // 2
    return np.vstack([chains[:, :half], chains[:, half:n]])


def _r_hat(split: np.ndarray) -> float:
    """Potential scale reduction over the split chains.

    Values near 1 indicate the chains agree; NaN is returned when the
    draws are constant, where the statistic is undefined.
    """
    n = split.shape[1]
    chain_means = split.mean(axis=1)
    chain_vars = split.var(axis=1, ddof=1)
    within = chain_vars.mean()
    between = n * chain_means.var(ddof=1)
    if within == 0.0:
        return math.nan
    var_hat = (n - 1) / n * within + between / n
    return math.sqrt(var_hat / within)


# Chains per FFT call: fewer calls for many short chains, and a bounded
# temporary for long ones.
_FFT_ROWS = 8


def _autocovariance(split: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each chain (row) for all lags, via FFT."""
    m, n = split.shape
    size = 2 ** math.ceil(math.log2(2 * n))
    acov = np.empty((m, n))
    for start in range(0, m, _FFT_ROWS):
        rows = split[start : start + _FFT_ROWS]
        freq = np.fft.rfft(rows - rows.mean(axis=1, keepdims=True), n=size, axis=1)
        acov[start : start + _FFT_ROWS] = np.fft.irfft(freq * np.conj(freq), n=size, axis=1)[:, :n]
    return acov / n


def _ess(split: np.ndarray) -> float:
    """Effective sample size of the pooled split chains.

    Per-chain autocovariances are combined into a multi-chain
    autocorrelation; lag sums use Geyer's initial positive sequence made
    monotone, and the result is capped at the actual draw count. Constant
    chains give NaN.
    """
    m, n = split.shape
    acov = _autocovariance(split)
    chain_vars = acov[:, 0] * n / (n - 1)
    within = chain_vars.mean()
    between = n * split.mean(axis=1).var(ddof=1) if m > 1 else 0.0
    var_hat = (n - 1) / n * within + between / n
    if var_hat == 0.0 or not math.isfinite(var_hat):
        return math.nan
    rho = 1.0 - (within - acov.mean(axis=0)) / var_hat
    rho[0] = 1.0
    # Sum autocorrelations in (even, odd) pairs up to the first pair sum
    # that is not positive, forcing the sequence to be non-increasing; the
    # cumulative sum adds left to right, as a loop would.
    pairs = rho[0 : 2 * (n // 2) : 2] + rho[1 : 2 * (n // 2) : 2]
    stop = np.flatnonzero(pairs <= 0.0)
    pairs = np.minimum.accumulate(pairs[: stop[0] if stop.size else None])
    tau = float(np.cumsum(pairs)[-1]) if pairs.size else 0.0
    tau = max(2.0 * tau - 1.0, 1.0 / math.log10(m * n + 10.0))
    return min(m * n / tau, float(m * n))


def diagnose(chains: np.ndarray) -> ParameterDiagnostics:
    """Split R-hat and effective sample size of (n_chains, n_draws) draws.

    Each chain is halved once, dropping an odd last draw; at least 4
    draws per chain are needed.
    """
    split = _split_halves(chains)
    return ParameterDiagnostics(r_hat=_r_hat(split), ess=_ess(split))
