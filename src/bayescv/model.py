"""Hierarchical model over per-dataset score differences, and its sampler.

The data model: within data set i the paired differences x_i are
multivariate normal with constant mean delta_i and compound-symmetry
covariance (variance sigma_i**2, correlation rho_i). The per-dataset means
are pooled through a Student t population with location delta0, scale
sigma0, and dof nu; each sigma_i has a uniform prior up to a multiple of
the observed spread, delta0 has a wide uniform prior, and nu has a Gamma
prior truncated to nu >= 1.

Inference is Gibbs sampling on the t population written as a normal
scale mixture: every parameter but nu is drawn from its exact
conditional, and nu takes one adaptive random-walk Metropolis step per
sweep on its marginal target (``_lockstep`` lists the steps). Many short
chains, and with ``fit_many`` several problems of the same size, run in
lockstep in one process: each step updates its parameter in every chain
and problem as one array operation.

The chain state, the kept draws, each ``PosteriorChains.draws`` and the
chains CSV all hold the parameters as columns of one array, in
``PosteriorChains.parameter_names`` order.

For a single data set the posterior of the mean difference is available
in closed form as a Student t; ``correlated_ttest`` returns it directly.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import ParameterDiagnostics, diagnose
from .scores import DifferenceSeries
from .statcore import StudentT, cs_quad_form, cs_stats, lgamma, rng_fork, t_sample

__all__ = [
    "ModelConfig",
    "PosteriorChains",
    "fit",
    "fit_many",
    "generate",
    "correlated_ttest",
    "orientation",
    "write_chains_csv",
    "read_chains_csv",
    "unconverged",
]

# A parameter has converged when its split R-hat is at most RHAT_THRESHOLD
# and its effective sample size at least ESS_THRESHOLD, both defined.
RHAT_THRESHOLD = 1.05
ESS_THRESHOLD = 400.0

# Relative floors keeping the posterior proper when a series has zero
# sample variance (identical scores in every round, e.g. a system compared
# against itself). The uniform scale priors become Uniform(floor, cap)
# instead of Uniform(0, cap); for any non-degenerate data the posterior
# puts no mass near the floor, so the change is invisible there.
_SIGMA_FLOOR_REL = 1e-6
_ZERO_SPREAD_REL = 1e-3


@dataclass(frozen=True)
class ModelConfig:
    """Priors and sampler settings.

    sigma_bar_factor scales the top of each Uniform prior on sigma_i (and
    sigma0) relative to the observed per-dataset spread;
    delta0_prior_halfwidth bounds the flat prior on delta0 in raw score
    units (differences of [0, 1] metrics always fit in [-1, 1], the
    default box); nu_prior is the (shape, rate) of the Gamma prior on nu,
    truncated to nu >= 1.
    """

    sigma_bar_factor: float = 1000.0
    delta0_prior_halfwidth: float = 1.0
    nu_prior: tuple[float, float] = (2.0, 0.1)
    chains: int = 40
    samples_per_chain: int = 1250
    warmup: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        shape, rate = self.nu_prior
        for name, value in (
            ("sigma_bar_factor", self.sigma_bar_factor),
            ("delta0_prior_halfwidth", self.delta0_prior_halfwidth),
            ("nu_prior shape", shape),
            ("nu_prior rate", rate),
        ):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.chains < 2:
            raise ValueError(f"need at least 2 chains for diagnostics, got {self.chains}")
        if self.samples_per_chain < 1000:
            raise ValueError(f"need at least 1000 samples per chain, got {self.samples_per_chain}")
        if self.warmup < 0:
            raise ValueError("warmup cannot be negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class PosteriorChains:
    """Retained draws, shape (chains, draws, 3 + 2q).

    The columns of ``draws`` follow ``parameter_names()``, as the chains
    CSV does after ``chain,draw``; ``delta0``, ``sigma0`` and ``nu``
    (chains, draws) are views of the first three. All values are on the
    standardized scale; multiply locations and scales by
    ``standardization_constant`` to return to raw score differences.
    ``nu_acceptance`` and ``nu_step`` are the acceptance rate of nu's
    Metropolis step over the kept draws of all chains and its final
    adapted proposal scale (on log nu) averaged over chains; every other
    parameter is drawn from its conditional.
    """

    dataset_ids: tuple[str, ...]
    draws: np.ndarray
    standardization_constant: float
    config: ModelConfig
    diagnostics: dict[str, ParameterDiagnostics] = field(default_factory=dict)
    converged: bool = True
    nu_acceptance: float = math.nan
    nu_step: float = math.nan

    @property
    def delta0(self) -> np.ndarray:
        return self.draws[..., 0]

    @property
    def sigma0(self) -> np.ndarray:
        return self.draws[..., 1]

    @property
    def nu(self) -> np.ndarray:
        return self.draws[..., 2]

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def draws_per_chain(self) -> int:
        return self.draws.shape[1]

    def parameter_names(self) -> list[str]:
        names = ["delta0", "sigma0", "nu"]
        names += [f"delta[{d}]" for d in self.dataset_ids]
        names += [f"sigma[{d}]" for d in self.dataset_ids]
        return names


def correlated_ttest(series: DifferenceSeries) -> StudentT:
    """Closed-form posterior of the mean difference for one data set.

    A Student t with n - 1 dof located at the sample mean, with scale
    sqrt((1/n + rho/(1-rho)) * s2), where s2 is the sample variance. The
    rho/(1-rho) term widens the naive 1/n variance to account for
    overlapping training sets, so the posterior does not sharpen
    indefinitely as repetitions are added. A series with zero sample
    variance gives scale 0: the point mass at the mean.
    """
    if series.n < 2:
        raise ValueError(f"need at least 2 paired differences, got {series.n}")
    if not 0.0 <= series.rho < 1.0:
        raise ValueError(f"rho must be in [0, 1) for the t posterior, got {series.rho}")
    n = series.n
    xbar = float(series.x.mean())
    s2 = float(series.x.var(ddof=1))
    scale2 = (1.0 / n + series.rho / (1.0 - series.rho)) * s2
    return StudentT(location=xbar, scale=math.sqrt(scale2), dof=float(n - 1))


def generate(
    q: int,
    m: int,
    k: int,
    delta0: float,
    sigma0: float,
    nu: float,
    rho: float,
    sigma_range: tuple[float, float],
    seed: int,
) -> list[DifferenceSeries]:
    """Draw synthetic difference series from the model itself.

    Per data set: delta_i from the t population (sigma0 == 0 collapses it
    to delta0), sigma_i uniform over sigma_range, then n = m*k correlated
    observations built from the exact eigen-decomposition of the
    compound-symmetry covariance, so no n-by-n factorization is needed.
    """
    if q < 1 or m < 1 or k < 2:
        raise ValueError(f"need q >= 1, m >= 1, k >= 2, got q={q}, m={m}, k={k}")
    lo, hi = sigma_range
    if not (0.0 <= lo <= hi):
        raise ValueError(f"sigma_range must satisfy 0 <= lo <= hi, got {sigma_range}")
    n = m * k
    if not (-1.0 / (n - 1) < rho < 1.0):
        raise ValueError(f"rho={rho} breaks positive definiteness for n={n}")
    rng = rng_fork(seed, 0)
    population = StudentT(location=delta0, scale=sigma0, dof=nu)
    width = max(2, len(str(q - 1)))
    out = []
    for i in range(q):
        delta_i = float(t_sample(population, rng))
        sigma_i = lo if lo == hi else float(rng.uniform(lo, hi))
        z = rng.standard_normal(n)
        zbar = z.mean()
        x = delta_i + sigma_i * (
            math.sqrt(1.0 - rho) * (z - zbar) + math.sqrt(1.0 + (n - 1) * rho) * zbar
        )
        out.append(DifferenceSeries(dataset_id=f"ds{i:0{width}d}", x=x, rho=rho))
    return out


@dataclass(frozen=True)
class _Problem:
    """Constants of one fit: the sufficient statistics and prior bounds.

    Per-dataset tuples run in ``ids`` order. ``stats`` holds each
    series' ``cs_stats`` on the standardized scale, of the data times
    ``sign`` (see ``orientation``). ``pooled_mean`` and
    ``spread`` (the spread of the dataset means, at least 3 * sigma0_lo)
    center and scale the initial delta0 and sigma0.
    """

    ids: tuple[str, ...]
    constant: float
    sign: float
    stats: tuple[tuple[float, float, float, float, float], ...]
    sigma_lo: tuple[float, ...]
    sigma_hi: tuple[float, ...]
    sigma_init: tuple[float, ...]
    sigma0_lo: float
    sigma0_hi: float
    halfwidth: float
    pooled_mean: float
    spread: float


def orientation(series: list[DifferenceSeries]) -> float:
    """-1.0 if the first nonzero difference, in series order, is negative,
    else 1.0: the sign that makes data and its negation the same numbers."""
    first = next((x[0] for x in (s.x[s.x != 0.0] for s in series) if x.size), 0.0)
    return -1.0 if first < 0.0 else 1.0


def _prepare(series: list[DifferenceSeries], config: ModelConfig) -> _Problem:
    """Validate one problem's series and compute its sampler constants."""
    q = len(series)
    if q < 2:
        raise ValueError(
            f"the hierarchical model needs at least 2 data sets, got {q}; "
            "use correlated_ttest for a single series"
        )
    ids = tuple(s.dataset_id for s in series)
    if len(set(ids)) != q:
        raise ValueError("dataset ids must be unique")

    # Every prior bound and start value below is relative to the data's
    # spread, so dividing by this constant changes only the units the
    # draws are stored in.
    raw_stds = [float(s.x.std(ddof=1)) if s.n > 1 else 0.0 for s in series]
    constant = sum(raw_stds) / q
    if not (constant > 0.0 and math.isfinite(constant)):
        constant = 1.0

    sign = orientation(series)
    stats = []
    stds = []
    for s in series:
        # A problem and its negation reach the sampler as the same numbers.
        x = sign * s.x / constant
        stats.append(cs_stats(x, s.rho))
        stds.append(float(x.std(ddof=1)) if s.n > 1 else 0.0)

    positive = [s for s in stds if s > 0.0]
    if positive:
        scale_ref = sum(positive) / len(positive)
    else:
        scale_ref = max((abs(st[1]) for st in stats), default=0.0) or 1.0
    s_eff = [s if s > 0.0 else _ZERO_SPREAD_REL * scale_ref for s in stds]
    sigma_lo = tuple(_SIGMA_FLOOR_REL * s for s in s_eff)
    pooled = sum(s_eff) / q
    sigma0_lo = _SIGMA_FLOOR_REL * pooled
    means = [st[1] for st in stats]
    pooled_mean = sum(means) / q
    spread = math.sqrt(sum((mu - pooled_mean) ** 2 for mu in means) / max(q - 1, 1))
    return _Problem(
        ids=ids,
        constant=constant,
        sign=sign,
        stats=tuple(stats),
        sigma_lo=sigma_lo,
        sigma_hi=tuple(config.sigma_bar_factor * s for s in s_eff),
        sigma_init=tuple(
            stds[i] if stds[i] > 0.0 else 3.0 * sigma_lo[i] for i in range(q)
        ),
        sigma0_lo=sigma0_lo,
        sigma0_hi=config.sigma_bar_factor * pooled,
        # The delta0 box prior is meant in raw score units (differences of
        # [0, 1] metrics can never leave [-1, 1]), so it shrinks together
        # with the data.
        halfwidth=config.delta0_prior_halfwidth / constant,
        pooled_mean=pooled_mean,
        spread=max(spread, 3.0 * sigma0_lo),
    )


def _t_log_norm(half: np.ndarray) -> np.ndarray:
    """lgamma(half) - lgamma(half - 1/2) - log(nu pi)/2 with nu = 2 half - 1:
    the log normalizing constant of the unit-scale t with nu dof."""
    logs = lgamma(np.stack([half, half - 0.5]))
    return logs[0] - logs[1] - 0.5 * np.log((2.0 * half - 1.0) * math.pi)


def _draw_gamma(
    out: np.ndarray,
    d: np.ndarray,
    c: np.ndarray,
    z: np.ndarray,
    test: np.ndarray,
    rate: np.ndarray,
    box: tuple[np.ndarray, np.ndarray] | None = None,
    boost: np.ndarray | None = None,
) -> np.ndarray:
    """Gamma(d + 1/3, rate) by Marsaglia & Tsang (2000), one candidate per
    row of ``z``: v = (1 + c z)^3, c = 1/sqrt(9 d), passes when ``test``
    (log u - z^2/2) is below d (1 - v + log v); v <= 0 fails, as log v is
    NaN or -inf. Writes into ``out`` the first candidate d v boost / rate
    that passes and lies in ``box``, and returns where none did."""
    v = 1.0 + c * z
    v = v * v * v
    ok = test < d * (1.0 - v + np.log(v))
    cand = d * v / rate if boost is None else d * v * boost / rate
    if box is not None:
        ok &= (cand >= box[0]) & (cand <= box[1])
    for k in range(len(cand) - 1, -1, -1):
        np.copyto(out, cand[k], where=ok[k])
    return ~ok.any(axis=0)


def _layout(**shapes: tuple[int, ...]) -> tuple[dict, int]:
    """Consecutive (slice, shape) of a sweep's variates by name, and their count."""
    out, at = {}, 0
    for name, rows in shapes.items():
        out[name] = (slice(at, at + math.prod(rows)), rows)
        at += math.prod(rows)
    return out, at


# Marsaglia-Tsang candidates per gamma draw; the bytes of variates that
# all chains hold at once.
_CANDIDATES = 3
_VARIATE_BYTES = 2**21
_ADAPT_TARGET = 0.44


# Failed candidates may overflow, divide by zero or take the log of a
# negative number; none of them is kept.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _lockstep(problems: list[_Problem], config: ModelConfig) -> tuple[np.ndarray, ...]:
    """Every chain of every problem, updated together one sweep at a time.

    A lane is one chain of one problem. The chain state is one array of
    shape (3 + 2q, problems, chains) in ``parameter_names`` order. With
    the t population as a scale mixture, delta_i ~ N(delta0, sigma0^2 /
    lambda_i) and lambda_i ~ Gamma(nu/2, rate nu/2), each sweep runs over
    all lanes at once:

    1. nu: a log-scale random walk on the t target, lambda integrated out,
       its step adapted (Robbins-Monro, toward 0.44) during warmup only;
    2. lambda_i | the new nu: Gamma((nu+1)/2, rate (nu + r_i^2)/2), with
       r_i = (delta_i - delta0)/sigma0 (with step 1, one partially
       collapsed step, van Dyk & Park 2008);
    3. delta_i and 4. delta0: normal;
    5. sigma_i^-2 ~ Gamma((n_i-1)/2, rate A_i/2), A_i the quadratic form at
       delta_i, and sigma0^-2 ~ Gamma((q-1)/2, rate sum lambda_i
       (delta_i-delta0)^2/2), truncated to their boxes, in one call;
    6. ASIS (Yu & Meng 2011): with eta = (delta - delta0)/sigma0 fixed,
       delta0, then sigma0 with its sign free (the data cannot tell
       (sigma0, eta) from (-sigma0, -eta)), and delta = delta0 + sigma0 eta.

    A normal draw outside its box keeps the current value: an independence
    Metropolis step from the untruncated conditional. A gamma draw takes
    the first of ``_CANDIDATES`` candidates that passes and lies in its box
    (shape a < 1: Gamma(a + 1) U^(1/a)). If none does, a truncated draw
    takes one independence Metropolis step from the power law tau^(a-1) on
    its box, accepted with probability exp(-rate (tau' - tau)), and a
    lambda draw keeps its value (about 1e-4 of them): a mixture of the
    exact draw and the identity, with a weight that does not depend on
    lambda, leaves the target exact (Tierney 1994).

    Chain c draws from ``rng_fork(seed, c)`` a fixed number of variates
    per sweep, in blocks of sweeps. All problems share the seed, so lanes
    with the same chain index use the same variates, and no problem's
    draws depend on the others in its batch.

    Returns the kept draws (problems, chains, draws, 3 + 2q), the accepted
    nu proposals over them and the final log nu step sizes, (problems,
    chains) each.
    """
    chains, warmup, keep = config.chains, config.warmup, config.samples_per_chain
    nu_shape, nu_rate = config.nu_prior
    q = len(problems[0].ids)
    n_params = 3 + 2 * q
    lanes = (len(problems), chains)
    blk_d, blk_s = slice(3, 3 + q), slice(3 + q, n_params)
    n_cand = _CANDIDATES

    def spread_over_lanes(values: list) -> np.ndarray:
        """Per-problem scalars to (problems, chains); per-problem q-vectors
        to (q, problems, chains)."""
        a = np.asarray(values, dtype=float)
        a = a[:, None] if a.ndim == 1 else a.T[:, :, None]
        return np.broadcast_to(a, a.shape[:-1] + (chains,)).copy()

    stats = tuple(
        spread_over_lanes([[s[j] for s in p.stats] for p in problems]) for j in range(5)
    )
    ns, means, _, c1s, _ = stats
    sigma_lo, sigma_hi, sigma_init, sigma0_lo, sigma0_hi, halfwidth, pooled_mean, spread = (
        spread_over_lanes([getattr(p, name) for p in problems])
        for name in (
            "sigma_lo", "sigma_hi", "sigma_init", "sigma0_lo", "sigma0_hi",
            "halfwidth", "pooled_mean", "spread",
        )
    )

    # Initialize at data-informed values with mild per-chain jitter, so
    # chains start overdispersed but never far from the posterior bulk
    # (important for degenerate series whose scales sit at the floor).
    rngs = [rng_fork(config.seed, c) for c in range(chains)]
    z0 = np.array([rng.standard_normal(2 * q + 2) for rng in rngs]).T
    nu0 = np.array([rng.uniform(math.log(2.0), math.log(10.0)) for rng in rngs])
    # Every block update below writes its rows of the state in place.
    state = np.empty((n_params,) + lanes)
    delta0, sigma0, nu, deltas, sigmas = state[0], state[1], state[2], state[blk_d], state[blk_s]
    deltas[...] = means + 0.3 * sigma_init / np.sqrt(ns) * z0[:q, None, :]
    sigmas[...] = np.minimum(
        np.maximum(sigma_init * np.exp(0.3 * z0[q : 2 * q, None, :]), sigma_lo * 1.001),
        sigma_hi * 0.999,
    )
    delta0[...] = np.clip(pooled_mean + 0.3 * spread * z0[2 * q], -halfwidth, halfwidth)
    sigma0[...] = np.clip(
        spread * np.exp(0.3 * z0[2 * q + 1]), sigma0_lo * 1.001, sigma0_hi * 0.999
    )
    nu[...] = np.exp(nu0)

    # Step 5's precisions, sigma_i^-2 in rows 0..q-1 and sigma0^-2 in row
    # q, with their shapes, boxes and Marsaglia-Tsang constants, and the
    # power law's log upper end and exp(-a log(hi/lo)) - 1.
    tau = np.concatenate([sigmas, sigma0[None]]) ** -2
    shape = np.concatenate([0.5 * (ns - 1.0), np.full((1,) + lanes, 0.5 * (q - 1.0))])
    box = (np.concatenate([sigma_hi, sigma0_hi[None]]) ** -2,
           np.concatenate([sigma_lo, sigma0_lo[None]]) ** -2)
    boosted = shape < 1.0
    inv_shape = np.where(boosted, 1.0 / shape, 0.0) if boosted.any() else None
    d_tau = shape + boosted - 1.0 / 3.0
    c_tau = (9.0 * d_tau) ** -0.5
    power = np.maximum(shape, 1e-300)
    log_hi = np.log(box[1])
    power_span = np.expm1(-power * (log_hi - np.log(box[0])))
    rates = np.empty_like(tau)
    lam = np.ones_like(deltas)
    w_unit = ns / c1s

    half = 0.5 * (nu + 1.0)
    log_norm = _t_log_norm(half)
    log_step = np.full(lanes, math.log(0.5))
    step = np.exp(log_step)
    accepted = np.zeros(lanes, dtype=np.int64)
    kept = np.empty(lanes + (keep, n_params))

    # A sweep's variates by use: normals; logs of uniforms (negated
    # standard exponentials) for the Metropolis and Marsaglia-Tsang tests;
    # uniforms. Each chain draws a block of sweeps at a time as (chains,
    # sweeps, count), read as (sweeps, count, chains); both copies of all
    # three take at most _VARIATE_BYTES.
    layouts = {
        "standard_normal": _layout(
            nu=(), lam=(n_cand, q), delta=(q,), delta0=(), tau=(n_cand, q + 1), asis=(2,)
        ),
        "standard_exponential": _layout(
            nu=(), lam=(n_cand, q), tau=(n_cand, q + 1), accept=(q + 1,)
        ),
        "random": _layout(boost=(n_cand, q + 1), proposal=(q + 1,)),
    }
    block = max(1, _VARIATE_BYTES // (16 * chains * sum(n for _, n in layouts.values())))
    drawn = {kind: np.empty((chains, block, n)) for kind, (_, n) in layouts.items()}
    blocks = {kind: np.empty((block, n, chains)) for kind, (_, n) in layouts.items()}

    for t in range(1, warmup + keep + 1):
        j = (t - 1) % block
        if j == 0:
            for kind, out in drawn.items():
                for rng, out_c in zip(rngs, out):
                    getattr(rng, kind)(out=out_c)
                np.copyto(blocks[kind], out.transpose(1, 2, 0))
            z_block, log_u_block = blocks["standard_normal"], blocks["standard_exponential"]
            np.negative(log_u_block, out=log_u_block)
            for name in ("lam", "tau"):
                z_at = layouts["standard_normal"][0][name][0]
                log_u_at = layouts["standard_exponential"][0][name][0]
                log_u_block[:, log_u_at] -= 0.5 * np.square(z_block[:, z_at])
        # Pieces of shape (rows..., 1, chains) broadcast over problems.
        z, log_u, u = (
            {k: blocks[kind][j, at].reshape(rows + (1, chains)) for k, (at, rows) in layout.items()}
            for kind, (layout, _) in layouts.items()
        )

        # 1. nu.
        offset = deltas - delta0
        r2 = offset * offset * tau[q]
        dz = step * z["nu"]
        prop = nu * np.exp(dz)
        half_p = 0.5 * prop + 0.5
        log_norm_p = _t_log_norm(half_p)
        logr = (
            q * (log_norm_p - log_norm)
            - (half_p * np.log1p(r2 / prop).sum(axis=0) - half * np.log1p(r2 / nu).sum(axis=0))
            + nu_shape * dz
            - nu_rate * (prop - nu)
        )
        np.copyto(logr, -np.inf, where=prop < 1.0)
        ok = log_u["nu"] < logr
        for current, new in ((nu, prop), (half, half_p), (log_norm, log_norm_p)):
            np.copyto(current, new, where=ok)
        if t <= warmup:
            log_step += (t + 20.0) ** -0.6 * (np.exp(np.minimum(logr, 0.0)) - _ADAPT_TARGET)
            np.exp(log_step, out=step)
        else:
            accepted += ok

        # 2. lambda.
        d = half - 1.0 / 3.0
        _draw_gamma(lam, d, (9.0 * d) ** -0.5, z["lam"], log_u["lam"], 0.5 * (nu + r2))

        # 3. delta_i.
        w = w_unit * tau[:q]
        pull = lam * tau[q]
        prec = w + pull
        deltas[...] = (w * means + pull * delta0 + np.sqrt(prec) * z["delta"]) / prec

        # 4. delta0.
        lam_sum = lam.sum(axis=0)
        prop = (lam * deltas).sum(axis=0) / lam_sum + z["delta0"] / np.sqrt(lam_sum * tau[q])
        np.copyto(delta0, prop, where=np.abs(prop) <= halfwidth)

        # 5. sigma_i^-2 and sigma0^-2.
        offset = deltas - delta0
        np.sum(lam * offset * offset, axis=0, out=rates[q])
        rates[:q] = cs_quad_form(stats, deltas)
        rates *= 0.5
        boost = None if inv_shape is None else u["boost"] ** inv_shape
        missed = _draw_gamma(tau, d_tau, c_tau, z["tau"], log_u["tau"], rates, box, boost)
        if missed.any():
            # The power-law step, elementwise on the missed entries only.
            current, u_prop, log_u_accept = (
                np.broadcast_to(v, tau.shape)[missed] for v in (tau, u["proposal"], log_u["accept"])
            )
            prop = np.exp(log_hi[missed] + np.log1p(u_prop * power_span[missed]) / power[missed])
            accept = log_u_accept < rates[missed] * (current - prop)
            tau[missed] = np.where(accept, prop, current)
        sigmas[...] = tau[:q] ** -0.5
        sigma0[...] = tau[q] ** -0.5

        # 6. ASIS: delta0, then the signed sigma0, given eta.
        w = w_unit * tau[:q]
        w_sum = w.sum(axis=0)
        prop = (w * (means - offset)).sum(axis=0) / w_sum + z["asis"][0] * w_sum**-0.5
        np.copyto(delta0, prop, where=np.abs(prop) <= halfwidth)
        eta = offset / sigma0
        w_eta = w * eta
        prec = (w_eta * eta).sum(axis=0)
        prop = ((w_eta * (means - delta0)).sum(axis=0) + np.sqrt(prec) * z["asis"][1]) / prec
        scale = np.abs(prop)
        prop = np.where((scale > sigma0_lo) & (scale < sigma0_hi), prop, sigma0)
        deltas[...] = delta0 + prop * eta
        np.abs(prop, out=sigma0)
        tau[q] = prop**-2

        if t > warmup:
            kept[..., t - warmup - 1, :] = state.transpose(1, 2, 0)
    return kept, accepted, log_step


def fit(series: list[DifferenceSeries], config: ModelConfig = ModelConfig()) -> PosteriorChains:
    """Sample the joint posterior for two or more data sets.

    Raises ValueError for fewer than two series (use correlated_ttest
    there). All differences are divided by the mean per-dataset standard
    deviation (1.0 when that is 0 or not finite) before sampling; the
    constant is recorded on the result.
    """
    return fit_many([series], config)[0]


def fit_many(
    problems: list[list[DifferenceSeries]], config: ModelConfig = ModelConfig()
) -> list[PosteriorChains]:
    """``fit`` for several problems at once, all chains in one lockstep kernel.

    Every problem must have the same number of data sets. Each result is
    the one ``fit`` gives for that problem alone, bit for bit, and a
    problem's negation gives exactly negated location draws (delta0 and
    every delta_i) and equal scale draws. The results' ``draws`` are
    views into one array of the whole batch, so its memory is freed when
    the last of them is.
    """
    prepared = [_prepare(series, config) for series in problems]
    sizes = sorted({len(p.ids) for p in prepared})
    if len(sizes) > 1:
        raise ValueError(f"fit_many needs problems with equal numbers of data sets, got {sizes}")
    if not prepared:
        return []
    draws, accepted, log_step = _lockstep(prepared, config)
    n_kept = config.chains * config.samples_per_chain
    results = []
    for b, problem in enumerate(prepared):
        if problem.sign < 0.0:
            # Back to the data's orientation, in place: delta0, then every delta_i.
            draws[b][..., 0] *= -1.0
            draws[b][..., 3 : 3 + sizes[0]] *= -1.0
        post = PosteriorChains(
            dataset_ids=problem.ids,
            draws=draws[b],
            standardization_constant=problem.constant,
            config=config,
        )
        names = post.parameter_names()
        post.diagnostics = {name: diagnose(post.draws[..., j]) for j, name in enumerate(names)}
        post.converged = not unconverged(post.diagnostics)
        post.nu_acceptance = float(accepted[b].sum() / n_kept)
        post.nu_step = float(np.exp(log_step[b]).mean())
        results.append(post)
    return results


def unconverged(diagnostics: dict[str, ParameterDiagnostics]) -> dict[str, list[str]]:
    """The parameters that fail a convergence rule, each with the rules it
    fails: "R-hat" when its R-hat is undefined or above RHAT_THRESHOLD, and
    "ESS" when its effective sample size is undefined or below
    ESS_THRESHOLD."""
    failed = {}
    for name, d in diagnostics.items():
        rules = [] if math.isfinite(d.r_hat) and d.r_hat <= RHAT_THRESHOLD else ["R-hat"]
        rules += [] if math.isfinite(d.ess) and d.ess >= ESS_THRESHOLD else ["ESS"]
        if rules:
            failed[name] = rules
    return failed


def write_chains_csv(post: PosteriorChains, path: str | Path, manifest: str | None = None) -> None:
    """Wide dump: one row per (chain, draw), one column per parameter.

    The header is ``chain,draw`` followed by ``post.parameter_names()``;
    rows run chain-major. Values are written with ``%.17g``, which
    round-trips every float64 exactly. Rows are formatted one chain at a
    time, so the largest temporary table holds one chain's draws.
    """
    names = post.parameter_names()
    table = np.empty((post.draws_per_chain, 2 + len(names)))
    table[:, 1] = np.arange(post.draws_per_chain)
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        if manifest is not None:
            handle.write(f"# manifest: {manifest}\n")
        csv.writer(handle, lineterminator="\n").writerow(["chain", "draw", *names])
        for c, block in enumerate(post.draws):
            table[:, 0] = c
            table[:, 2:] = block
            np.savetxt(handle, table, fmt="%.17g", delimiter=",")


def read_chains_csv(
    path: str | Path, names: Sequence[str] | None = None
) -> dict[str, np.ndarray]:
    """Inverse of write_chains_csv: parameter name -> (chains, draws) array.

    Rejects ragged or non-numeric rows, duplicate columns, a file that
    does not end in a newline (cut mid-row), and chain/draw columns that
    are not the complete chain-major grid (missing or reordered rows).

    With ``names``, only the chain and draw columns and those parameters
    are parsed, and only those parameters are returned, in that order; a
    name the header lacks is rejected. Cells of the other columns are
    never read, so damage there goes unseen: check the file's bytes first,
    as ``plot`` does against the digest in the sidecar.
    """
    path = Path(path)
    with path.open("rb") as handle:
        size = handle.seek(0, os.SEEK_END)
        handle.seek(max(size - 1, 0))
        if handle.read(1) != b"\n":
            raise ValueError(f"{path}: file does not end with a newline (truncated?)")
        handle.seek(0)
        line = handle.readline()
        while line.startswith(b"#"):
            line = handle.readline()
        try:
            header = next(csv.reader([line.decode("utf-8")]), [])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        params = header[2:]
        if header[:2] != ["chain", "draw"] or not params:
            raise ValueError(f"{path}: expected header chain,draw,<parameters>, got {header}")
        if len(set(params)) != len(params):
            raise ValueError(f"{path}: duplicate parameter columns in the header")
        for name in names or ():
            if name not in params:
                raise ValueError(f"{path}: missing draws for {name!r}")
        if handle.tell() == size:
            raise ValueError(f"{path}: no draws found")
        usecols = None if names is None else [0, 1] + [header.index(n) for n in names]
        try:
            table = np.loadtxt(handle, delimiter=",", ndmin=2, encoding="utf-8", usecols=usecols)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if names is None and table.shape[1] != len(header):
        raise ValueError(f"{path}: expected {len(header)} columns, got {table.shape[1]}")
    rows = table.shape[0]
    chains = int(np.count_nonzero(table[:, 1] == 0))
    draws = rows // chains if chains else 0
    if (
        chains * draws != rows
        or not np.array_equal(table[:, 0], np.repeat(np.arange(chains), draws))
        or not np.array_equal(table[:, 1], np.tile(np.arange(draws), chains))
    ):
        raise ValueError(
            f"{path}: chain and draw columns are not a complete chain-major grid "
            "(missing or reordered rows)"
        )
    columns = params if names is None else names
    return {name: table[:, j].reshape(chains, draws) for j, name in enumerate(columns, start=2)}

