"""Hierarchical model over per-dataset score differences, and its sampler.

The data model: within data set i the paired differences x_i are
multivariate normal with constant mean delta_i and compound-symmetry
covariance (variance sigma_i**2, correlation rho_i). The per-dataset means
are pooled through a Student t population with location delta0, scale
sigma0, and dof nu; each sigma_i has a uniform prior up to a multiple of
the observed spread, delta0 has a wide uniform prior, and nu has a Gamma
prior truncated to nu >= 1.

Inference is adaptive random-walk Metropolis within Gibbs: one update
per parameter per sweep, log-scale proposals (with the Jacobian
correction) for the positive parameters, and Robbins-Monro step-size
adaptation toward 0.44 acceptance during warmup only, so the kept draws
come from a fixed kernel. All chains, and with ``fit_many`` several
problems of the same size, run in lockstep in one process: each sweep
updates delta0, sigma0 and nu of every chain as one array operation,
then every delta_i of every chain at once (they are conditionally
independent given the population parameters), then every sigma_i.

The chain state, the kept draws, each ``PosteriorChains.draws`` and the
chains CSV all hold the parameters as columns of one array, in
``PosteriorChains.parameter_names`` order.

For a single data set the posterior of the mean difference is available
in closed form as a Student t; ``correlated_ttest`` returns it directly.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import ParameterDiagnostics, diagnose
from .errors import TooFewDatasets
from .manifest import write_kv
from .scores import DifferenceSeries
from .statcore import StudentT, cs_quad_form, cs_stats, rng_fork, t_sample

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
    "write_chain_metadata",
    "unconverged",
]

RHAT_THRESHOLD = 1.05

# Relative floors keeping the posterior proper when a series has zero
# sample variance (identical scores in every round, e.g. a system compared
# against itself). The uniform scale priors become Uniform(floor, cap)
# instead of Uniform(0, cap); for any non-degenerate data the posterior
# puts no mass near the floor, so the change is invisible there.
_SIGMA_FLOOR_REL = 1e-6
_ZERO_SPREAD_REL = 1e-3

_ADAPT_TARGET = 0.44


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
    standardize: bool = True
    chains: int = 4
    samples_per_chain: int = 12500
    warmup: int = 2000
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
    CSV does after ``chain,draw``. ``delta0``, ``sigma0``, ``nu`` (chains,
    draws), ``deltas`` and ``sigmas`` (chains, draws, q) and ``draws_of``
    are views of those columns. All values are on the standardized scale;
    multiply locations and scales by ``standardization_constant`` to
    return to raw score differences. ``acceptance`` is each parameter's
    acceptance rate over the kept draws of all chains, ``step_size`` its
    final adapted proposal scale averaged over chains.
    """

    dataset_ids: tuple[str, ...]
    draws: np.ndarray
    standardization_constant: float
    config: ModelConfig
    diagnostics: dict[str, ParameterDiagnostics] = field(default_factory=dict)
    converged: bool = True
    acceptance: dict[str, float] = field(default_factory=dict)
    step_size: dict[str, float] = field(default_factory=dict)

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
    def deltas(self) -> np.ndarray:
        return self.draws[..., 3 : 3 + len(self.dataset_ids)]

    @property
    def sigmas(self) -> np.ndarray:
        return self.draws[..., 3 + len(self.dataset_ids) :]

    @property
    def n_chains(self) -> int:
        return self.draws.shape[0]

    @property
    def draws_per_chain(self) -> int:
        return self.draws.shape[1]

    @property
    def n_draws(self) -> int:
        return self.n_chains * self.draws_per_chain

    def parameter_names(self) -> list[str]:
        names = ["delta0", "sigma0", "nu"]
        names += [f"delta[{d}]" for d in self.dataset_ids]
        names += [f"sigma[{d}]" for d in self.dataset_ids]
        return names

    def draws_of(self, name: str) -> np.ndarray:
        """Draws of one scalar parameter, shape (chains, draws)."""
        names = self.parameter_names()
        if name not in names:
            raise KeyError(f"unknown parameter {name!r}")
        return self.draws[..., names.index(name)]


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
        out.append(
            DifferenceSeries(dataset_id=f"ds{i:0{width}d}", x=x, rho=rho, n=n, m=m, k=k)
        )
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
        raise TooFewDatasets(
            f"the hierarchical model needs at least 2 data sets, got {q}; "
            "use correlated_ttest for a single series"
        )
    ids = tuple(s.dataset_id for s in series)
    if len(set(ids)) != q:
        raise ValueError("dataset ids must be unique")

    raw_stds = [float(s.x.std(ddof=1)) if s.n > 1 else 0.0 for s in series]
    constant = 1.0
    if config.standardize:
        mean_std = sum(raw_stds) / q
        if mean_std > 0.0 and math.isfinite(mean_std):
            constant = mean_std

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
        # with the data under standardization.
        halfwidth=config.delta0_prior_halfwidth / constant,
        pooled_mean=pooled_mean,
        spread=max(spread, 3.0 * sigma0_lo),
    )


def _t_log_norm(nu: np.ndarray) -> np.ndarray:
    """Per lane, lgamma((nu+1)/2) - lgamma(nu/2) - log(nu pi)/2: the log
    normalizing constant of the unit-scale Student t, and the library's
    only t density code. ``_lockstep`` caches the rest of the density.
    """
    values = [
        math.lgamma(0.5 * (v + 1.0)) - math.lgamma(0.5 * v) - 0.5 * math.log(v * math.pi)
        for v in nu.ravel().tolist()
    ]
    return np.array(values).reshape(nu.shape)


# exp(steps * z) is taken for every parameter, though only the scale
# proposals use it; a scale proposal that overflows lands outside its box.
# A uniform variate of exactly 0 has log -inf, which accepts as u < alpha
# would.
@np.errstate(over="ignore", divide="ignore")
def _lockstep(problems: list[_Problem], config: ModelConfig) -> tuple[np.ndarray, ...]:
    """Every chain of every problem, updated together one sweep at a time.

    A lane is one chain of one problem. The chain state is one array of
    shape (3 + 2q, problems, chains) in ``parameter_names`` order: the
    population parameters are its first three rows, each of shape
    (problems, chains), and the per-dataset means and scales its two
    (q, problems, chains) blocks. Per-parameter bookkeeping (steps, log
    acceptance ratios, accepts) has the same shape. Given the
    population parameters the delta_i are conditionally independent, and
    so are the sigma_i, so each block is one Metropolis update over its
    whole array; the sweep order (delta0, sigma0, nu, all delta_i, all
    sigma_i) is the scalar Gibbs order. A proposal is accepted when
    log(u) < log(ratio), the same test as u < min(1, ratio).

    Chain c draws from ``rng_fork(seed, c)``, one standard_normal(3 + 2q)
    then one random(3 + 2q) per sweep. All problems share the seed, so
    lanes with the same chain index use the same variates, and each
    problem's draws do not depend on which other problems run beside it.

    Returns the kept draws (problems, chains, draws, 3 + 2q), then the
    accepts over them and the final log step sizes (3 + 2q, problems, chains).
    """
    chains, warmup, keep = config.chains, config.warmup, config.samples_per_chain
    nu_shape, nu_rate = config.nu_prior
    q = len(problems[0].ids)
    n_params = 3 + 2 * q
    lanes = (len(problems), chains)
    blk_d, blk_s = slice(3, 3 + q), slice(3 + q, n_params)

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

    log_steps = np.empty((n_params,) + lanes)
    log_steps[0] = np.log(spread)
    log_steps[1:3] = math.log(0.5)
    log_steps[3 : 3 + q] = np.log(2.4 * sigmas * np.sqrt(c1s / ns))
    log_steps[3 + q :] = np.log(2.4 / np.sqrt(2.0 * ns))
    steps = np.exp(log_steps)

    kept = np.empty(lanes + (keep, n_params))
    accepted = np.zeros((n_params,) + lanes, dtype=np.int64)

    # Row c of z and u holds chain c's variates of the sweep; their
    # transposes broadcast over the problem axis.
    z = np.empty((chains, n_params))
    u = np.empty((chains, n_params))
    z_t, u_t = z.T[:, None, :], u.T[:, None, :]
    log_u = np.empty((n_params,) + lanes)
    logr = np.empty((n_params,) + lanes)
    accept = np.empty((n_params,) + lanes, dtype=bool)
    two_c1s, minus_n_minus_1 = 2.0 * c1s, -(ns - 1.0)

    # Cached terms of the current state: half = (nu + 1) / 2,
    # inv = 1 / (nu sigma0^2), log_norm = the t log normalizing constant
    # of nu at unit scale, and lt[i] = log1p((delta_i - delta0)^2 inv).
    half = 0.5 * (nu + 1.0)
    inv = 1.0 / (nu * sigma0 * sigma0)
    log_norm = _t_log_norm(nu)
    lt = deltas - delta0
    lt = np.log1p(lt * lt * inv)

    for t in range(1, warmup + keep + 1):
        for rng, z_c, u_c in zip(rngs, z, u):
            rng.standard_normal(out=z_c)
            rng.random(out=u_c)
        dz = steps * z_t
        edz = np.exp(dz)
        np.log(u_t, out=log_u)

        # delta0: flat prior on [-halfwidth, halfwidth]
        prop = delta0 + dz[0]
        r = deltas - prop
        lp = np.log1p(r * r * inv)
        np.multiply(half, (lt - lp).sum(axis=0), out=logr[0])
        ok = _metropolis(logr[0], np.abs(prop) > halfwidth, log_u[0], accept[0])
        np.copyto(delta0, prop, where=ok)
        np.copyto(lt, lp, where=ok)

        # sigma0: uniform prior, log-scale walk with Jacobian
        prop = sigma0 * edz[1]
        inv_p = 1.0 / (nu * prop * prop)
        r2 = deltas - delta0
        r2 *= r2
        lp = np.log1p(r2 * inv_p)
        np.subtract(half * (lt - lp).sum(axis=0), (q - 1) * dz[1], out=logr[1])
        outside = (prop <= sigma0_lo) | (prop >= sigma0_hi)
        ok = _metropolis(logr[1], outside, log_u[1], accept[1])
        np.copyto(sigma0, prop, where=ok)
        np.copyto(inv, inv_p, where=ok)
        np.copyto(lt, lp, where=ok)

        # nu: Gamma(shape, rate) prior truncated at 1, log-scale walk
        prop = nu * edz[2]
        half_p = 0.5 * (prop + 1.0)
        inv_p = 1.0 / (prop * sigma0 * sigma0)
        log_norm_p = _t_log_norm(prop)
        lp = np.log1p(r2 * inv_p)
        np.add(
            q * (log_norm_p - log_norm) - (half_p * lp.sum(axis=0) - half * lt.sum(axis=0)),
            nu_shape * dz[2] - nu_rate * (prop - nu),
            out=logr[2],
        )
        ok = _metropolis(logr[2], prop < 1.0, log_u[2], accept[2])
        np.copyto(nu, prop, where=ok)
        np.copyto(half, half_p, where=ok)
        np.copyto(inv, inv_p, where=ok)
        np.copyto(log_norm, log_norm_p, where=ok)
        np.copyto(lt, lp, where=ok)

        # per-dataset means
        prop = deltas + dz[blk_d]
        rp = means - prop
        rc = means - deltas
        r = prop - delta0
        lp = np.log1p(r * r * inv)
        a_lik = ns / (two_c1s * sigmas * sigmas)
        np.subtract(a_lik * (rc * rc - rp * rp), half * (lp - lt), out=logr[blk_d])
        ok = np.less(log_u[blk_d], logr[blk_d], out=accept[blk_d])
        np.copyto(deltas, prop, where=ok)
        np.copyto(lt, lp, where=ok)

        # per-dataset scales
        prop = sigmas * edz[blk_s]
        a_quad = cs_quad_form(stats, deltas)
        np.subtract(
            minus_n_minus_1 * dz[blk_s],
            0.5 * a_quad * (1.0 / (prop * prop) - 1.0 / (sigmas * sigmas)),
            out=logr[blk_s],
        )
        outside = (prop <= sigma_lo) | (prop >= sigma_hi)
        ok = _metropolis(logr[blk_s], outside, log_u[blk_s], accept[blk_s])
        np.copyto(sigmas, prop, where=ok)

        if t <= warmup:
            # Robbins-Monro step-size adaptation toward _ADAPT_TARGET.
            alpha = np.exp(np.minimum(logr, 0.0))
            log_steps += (t + 20.0) ** -0.6 * (alpha - _ADAPT_TARGET)
            np.exp(log_steps, out=steps)
        else:
            accepted += accept
            kept[..., t - warmup - 1, :] = state.transpose(1, 2, 0)
    return kept, accepted, log_steps


def _metropolis(
    logr: np.ndarray, outside: np.ndarray, log_u: np.ndarray, accept: np.ndarray
) -> np.ndarray:
    """Sets logr to -inf where the proposal left the prior's support, then
    writes ``accept = log_u < logr`` and returns it."""
    np.copyto(logr, -np.inf, where=outside)
    return np.less(log_u, logr, out=accept)


def fit(series: list[DifferenceSeries], config: ModelConfig = ModelConfig()) -> PosteriorChains:
    """Sample the joint posterior for two or more data sets.

    Raises TooFewDatasets for fewer than two series (use correlated_ttest
    there). When standardization is on, all differences are divided by the
    mean per-dataset standard deviation before sampling; the constant is
    recorded on the result.
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
    draws, accepted, log_steps = _lockstep(prepared, config)
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
        rates = accepted[:, b].sum(axis=1) / n_kept
        steps = np.exp(log_steps[:, b]).mean(axis=1)
        post.acceptance = {name: float(a) for name, a in zip(names, rates)}
        post.step_size = {name: float(s) for name, s in zip(names, steps)}
        results.append(post)
    return results


def unconverged(diagnostics: dict[str, ParameterDiagnostics]) -> list[str]:
    """Names of the parameters whose R-hat is undefined or above RHAT_THRESHOLD."""
    return [
        name
        for name, d in diagnostics.items()
        if not (math.isfinite(d.r_hat) and d.r_hat <= RHAT_THRESHOLD)
    ]


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
        header = next(csv.reader([line.decode("utf-8")]), [])
        if header == ["chain", "draw", "parameter", "value"]:
            raise ValueError(
                f"{path}: long-format chains file from an older bayescv; "
                "re-run compare to regenerate it"
            )
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


def write_chain_metadata(post: PosteriorChains, path: str | Path, extra: dict[str, str] | None = None) -> None:
    """Sidecar key=value file describing how the chains were produced."""
    cfg = post.config
    lines: dict[str, str] = {
        "version": __version__,
        "chains": str(post.n_chains),
        "draws_per_chain": str(post.draws_per_chain),
        "warmup": str(cfg.warmup),
        "seed": str(cfg.seed),
        "standardize": str(cfg.standardize).lower(),
        "standardization_constant": repr(post.standardization_constant),
        "sigma_bar_factor": repr(cfg.sigma_bar_factor),
        "delta0_prior_halfwidth": repr(cfg.delta0_prior_halfwidth),
        "nu_prior_shape": repr(cfg.nu_prior[0]),
        "nu_prior_rate": repr(cfg.nu_prior[1]),
        "dataset_ids": json.dumps(list(post.dataset_ids)),
        "converged": str(post.converged).lower(),
    }
    for name, diag in post.diagnostics.items():
        lines[f"r_hat[{name}]"] = repr(float(diag.r_hat))
        lines[f"ess[{name}]"] = repr(float(diag.ess))
    for name, rate in post.acceptance.items():
        lines[f"accept[{name}]"] = repr(rate)
        lines[f"step[{name}]"] = repr(post.step_size[name])
    if extra:
        lines.update(extra)
    write_kv(path, lines)
