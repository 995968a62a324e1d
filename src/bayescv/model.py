"""Hierarchical model over per-dataset score differences, and its sampler.

The data model: within data set i the paired differences x_i are
multivariate normal with constant mean delta_i and compound-symmetry
covariance (variance sigma_i**2, correlation rho_i). The per-dataset means
are pooled through a Student t population with location delta0, scale
sigma0, and dof nu; each sigma_i has a uniform prior up to a multiple of
the observed spread, delta0 has a wide uniform prior, and nu has a Gamma
prior truncated to nu >= 1.

Inference is adaptive random-walk Metropolis within Gibbs: one scalar
update per parameter per sweep, log-scale proposals (with the Jacobian
correction) for the positive parameters, and Robbins-Monro step-size
adaptation toward 0.44 acceptance during warmup only, so the kept draws
come from a fixed kernel.

For a single data set the posterior of the mean difference is available
in closed form as a Student t; ``correlated_ttest`` returns it directly.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import ParameterDiagnostics, diagnose
from .errors import TooFewDatasets
from .manifest import write_kv
from .scores import DifferenceSeries
from .statcore import StudentT, rng_fork, t_sample

__all__ = [
    "ModelConfig",
    "PosteriorChains",
    "TTestPosterior",
    "fit",
    "generate",
    "correlated_ttest",
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
        if self.sigma_bar_factor <= 0:
            raise ValueError("sigma_bar_factor must be positive")
        if self.delta0_prior_halfwidth <= 0:
            raise ValueError("delta0_prior_halfwidth must be positive")
        shape, rate = self.nu_prior
        if shape <= 0 or rate <= 0:
            raise ValueError("nu_prior shape and rate must be positive")
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
    """Retained draws, one row per chain.

    Scalar parameters have shape (chains, draws); the per-dataset blocks
    have shape (chains, draws, q) in ``dataset_ids`` order. All values are
    on the standardized scale; multiply locations and scales by
    ``standardization_constant`` to return to raw score differences.
    """

    dataset_ids: tuple[str, ...]
    delta0: np.ndarray
    sigma0: np.ndarray
    nu: np.ndarray
    deltas: np.ndarray
    sigmas: np.ndarray
    standardization_constant: float
    config: ModelConfig
    diagnostics: dict[str, ParameterDiagnostics] = field(default_factory=dict)
    converged: bool = True

    @property
    def n_chains(self) -> int:
        return self.delta0.shape[0]

    @property
    def draws_per_chain(self) -> int:
        return self.delta0.shape[1]

    @property
    def n_draws(self) -> int:
        return self.delta0.size

    def parameter_names(self) -> list[str]:
        names = ["delta0", "sigma0", "nu"]
        names += [f"delta[{d}]" for d in self.dataset_ids]
        names += [f"sigma[{d}]" for d in self.dataset_ids]
        return names

    def draws_of(self, name: str) -> np.ndarray:
        """Draws of one scalar parameter, shape (chains, draws)."""
        if name == "delta0":
            return self.delta0
        if name == "sigma0":
            return self.sigma0
        if name == "nu":
            return self.nu
        for prefix, block in (("delta[", self.deltas), ("sigma[", self.sigmas)):
            if name.startswith(prefix) and name.endswith("]"):
                dataset = name[len(prefix) : -1]
                if dataset in self.dataset_ids:
                    return block[:, :, self.dataset_ids.index(dataset)]
        raise KeyError(f"unknown parameter {name!r}")


@dataclass(frozen=True)
class TTestPosterior:
    """Closed-form posterior of the mean difference for one data set.

    A Student t with n - 1 dof located at the sample mean, with scale
    sqrt((1/n + rho/(1-rho)) * s2). ``degenerate`` marks the zero-variance
    case where the posterior collapses to a point mass at the mean.
    """

    location: float
    scale: float
    dof: float

    @property
    def degenerate(self) -> bool:
        return self.scale == 0.0

    def as_student_t(self) -> StudentT:
        return StudentT(location=self.location, scale=self.scale, dof=self.dof)


def correlated_ttest(series: DifferenceSeries) -> TTestPosterior:
    """Posterior of the mean difference under the correlation-adjusted model.

    The adjustment widens the naive 1/n variance by rho/(1-rho) to account
    for overlapping training sets, so the posterior does not sharpen
    indefinitely as repetitions are added.
    """
    if series.n < 2:
        raise ValueError(f"need at least 2 paired differences, got {series.n}")
    if not 0.0 <= series.rho < 1.0:
        raise ValueError(f"rho must be in [0, 1) for the t posterior, got {series.rho}")
    n = series.n
    xbar = float(series.x.mean())
    s2 = float(series.x.var(ddof=1))
    scale2 = (1.0 / n + series.rho / (1.0 - series.rho)) * s2
    return TTestPosterior(location=xbar, scale=math.sqrt(scale2), dof=float(n - 1))


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


def _t_sum(deltas: list[float], d0: float, s0: float, nu: float) -> float:
    """Sum of t log densities of the per-dataset means under the population."""
    half = 0.5 * (nu + 1.0)
    const = (
        math.lgamma(half)
        - math.lgamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi)
        - math.log(s0)
    )
    inv = 1.0 / (nu * s0 * s0)
    total = len(deltas) * const
    for d in deltas:
        r = d - d0
        total -= half * math.log1p(r * r * inv)
    return total


def _run_chain(
    chain_index: int,
    seed: int,
    warmup: int,
    keep: int,
    stats: tuple[tuple[float, float, float, float, float], ...],
    sigma_lo: tuple[float, ...],
    sigma_hi: tuple[float, ...],
    sigma_init: tuple[float, ...],
    sigma0_lo: float,
    sigma0_hi: float,
    halfwidth: float,
    nu_shape: float,
    nu_rate: float,
) -> dict[str, np.ndarray]:
    """One chain of the Metropolis-within-Gibbs sampler. Picklable on purpose."""
    rng = rng_fork(seed, chain_index)
    q = len(stats)
    ns = [s[0] for s in stats]
    means = [s[1] for s in stats]
    ssdevs = [s[2] for s in stats]
    c1s = [s[3] for s in stats]
    c2s = [s[4] for s in stats]

    # Initialize at data-informed values with mild per-chain jitter, so
    # chains start overdispersed but never far from the posterior bulk
    # (important for degenerate series whose scales sit at the floor).
    deltas = [
        means[i] + 0.3 * sigma_init[i] / math.sqrt(ns[i]) * rng.standard_normal()
        for i in range(q)
    ]
    sigmas = [
        min(max(sigma_init[i] * math.exp(0.3 * rng.standard_normal()), sigma_lo[i] * 1.001),
            sigma_hi[i] * 0.999)
        for i in range(q)
    ]
    pooled_mean = sum(means) / q
    spread = math.sqrt(sum((mu - pooled_mean) ** 2 for mu in means) / max(q - 1, 1))
    delta0 = pooled_mean + 0.3 * max(spread, 3.0 * sigma0_lo) * rng.standard_normal()
    delta0 = min(max(delta0, -halfwidth), halfwidth)
    sigma0 = max(spread, 3.0 * sigma0_lo) * math.exp(0.3 * rng.standard_normal())
    sigma0 = min(max(sigma0, sigma0_lo * 1.001), sigma0_hi * 0.999)
    nu = math.exp(rng.uniform(math.log(2.0), math.log(10.0)))

    log_steps = [math.log(max(spread, 3.0 * sigma0_lo)), math.log(0.5), math.log(0.5)]
    log_steps += [
        math.log(2.4 * sigmas[i] * math.sqrt(c1s[i] / ns[i])) for i in range(q)
    ]
    log_steps += [math.log(2.4 / math.sqrt(2.0 * ns[i])) for i in range(q)]
    n_params = 3 + 2 * q

    out_delta0 = np.empty(keep)
    out_sigma0 = np.empty(keep)
    out_nu = np.empty(keep)
    out_deltas = np.empty((keep, q))
    out_sigmas = np.empty((keep, q))

    log1p = math.log1p
    exp = math.exp
    total = warmup + keep
    for t in range(1, total + 1):
        z = rng.standard_normal(n_params)
        u = rng.random(n_params)
        gamma = (t + 20.0) ** -0.6 if t <= warmup else 0.0

        half = 0.5 * (nu + 1.0)
        inv = 1.0 / (nu * sigma0 * sigma0)

        # delta0: flat prior on [-halfwidth, halfwidth]
        step = exp(log_steps[0])
        prop = delta0 + step * z[0]
        alpha = 0.0
        if -halfwidth <= prop <= halfwidth:
            logr = 0.0
            for d in deltas:
                rp = d - prop
                rc = d - delta0
                logr -= half * (log1p(rp * rp * inv) - log1p(rc * rc * inv))
            alpha = 1.0 if logr >= 0.0 else exp(logr)
            if u[0] < alpha:
                delta0 = prop
        if gamma:
            log_steps[0] += gamma * (alpha - _ADAPT_TARGET)

        # sigma0: uniform prior, log-scale walk with Jacobian
        step = exp(log_steps[1])
        dl = step * z[1]
        prop = sigma0 * exp(dl)
        alpha = 0.0
        if sigma0_lo < prop < sigma0_hi:
            inv_p = 1.0 / (nu * prop * prop)
            logr = -(q - 1) * dl
            for d in deltas:
                r2 = (d - delta0) ** 2
                logr += half * (log1p(r2 * inv) - log1p(r2 * inv_p))
            alpha = 1.0 if logr >= 0.0 else exp(logr)
            if u[1] < alpha:
                sigma0 = prop
                inv = inv_p
        if gamma:
            log_steps[1] += gamma * (alpha - _ADAPT_TARGET)

        # nu: Gamma(shape, rate) prior truncated at 1, log-scale walk
        step = exp(log_steps[2])
        dl = step * z[2]
        prop = nu * exp(dl)
        alpha = 0.0
        if prop >= 1.0:
            logr = (
                _t_sum(deltas, delta0, sigma0, prop)
                - _t_sum(deltas, delta0, sigma0, nu)
                + nu_shape * dl
                - nu_rate * (prop - nu)
            )
            alpha = 1.0 if logr >= 0.0 else exp(logr)
            if u[2] < alpha:
                nu = prop
                half = 0.5 * (nu + 1.0)
                inv = 1.0 / (nu * sigma0 * sigma0)
        if gamma:
            log_steps[2] += gamma * (alpha - _ADAPT_TARGET)

        # per-dataset means
        for i in range(q):
            step = exp(log_steps[3 + i])
            d_cur = deltas[i]
            prop = d_cur + step * z[3 + i]
            a_lik = ns[i] / (2.0 * c1s[i] * sigmas[i] * sigmas[i])
            rp = means[i] - prop
            rc = means[i] - d_cur
            rp0 = prop - delta0
            rc0 = d_cur - delta0
            logr = -a_lik * (rp * rp - rc * rc) - half * (
                log1p(rp0 * rp0 * inv) - log1p(rc0 * rc0 * inv)
            )
            alpha = 1.0 if logr >= 0.0 else exp(logr)
            if u[3 + i] < alpha:
                deltas[i] = prop
            if gamma:
                log_steps[3 + i] += gamma * (alpha - _ADAPT_TARGET)

        # per-dataset scales
        for i in range(q):
            j = 3 + q + i
            step = exp(log_steps[j])
            dl = step * z[j]
            s_cur = sigmas[i]
            prop = s_cur * exp(dl)
            alpha = 0.0
            if sigma_lo[i] < prop < sigma_hi[i]:
                r = means[i] - deltas[i]
                a_quad = ns[i] * r * r / c1s[i] + ssdevs[i] / c2s[i]
                logr = -(ns[i] - 1.0) * dl - 0.5 * a_quad * (
                    1.0 / (prop * prop) - 1.0 / (s_cur * s_cur)
                )
                alpha = 1.0 if logr >= 0.0 else exp(logr)
                if u[j] < alpha:
                    sigmas[i] = prop
            if gamma:
                log_steps[j] += gamma * (alpha - _ADAPT_TARGET)

        if t > warmup:
            row = t - warmup - 1
            out_delta0[row] = delta0
            out_sigma0[row] = sigma0
            out_nu[row] = nu
            for i in range(q):
                out_deltas[row, i] = deltas[i]
                out_sigmas[row, i] = sigmas[i]

    return {
        "delta0": out_delta0,
        "sigma0": out_sigma0,
        "nu": out_nu,
        "deltas": out_deltas,
        "sigmas": out_sigmas,
    }


def fit(
    series: list[DifferenceSeries], config: ModelConfig = ModelConfig(), workers: int = 1
) -> PosteriorChains:
    """Sample the joint posterior for two or more data sets.

    Raises TooFewDatasets for fewer than two series (use correlated_ttest
    there). When standardization is on, all differences are divided by the
    mean per-dataset standard deviation before sampling; the constant is
    recorded on the result. Chains can run in separate processes with
    ``workers > 1``; results are merged in chain order, so the draws do
    not depend on the worker count.
    """
    q = len(series)
    if q < 2:
        raise TooFewDatasets(
            f"the hierarchical model needs at least 2 data sets, got {q}; "
            "use correlated_ttest for a single series"
        )
    ids = tuple(s.dataset_id for s in series)
    if len(set(ids)) != q:
        raise ValueError("dataset ids must be unique")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    raw_stds = [float(s.x.std(ddof=1)) if s.n > 1 else 0.0 for s in series]
    constant = 1.0
    if config.standardize:
        mean_std = sum(raw_stds) / q
        if mean_std > 0.0 and math.isfinite(mean_std):
            constant = mean_std

    stats = []
    stds = []
    for s in series:
        x = s.x / constant
        n = float(s.n)
        stats.append(
            (
                n,
                float(x.mean()),
                float(np.sum((x - x.mean()) ** 2)),
                1.0 + (s.n - 1) * s.rho,
                1.0 - s.rho,
            )
        )
        stds.append(float(x.std(ddof=1)) if s.n > 1 else 0.0)

    positive = [s for s in stds if s > 0.0]
    if positive:
        scale_ref = sum(positive) / len(positive)
    else:
        scale_ref = max((abs(st[1]) for st in stats), default=0.0) or 1.0
    s_eff = [s if s > 0.0 else _ZERO_SPREAD_REL * scale_ref for s in stds]
    sigma_lo = tuple(_SIGMA_FLOOR_REL * s for s in s_eff)
    sigma_hi = tuple(config.sigma_bar_factor * s for s in s_eff)
    sigma_init = tuple(
        stds[i] if stds[i] > 0.0 else 3.0 * sigma_lo[i] for i in range(q)
    )
    pooled = sum(s_eff) / q
    sigma0_lo = _SIGMA_FLOOR_REL * pooled
    sigma0_hi = config.sigma_bar_factor * pooled
    nu_shape, nu_rate = config.nu_prior
    # The delta0 box prior is meant in raw score units (differences of
    # [0, 1] metrics can never leave [-1, 1]), so it shrinks together
    # with the data under standardization.
    halfwidth = config.delta0_prior_halfwidth / constant

    args = [
        (
            c,
            config.seed,
            config.warmup,
            config.samples_per_chain,
            tuple(stats),
            sigma_lo,
            sigma_hi,
            sigma_init,
            sigma0_lo,
            sigma0_hi,
            halfwidth,
            nu_shape,
            nu_rate,
        )
        for c in range(config.chains)
    ]
    if workers == 1 or config.chains == 1:
        results = [_run_chain(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, config.chains)) as pool:
            results = list(pool.map(_run_chain, *zip(*args)))

    post = PosteriorChains(
        dataset_ids=ids,
        delta0=np.stack([r["delta0"] for r in results]),
        sigma0=np.stack([r["sigma0"] for r in results]),
        nu=np.stack([r["nu"] for r in results]),
        deltas=np.stack([r["deltas"] for r in results]),
        sigmas=np.stack([r["sigmas"] for r in results]),
        standardization_constant=constant,
        config=config,
    )
    diags: dict[str, ParameterDiagnostics] = {}
    for name in post.parameter_names():
        diags[name] = diagnose(post.draws_of(name))
    post.diagnostics = diags
    post.converged = not unconverged(diags)
    return post


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
    round-trips every float64 exactly.
    """
    names = post.parameter_names()
    chains, draws = post.n_chains, post.draws_per_chain
    table = np.column_stack(
        [np.repeat(np.arange(chains), draws), np.tile(np.arange(draws), chains)]
        + [post.draws_of(name).reshape(-1) for name in names]
    )
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        if manifest is not None:
            handle.write(f"# manifest: {manifest}\n")
        csv.writer(handle, lineterminator="\n").writerow(["chain", "draw", *names])
        np.savetxt(handle, table, fmt="%.17g", delimiter=",")


def read_chains_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Inverse of write_chains_csv: parameter name -> (chains, draws) array.

    Rejects ragged or non-numeric rows, duplicate columns, a file that
    does not end in a newline (cut mid-row), and chain/draw columns that
    are not the complete chain-major grid (missing or reordered rows).
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
        names = header[2:]
        if header[:2] != ["chain", "draw"] or not names:
            raise ValueError(f"{path}: expected header chain,draw,<parameters>, got {header}")
        if len(set(names)) != len(names):
            raise ValueError(f"{path}: duplicate parameter columns in the header")
        if handle.tell() == size:
            raise ValueError(f"{path}: no draws found")
        try:
            table = np.loadtxt(handle, delimiter=",", ndmin=2, encoding="utf-8")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if table.shape[1] != len(header):
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
    return {name: table[:, j].reshape(chains, draws) for j, name in enumerate(names, start=2)}


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
    if extra:
        lines.update(extra)
    write_kv(path, lines)
