"""The lockstep sampler against a scalar reference.

``run_chain`` below is a scalar implementation of the same
Metropolis-within-Gibbs sampler: one chain, one scalar update per
parameter per sweep, from ``rng_fork(seed, chain)``. The lockstep kernel
has the same update order, proposals, support checks, adaptation and
random streams, so its draws must match this reference chain by chain up
to float rounding (sums over datasets run in another order, the
acceptance test compares log(u) with the log ratio instead of u with the
ratio, and numpy's exp/log1p may differ from math's in the last bit).
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from bayescv.decision import RopeInterval, tally
from bayescv.model import ModelConfig, PosteriorChains, _prepare, fit, fit_many, generate
from bayescv.statcore import rng_fork

FAST = ModelConfig(chains=2, samples_per_chain=1500, warmup=800, seed=3)
ADAPT_TARGET = 0.44
DRAWS = ("delta0", "sigma0", "nu", "deltas", "sigmas")


def t_sum(deltas: list[float], d0: float, s0: float, nu: float) -> float:
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


def run_chain(
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
    """One chain of the Metropolis-within-Gibbs sampler, one scalar update at a time."""
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
    accepted = [0] * n_params

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
                accepted[0] += t > warmup
                delta0 = prop
        if gamma:
            log_steps[0] += gamma * (alpha - ADAPT_TARGET)

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
                accepted[1] += t > warmup
                sigma0 = prop
                inv = inv_p
        if gamma:
            log_steps[1] += gamma * (alpha - ADAPT_TARGET)

        # nu: Gamma(shape, rate) prior truncated at 1, log-scale walk
        step = exp(log_steps[2])
        dl = step * z[2]
        prop = nu * exp(dl)
        alpha = 0.0
        if prop >= 1.0:
            logr = (
                t_sum(deltas, delta0, sigma0, prop)
                - t_sum(deltas, delta0, sigma0, nu)
                + nu_shape * dl
                - nu_rate * (prop - nu)
            )
            alpha = 1.0 if logr >= 0.0 else exp(logr)
            if u[2] < alpha:
                accepted[2] += t > warmup
                nu = prop
                half = 0.5 * (nu + 1.0)
                inv = 1.0 / (nu * sigma0 * sigma0)
        if gamma:
            log_steps[2] += gamma * (alpha - ADAPT_TARGET)

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
                accepted[3 + i] += t > warmup
                deltas[i] = prop
            if gamma:
                log_steps[3 + i] += gamma * (alpha - ADAPT_TARGET)

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
                    accepted[j] += t > warmup
                    sigmas[i] = prop
            if gamma:
                log_steps[j] += gamma * (alpha - ADAPT_TARGET)

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
        "accepted": np.array(accepted),
        "log_steps": np.array(log_steps),
    }




def reference_fit(series, config):
    """All chains of ``run_chain``, stacked like ``PosteriorChains``.

    ``run_chain`` samples the data as ``_prepare`` orients it; the
    locations are multiplied by ``p.sign`` back into the data's
    orientation, as ``fit`` does.
    """
    p = _prepare(series, config)
    runs = [
        run_chain(
            c, config.seed, config.warmup, config.samples_per_chain, p.stats,
            p.sigma_lo, p.sigma_hi, p.sigma_init, p.sigma0_lo, p.sigma0_hi,
            p.halfwidth, *config.nu_prior,
        )
        for c in range(config.chains)
    ]
    post = PosteriorChains(
        dataset_ids=p.ids,
        standardization_constant=p.constant,
        config=config,
        draws=np.dstack([
            np.stack([r[key] for r in runs]) * (p.sign if key in ("delta0", "deltas") else 1.0)
            for key in DRAWS
        ]),
    )
    return post, runs


# Tight priors make the delta0 box and the sigma caps reject proposals.
BOXED = ModelConfig(
    chains=2, samples_per_chain=1500, warmup=800, seed=3,
    sigma_bar_factor=1.5, delta0_prior_halfwidth=0.005,
)


@pytest.mark.parametrize(
    "q, seed, config", [(2, 2, FAST), (3, 5, FAST), (3, 5, BOXED)], ids=["q2", "q3", "q3-boxed"]
)
def test_draws_match_scalar_reference(q, seed, config):
    series = generate(q, 2, 5, 0.01, 0.01, 5.0, 0.1, (0.01, 0.03), seed=seed)
    post = fit(series, config)
    ref, runs = reference_fit(series, config)
    for name in DRAWS:
        for c in range(config.chains):
            assert_allclose(
                getattr(post, name)[c], getattr(ref, name)[c], rtol=1e-8, atol=1e-10,
                err_msg=f"{name}, chain {c}",
            )
    rope = RopeInterval(0.01 / post.standardization_constant)
    assert tally(post, rope) == tally(ref, rope)

    # Acceptance rates and final steps come from the same accept/reject
    # decisions and the same adaptation.
    names = post.parameter_names()
    kept = config.chains * config.samples_per_chain
    accepted = sum(r["accepted"] for r in runs) / kept
    steps = np.mean([np.exp(r["log_steps"]) for r in runs], axis=0)
    assert_array_equal([post.acceptance[n] for n in names], accepted)
    assert_allclose([post.step_size[n] for n in names], steps, rtol=1e-8)


def test_stacked_problems_match_separate_fits():
    problems = [
        generate(3, 2, 5, 0.01, 0.01, 5.0, 0.1, (0.01, 0.03), seed=s) for s in (1, 2, 3)
    ]
    # Different dataset ids in one problem must not matter either.
    problems[1] = [
        type(s)(dataset_id=f"x{i}", x=s.x, rho=s.rho, n=s.n, m=s.m, k=s.k)
        for i, s in enumerate(problems[1])
    ]
    stacked = fit_many(problems, FAST)
    for series, post in zip(problems, stacked):
        alone = fit(series, FAST)
        assert post.dataset_ids == alone.dataset_ids
        assert post.standardization_constant == alone.standardization_constant
        # Bit for bit: rank's output must not depend on how pairs are batched.
        for name in DRAWS:
            assert_array_equal(getattr(post, name), getattr(alone, name))
        assert post.acceptance == alone.acceptance
        assert post.step_size == alone.step_size
        assert post.diagnostics == alone.diagnostics
        assert post.converged == alone.converged


def test_fit_many_needs_equal_dataset_counts():
    two = generate(2, 2, 5, 0.0, 0.01, 5.0, 0.1, (0.01, 0.02), seed=1)
    three = generate(3, 2, 5, 0.0, 0.01, 5.0, 0.1, (0.01, 0.02), seed=1)
    with pytest.raises(ValueError, match="equal numbers of data sets"):
        fit_many([two, three], FAST)
    assert fit_many([], FAST) == []
