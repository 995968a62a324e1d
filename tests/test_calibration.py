"""Simulation-based calibration of the sampler (Talts et al. 2018,
"Validating Bayesian inference algorithms with simulation-based
calibration", arXiv:1804.06788).

Each replicate draws the parameters from the prior and the data from the
model, then fits them. For a correct sampler the rank of each true value
among its (thinned) posterior draws is uniform, whatever the data. The
replicates of a case run as ``_lockstep`` batches of hand-built
``_Problem``s with fixed prior boxes: the CLI's boxes are relative to the
data's spread, which a prior draw cannot be.

Each case bins every parameter's ranks into ``BINS`` equal bins and
compares the histogram with the uniform one by Pearson's chi-square. The
critical value keeps the family-wise level at ``ALPHA`` over the 3 + 2q
parameters of a case (Bonferroni). Seeds are fixed, so a run passes or
fails the same way every time.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from bayescv.model import ModelConfig, _lockstep, _Problem
from bayescv.statcore import cs_stats

ALPHA = 0.01
BINS = 10
N_OBS, RHO = 10, 0.1
NU_PRIOR = (2.0, 0.1)
HALFWIDTH = 1.0
SIGMA_BOX = (0.1, 1.0)


def draw_nu(rng: np.random.Generator) -> float:
    """Gamma(shape, rate) truncated to nu >= 1, by rejection."""
    while True:
        nu = rng.gamma(NU_PRIOR[0], 1.0 / NU_PRIOR[1])
        if nu >= 1.0:
            return nu


def replicate(rng: np.random.Generator, q: int, sigma0_box: tuple[float, float]):
    """One prior draw and its data: (true parameters in parameter order, problem)."""
    delta0 = rng.uniform(-HALFWIDTH, HALFWIDTH)
    sigma0 = rng.uniform(*sigma0_box)
    nu = draw_nu(rng)
    deltas = delta0 + sigma0 * rng.standard_t(nu, size=q)
    sigmas = rng.uniform(*SIGMA_BOX, size=q)
    z = rng.standard_normal((q, N_OBS))
    zbar = z.mean(axis=1, keepdims=True)
    x = deltas[:, None] + sigmas[:, None] * (
        math.sqrt(1.0 - RHO) * (z - zbar) + math.sqrt(1.0 + (N_OBS - 1) * RHO) * zbar
    )
    stats = tuple(cs_stats(row, RHO) for row in x)
    means = x.mean(axis=1)
    stds = x.std(axis=1, ddof=1)
    problem = _Problem(
        ids=tuple(f"d{i}" for i in range(q)),
        constant=1.0,
        sign=1.0,
        stats=stats,
        sigma_lo=(SIGMA_BOX[0],) * q,
        sigma_hi=(SIGMA_BOX[1],) * q,
        sigma_init=tuple(np.clip(stds, 1.1 * SIGMA_BOX[0], 0.9 * SIGMA_BOX[1])),
        sigma0_lo=sigma0_box[0],
        sigma0_hi=sigma0_box[1],
        halfwidth=HALFWIDTH,
        pooled_mean=float(means.mean()),
        spread=max(float(means.std(ddof=1)), 3.0 * sigma0_box[0]),
    )
    truth = np.concatenate([[delta0, sigma0, nu], deltas, sigmas])
    return truth, problem


def chi_square_statistics(q, sigma0_box, replicates, config, thin, seed):
    """Per parameter, the chi-square statistic of the rank histogram.

    The replicates run in batches of ``BATCH``, which bounds the memory
    of the kept draws. Lanes of one chain index share their variates, so
    the Monte Carlo errors of the replicates in one batch are correlated,
    and their ranks with them: each batch has a sampler seed of its own,
    and each replicate ranks its truth against draws at offsets of its
    own.
    """
    rng = np.random.default_rng(seed)
    ranks = []
    for start in range(0, replicates, BATCH):
        truths, problems = zip(
            *(replicate(rng, q, sigma0_box) for _ in range(min(BATCH, replicates - start)))
        )
        batch_config = dataclasses.replace(config, seed=config.seed + start)
        draws = _lockstep(list(problems), batch_config)[0]
        draws = draws.reshape(len(problems), -1, draws.shape[-1])
        # One draw from each window of ``thin`` kept draws.
        windows = draws.shape[1] // thin
        picks = np.arange(windows) * thin + rng.integers(thin, size=(len(problems), windows))
        thinned = np.take_along_axis(draws, picks[:, :, None], axis=1)
        # As many draws as make BINS equal bins of the ranks 0..n_draws.
        n_draws = (windows + 1) // BINS * BINS - 1
        ranks.append((thinned[:, :n_draws, :] < np.asarray(truths)[:, None, :]).sum(axis=1))
    bins = np.concatenate(ranks) * BINS // (n_draws + 1)
    counts = np.stack([np.bincount(column, minlength=BINS) for column in bins.T])
    expected = replicates / BINS
    return ((counts - expected) ** 2 / expected).sum(axis=1)


CASES = {
    # Three data sets, a sigma0 box of under two decades.
    "q3": dict(q=3, sigma0_box=(0.02, 1.0), seed=2024),
    # Two data sets and a sigma0 box of four decades: sigma0's posterior
    # spans decades, where a random walk on log sigma0 is slowest.
    "q2-wide": dict(q=2, sigma0_box=(1e-4, 1.0), seed=2025),
}
REPLICATES = 500
BATCH = 100
CONFIG = ModelConfig(chains=4, samples_per_chain=1000, warmup=200, nu_prior=NU_PRIOR, seed=7)
THIN = 40


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_ranks_of_prior_draws_are_uniform(case):
    spec = CASES[case]
    stats = chi_square_statistics(
        spec["q"], spec["sigma0_box"], REPLICATES, CONFIG, THIN, spec["seed"]
    )
    critical = scipy.stats.chi2.isf(ALPHA / stats.size, BINS - 1)
    names = ["delta0", "sigma0", "nu"]
    names += [f"delta[{i}]" for i in range(spec["q"])] + [f"sigma[{i}]" for i in range(spec["q"])]
    worst = int(np.argmax(stats))
    assert stats.max() < critical, (
        f"{names[worst]} ranks are not uniform: chi-square {stats[worst]:.1f} "
        f"> {critical:.1f}; all: {dict(zip(names, np.round(stats, 1)))}"
    )
