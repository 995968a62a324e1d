"""The lockstep sampler: batching and stream layout.

Several problems fitted in one ``fit_many`` call must give each the draws
a separate ``fit`` gives, bit for bit: chain c of every problem draws the
same fixed number of variates per sweep from ``rng_fork(seed, c)``, so no
problem's draws depend on the others in its batch. Whether the kernel
targets the right posterior is checked by distribution, in
test_calibration.py and test_model.py.
"""

import pytest
from numpy.testing import assert_array_equal

from bayescv import model
from bayescv.model import ModelConfig, fit, fit_many, generate

FAST = ModelConfig(chains=2, samples_per_chain=1500, warmup=800, seed=3)


def test_stacked_problems_match_separate_fits():
    problems = [
        generate(3, 2, 5, 0.01, 0.01, 5.0, 0.1, (0.01, 0.03), seed=s) for s in (1, 2, 3)
    ]
    # Different dataset ids in one problem must not matter either.
    problems[1] = [
        type(s)(dataset_id=f"x{i}", x=s.x, rho=s.rho)
        for i, s in enumerate(problems[1])
    ]
    stacked = fit_many(problems, FAST)
    for series, post in zip(problems, stacked):
        alone = fit(series, FAST)
        assert post.dataset_ids == alone.dataset_ids
        assert post.standardization_constant == alone.standardization_constant
        # Bit for bit: rank's output must not depend on how pairs are batched.
        assert_array_equal(post.draws, alone.draws)
        assert post.nu_acceptance == alone.nu_acceptance
        assert post.nu_step == alone.nu_step
        assert post.diagnostics == alone.diagnostics
        assert post.converged == alone.converged


def test_fit_many_needs_equal_dataset_counts():
    two = generate(2, 2, 5, 0.0, 0.01, 5.0, 0.1, (0.01, 0.02), seed=1)
    three = generate(3, 2, 5, 0.0, 0.01, 5.0, 0.1, (0.01, 0.02), seed=1)
    with pytest.raises(ValueError, match="equal numbers of data sets"):
        fit_many([two, three], FAST)
    assert fit_many([], FAST) == []


def test_fallback_draws_do_not_depend_on_the_batch(monkeypatch):
    # With one candidate per gamma draw, a few lambda draws in a hundred
    # keep their value, and truncated draws take the power-law step
    # whenever their one candidate misses.
    monkeypatch.setattr(model, "_CANDIDATES", 1)
    problems = [
        generate(3, 2, 5, 0.01, 0.01, 2.0, 0.1, (0.01, 0.03), seed=s) for s in (4, 5)
    ]
    flipped = [type(s)(dataset_id=s.dataset_id, x=-s.x, rho=s.rho) for s in problems[0]]
    stacked = fit_many([*problems, flipped], FAST)
    for series, post in zip(problems, stacked):
        assert_array_equal(post.draws, fit(series, FAST).draws)
    # Columns: delta0, sigma0, nu, then 3 delta_i and 3 sigma_i.
    locations, scales = [0, 3, 4, 5], [1, 2, 6, 7, 8]
    assert_array_equal(stacked[2].draws[..., locations], -stacked[0].draws[..., locations])
    assert_array_equal(stacked[2].draws[..., scales], stacked[0].draws[..., scales])
