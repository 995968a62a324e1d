"""Model-layer checks: the synthetic generator, the closed-form t
posterior, and the hierarchical sampler. The sampler is validated against
an independent reference: a plain joint random-walk Metropolis written
here from the t density and the compound-symmetry likelihood of the test
oracles, sharing no code with the production kernel beyond ``cs_stats``.
"""

import csv
import math
import re

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose, assert_array_equal

from bayescv.decision import RopeInterval, tally
from bayescv.diagnostics import ParameterDiagnostics
from bayescv.manifest import read_kv
from bayescv.model import (
    ModelConfig,
    PosteriorChains,
    correlated_ttest,
    fit,
    fit_many,
    generate,
    orientation,
    read_chains_csv,
    unconverged,
    write_chains_csv,
)
from bayescv.scores import DifferenceSeries
from bayescv.statcore import cs_stats, std_t_cdf
from oracles import cs_loglik, t_logpdf

FAST = ModelConfig(chains=2, samples_per_chain=1500, warmup=800, seed=3)


def series_from(x, rho=0.1, dataset_id="d"):
    return DifferenceSeries(dataset_id=dataset_id, x=np.asarray(x, dtype=float), rho=rho)


class TestGenerate:
    def test_deterministic(self):
        a = generate(3, 2, 5, 0.01, 0.005, 5.0, 0.1, (0.01, 0.02), seed=9)
        b = generate(3, 2, 5, 0.01, 0.005, 5.0, 0.1, (0.01, 0.02), seed=9)
        for s, t in zip(a, b):
            assert s.dataset_id == t.dataset_id
            assert_allclose(s.x, t.x, rtol=0, atol=0)

    def test_shapes_and_ids(self):
        out = generate(12, 4, 5, 0.0, 0.01, 4.0, 0.05, (0.005, 0.01), seed=0)
        assert [s.dataset_id for s in out] == [f"ds{i:02d}" for i in range(12)]
        for s in out:
            assert s.n == 20 and s.rho == 0.05

    def test_zero_population_scale_pins_all_means(self):
        out = generate(6, 2, 5, 0.02, 0.0, 5.0, 0.1, (0.0, 0.0), seed=4)
        for s in out:
            assert_allclose(s.x, 0.02, rtol=0, atol=1e-15)

    def test_law_of_large_numbers(self):
        # One huge dataset: the grand mean concentrates on delta0 with
        # variance sigma^2 (1 + (n-1) rho) / n, dominated by the rho term.
        n = 10_000
        rho = 0.02
        sigma = 0.01
        out = generate(1, 100, 100, 0.015, 0.0, 5.0, rho, (sigma, sigma), seed=8)
        xbar = out[0].x.mean()
        se = sigma * math.sqrt((1 + (n - 1) * rho) / n)
        assert abs(xbar - 0.015) < 4 * se

    def test_sample_variance_tracks_sigma(self):
        sigma = 0.02
        out = generate(1, 40, 50, 0.0, 0.0, 5.0, 0.05, (sigma, sigma), seed=5)
        s = out[0].x.std(ddof=1)
        # Var of deviations from the overall mean is sigma^2 (1 - rho)
        # plus a small correction; loose band is enough here.
        assert 0.8 * sigma < s < 1.2 * sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            generate(0, 2, 5, 0.0, 0.01, 5.0, 0.1, (0.01, 0.02), seed=0)
        with pytest.raises(ValueError):
            generate(2, 1, 1, 0.0, 0.01, 5.0, 0.1, (0.01, 0.02), seed=0)
        with pytest.raises(ValueError):
            generate(2, 2, 5, 0.0, 0.01, 5.0, 0.99999, (0.02, 0.01), seed=0)
        with pytest.raises(ValueError):
            generate(2, 2, 5, 0.0, 0.01, 5.0, 1.5, (0.01, 0.02), seed=0)


class TestCorrelatedTtest:
    def test_hand_formula(self):
        x = np.array([0.02, 0.05, -0.01, 0.03, 0.04, 0.02])
        s = series_from(x, rho=0.25)
        post = correlated_ttest(s)
        assert post.location == pytest.approx(x.mean())
        expected_scale = math.sqrt((1 / 6 + 0.25 / 0.75) * x.var(ddof=1))
        assert post.scale == pytest.approx(expected_scale, rel=1e-12)
        assert post.dof == 5.0

    def test_rho_zero_matches_classical_t(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.1, 0.05, size=12)
        post = correlated_ttest(series_from(x, rho=0.0))
        # Classical: mean has a t posterior centred at xbar with scale
        # s/sqrt(n) under the flat-prior analysis.
        assert post.location == pytest.approx(x.mean())
        assert post.scale == pytest.approx(x.std(ddof=1) / math.sqrt(12), rel=1e-12)
        ref = scipy.stats.t(df=11, loc=x.mean(), scale=x.std(ddof=1) / math.sqrt(12))
        for v in (-0.1, 0.05, 0.12, 0.3):
            cdf = std_t_cdf((v - post.location) / post.scale, post.dof)
            assert cdf == pytest.approx(ref.cdf(v), abs=1e-12)

    def test_degenerate_series(self):
        post = correlated_ttest(series_from(np.full(8, 0.25), rho=0.1))
        assert post.location == 0.25
        assert post.scale == 0.0

    def test_widens_with_rho(self):
        x = np.array([0.01, 0.03, 0.02, 0.00, 0.05])
        narrow = correlated_ttest(series_from(x, rho=0.0))
        wide = correlated_ttest(series_from(x, rho=0.5))
        assert wide.scale > narrow.scale

    def test_validation(self):
        with pytest.raises(ValueError):
            correlated_ttest(series_from(np.array([0.1])))
        with pytest.raises(ValueError):
            correlated_ttest(series_from(np.zeros(4), rho=-0.05))


class TestModelConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ModelConfig(chains=1)
        with pytest.raises(ValueError):
            ModelConfig(samples_per_chain=100)
        with pytest.raises(ValueError):
            ModelConfig(warmup=-1)
        with pytest.raises(ValueError):
            ModelConfig(seed=-5)
        with pytest.raises(ValueError):
            ModelConfig(sigma_bar_factor=0.0)
        with pytest.raises(ValueError):
            ModelConfig(nu_prior=(0.0, 0.1))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize(
        "knob, make",
        [
            ("sigma_bar_factor", lambda v: {"sigma_bar_factor": v}),
            ("delta0_prior_halfwidth", lambda v: {"delta0_prior_halfwidth": v}),
            ("nu_prior shape", lambda v: {"nu_prior": (v, 0.1)}),
            ("nu_prior rate", lambda v: {"nu_prior": (2.0, v)}),
        ],
        ids=["sigma_bar_factor", "delta0_prior_halfwidth", "nu_shape", "nu_rate"],
    )
    def test_priors_must_be_finite_and_positive(self, knob, make, value):
        with pytest.raises(ValueError, match=f"^{knob} must be finite and positive"):
            ModelConfig(**make(value))


class TestConvergenceRules:
    def test_each_failed_rule_is_named(self):
        nan = math.nan
        diagnostics = {
            "fine": ParameterDiagnostics(r_hat=1.01, ess=5000.0),
            "at_both_limits": ParameterDiagnostics(r_hat=1.05, ess=400.0),
            "high_r_hat": ParameterDiagnostics(r_hat=1.0501, ess=5000.0),
            "low_ess": ParameterDiagnostics(r_hat=1.0, ess=399.9),
            "both": ParameterDiagnostics(r_hat=1.2, ess=12.0),
            "undefined": ParameterDiagnostics(r_hat=nan, ess=nan),
            "infinite_ess": ParameterDiagnostics(r_hat=1.0, ess=math.inf),
        }
        assert unconverged(diagnostics) == {
            "high_r_hat": ["R-hat"],
            "low_ess": ["ESS"],
            "both": ["R-hat", "ESS"],
            "undefined": ["R-hat", "ESS"],
            "infinite_ess": ["ESS"],
        }


class TestFitBasics:
    def test_single_series_rejected(self):
        with pytest.raises(ValueError, match="at least 2 data sets, got 1; use correlated_ttest"):
            fit([series_from(np.array([0.1, 0.2, 0.1]))], FAST)

    def test_duplicate_ids_rejected(self):
        a = series_from(np.array([0.1, 0.2, 0.1]), dataset_id="same")
        b = series_from(np.array([0.0, 0.1, 0.2]), dataset_id="same")
        with pytest.raises(ValueError):
            fit([a, b], FAST)

    def test_shapes_names_and_bounds(self):
        series = generate(3, 2, 5, 0.01, 0.01, 5.0, 0.1, (0.01, 0.03), seed=1)
        post = fit(series, FAST)
        assert post.delta0.shape == (2, 1500)
        assert post.draws.shape == (2, 1500, 3 + 2 * 3)
        assert post.parameter_names()[:3] == ["delta0", "sigma0", "nu"]
        assert len(post.parameter_names()) == 3 + 2 * 3
        assert np.all(post.nu >= 1.0)
        assert np.all(post.sigma0 > 0.0)
        assert np.all(post.draws[..., 3 + 3 :] > 0.0)
        # The delta0 box is in raw units, so standardized draws live in
        # [-w/C, w/C].
        limit = post.config.delta0_prior_halfwidth / post.standardization_constant
        assert np.all(np.abs(post.delta0) <= limit)

    def test_deterministic_and_worker_invariant(self):
        series = generate(2, 2, 5, 0.0, 0.01, 5.0, 0.1, (0.01, 0.02), seed=2)
        one = fit(series, FAST)
        two = fit(series, FAST)
        assert_allclose(one.draws, two.draws, rtol=0, atol=0)

    def test_seed_matters(self):
        series = generate(2, 2, 5, 0.0, 0.01, 5.0, 0.1, (0.01, 0.02), seed=2)
        other = ModelConfig(chains=2, samples_per_chain=1500, warmup=800, seed=4)
        assert not np.allclose(fit(series, FAST).delta0, fit(series, other).delta0)

    def test_all_zero_differences(self):
        zero = [
            series_from(np.zeros(20), dataset_id="a"),
            series_from(np.zeros(20), dataset_id="b"),
        ]
        # The default sampler: at FAST's 2 x 1500 draws sigma0's ESS is
        # about 130, under the ESS gate.
        post = fit(zero)
        assert post.converged
        delta_a = post.draws[..., post.parameter_names().index("delta[a]")]
        assert np.quantile(np.abs(delta_a), 0.99) < 0.01
        # The scales sit at their floor, so every delta_i is all but 0, and
        # the posterior of (delta0, sigma0, nu) is the prior times
        # t_nu(0; delta0, sigma0)^2. Quadrature of that gives
        # P(|delta0| > 0.01) = 0.1736: sigma0's posterior is nearly flat in
        # log sigma0 over the nine decades of its box, and delta0 follows it.
        far = np.mean(np.abs(post.delta0) > 0.01)
        assert abs(far - 0.1736) < 0.06, far


class TestEquivariance:
    def test_sign_flip_mirrors_posterior(self):
        series = generate(6, 4, 5, 0.02, 0.004, 6.0, 0.1, (0.01, 0.02), seed=6)
        flipped = [DifferenceSeries(s.dataset_id, -s.x, s.rho) for s in series]
        cfg = ModelConfig(chains=2, samples_per_chain=4000, warmup=1000, seed=7)
        post_f = fit(series, cfg)
        post_r = fit(flipped, cfg)
        sd = post_f.delta0.std()
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            qf = np.quantile(post_f.delta0, p)
            qr = np.quantile(post_r.delta0, 1.0 - p)
            assert abs(qf + qr) < 0.3 * sd + 1e-3

    def test_sign_flip_negates_the_draws_bit_for_bit(self):
        # Rounding leaves ties (zero differences) in the data; its first
        # nonzero difference is negative, so it is the one fitted negated.
        series = [
            DifferenceSeries(s.dataset_id, np.round(s.x, 2), s.rho)
            for s in generate(3, 2, 5, -0.01, 0.005, 5.0, 0.1, (0.01, 0.02), seed=12)
        ]
        flipped = [DifferenceSeries(s.dataset_id, -s.x, s.rho) for s in series]
        assert np.any(series[0].x == 0.0)
        assert (orientation(series), orientation(flipped)) == (-1.0, 1.0)
        cfg = ModelConfig(chains=2, samples_per_chain=1000, warmup=200, seed=4)
        post, post_f = fit(series, cfg), fit(flipped, cfg)
        # Columns: delta0, sigma0, nu, then 3 delta_i and 3 sigma_i.
        locations, scales = [0, 3, 4, 5], [1, 2, 6, 7, 8]
        assert_array_equal(post_f.draws[..., locations], -post.draws[..., locations])
        assert_array_equal(post_f.draws[..., scales], post.draws[..., scales])
        assert post_f.diagnostics == post.diagnostics
        assert post_f.nu_acceptance == post.nu_acceptance
        # Batched together, each orientation still gets its own draws.
        batched = fit_many([series, flipped], cfg)
        assert_array_equal(batched[0].draws, post.draws)
        assert_array_equal(batched[1].draws, post_f.draws)

    def test_all_zero_data_has_positive_orientation(self):
        zero = DifferenceSeries("d", np.zeros(4), 0.1)
        assert orientation([zero, zero]) == 1.0

    def test_rescaling_data_rescales_posterior(self):
        # With standardization on, multiplying every difference by 10
        # presents the sampler with the same standardized problem up to
        # float rounding. Rounding noise in the sufficient statistics is
        # amplified by the accept/reject feedback, so trajectories are
        # only distributionally equal, not bitwise: compare quantiles.
        series = generate(3, 2, 5, 0.01, 0.005, 5.0, 0.1, (0.01, 0.02), seed=10)
        big = [DifferenceSeries(s.dataset_id, 10.0 * s.x, s.rho) for s in series]
        cfg = ModelConfig(chains=2, samples_per_chain=8000, warmup=1000, seed=3)
        post1 = fit(series, cfg)
        post10 = fit(big, cfg)
        assert post10.standardization_constant == pytest.approx(
            10.0 * post1.standardization_constant, rel=1e-12
        )
        sd = post1.delta0.std()
        for p in (0.1, 0.25, 0.5, 0.75, 0.9):
            q1 = np.quantile(post1.delta0, p)
            q10 = np.quantile(post10.delta0, p)
            assert abs(q1 - q10) < 0.2 * sd + 1e-4, p
        raw1 = np.median(post1.delta0) * post1.standardization_constant
        raw10 = np.median(post10.delta0) * post10.standardization_constant
        assert raw10 == pytest.approx(10.0 * raw1, rel=0.3)

    @pytest.mark.parametrize("power", [2, 3, -3, 10])
    def test_power_of_two_rescaling_is_exact(self, power):
        # Scaling by 2**power is exact in floating point, so the data, the
        # delta0 box and the rope scaled together reach the sampler as the
        # same standardized numbers: equal draws, bit for bit.
        factor = 2.0**power
        series = generate(3, 2, 5, 0.01, 0.005, 5.0, 0.1, (0.01, 0.02), seed=10)
        scaled = [DifferenceSeries(s.dataset_id, factor * s.x, s.rho) for s in series]
        cfg = ModelConfig(chains=2, samples_per_chain=1000, warmup=200, seed=3)
        cfg_scaled = ModelConfig(
            chains=2, samples_per_chain=1000, warmup=200, seed=3, delta0_prior_halfwidth=factor
        )
        post, post_scaled = fit(series, cfg), fit(scaled, cfg_scaled)
        assert_array_equal(post_scaled.draws, post.draws)
        assert post_scaled.standardization_constant == factor * post.standardization_constant
        rope = 0.3 * post.standardization_constant
        assert tally(post_scaled, RopeInterval(factor * rope)) == tally(post, RopeInterval(rope))


def reference_posterior(series, *, halfwidth, nu_shape, nu_rate, caps, sigma0_cap,
                        steps, seed, start):
    """Independent check on the production kernel: joint random-walk
    Metropolis over (delta0, sigma0, nu, deltas, sigmas), with the target
    density assembled directly from cs_loglik and t_logpdf. Slow and
    simple on purpose.
    """
    q = len(series)
    rng = np.random.default_rng(seed)
    stats = [cs_stats(s.x, s.rho) for s in series]

    def logpost(theta):
        delta0, sigma0, nu = theta[0], theta[1], theta[2]
        deltas = theta[3 : 3 + q]
        sigmas = theta[3 + q :]
        if not (-halfwidth <= delta0 <= halfwidth):
            return -math.inf
        if not (0.0 < sigma0 < sigma0_cap) or nu < 1.0:
            return -math.inf
        for i in range(q):
            if not (0.0 < sigmas[i] < caps[i]):
                return -math.inf
        total = (nu_shape - 1.0) * math.log(nu) - nu_rate * nu
        for i in range(q):
            total += t_logpdf(deltas[i], delta0, sigma0, nu)
            total += cs_loglik(stats[i], deltas[i], sigmas[i] ** 2)
        return total

    theta = np.array(start, dtype=float)
    current = logpost(theta)
    # Step sizes in standardized units, sized to the posterior widths of
    # this configuration; the acceptance-rate assert below guards them.
    spread = max(theta[3 + q :].mean(), 1e-3)
    scales = np.array(
        [0.10, 0.10, 0.60] + [0.10] * q + [0.06] * q
    ) * max(spread, 0.5)
    kept = []
    accepted = 0
    for it in range(steps):
        prop = theta + scales * rng.standard_normal(theta.size)
        cand = logpost(prop)
        if math.log(rng.random()) < cand - current:
            theta, current = prop, cand
            accepted += 1
        if it >= steps // 5 and it % 5 == 0:
            kept.append(theta.copy())
    rate = accepted / steps
    assert 0.05 < rate < 0.8, f"reference sampler mistuned: acceptance {rate:.3f}"
    return np.asarray(kept)


class TestAgainstIndependentSampler:
    def test_posterior_moments_agree(self):
        series = generate(4, 2, 10, 0.015, 0.004, 8.0, 0.05, (0.01, 0.015), seed=12)
        cfg = ModelConfig(chains=4, samples_per_chain=6000, warmup=1500, seed=13)
        post = fit(series, cfg)
        assert post.converged

        constant = post.standardization_constant
        std_series = [DifferenceSeries(s.dataset_id, s.x / constant, s.rho) for s in series]
        stds = [float(s.x.std(ddof=1)) for s in std_series]
        mean_std = sum(stds) / len(stds)
        start = (
            [float(np.mean([s.x.mean() for s in std_series])), max(stds, default=1.0), 5.0]
            + [float(s.x.mean()) for s in std_series]
            + stds
        )
        ref = reference_posterior(
            std_series,
            halfwidth=cfg.delta0_prior_halfwidth / constant,
            nu_shape=cfg.nu_prior[0],
            nu_rate=cfg.nu_prior[1],
            caps=[cfg.sigma_bar_factor * s for s in stds],
            sigma0_cap=cfg.sigma_bar_factor * mean_std,
            steps=120_000,
            seed=14,
            start=start,
        )
        for idx, name in ((0, "delta0"), (1, "sigma0")):
            ours = post.draws[..., idx].reshape(-1)
            theirs = ref[:, idx]
            pooled_sd = max(ours.std(), theirs.std())
            assert abs(ours.mean() - theirs.mean()) < 0.25 * pooled_sd, name
            for p in (0.25, 0.5, 0.75):
                dq = abs(np.quantile(ours, p) - np.quantile(theirs, p))
                assert dq < 0.35 * pooled_sd, (name, p)
        # nu mixes slowly in both samplers; compare medians loosely.
        assert abs(np.median(post.nu) - np.median(ref[:, 2])) < 6.0


def reference_write_chains(post, path, manifest=None):
    """The one-table writer ``write_chains_csv`` must match byte for byte."""
    names = post.parameter_names()
    chains, draws = post.n_chains, post.draws_per_chain
    table = np.column_stack(
        [np.repeat(np.arange(chains), draws), np.tile(np.arange(draws), chains)]
        + [post.draws[..., j].reshape(-1) for j in range(len(names))]
    )
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if manifest is not None:
            handle.write(f"# manifest: {manifest}\n")
        csv.writer(handle, lineterminator="\n").writerow(["chain", "draw", *names])
        np.savetxt(handle, table, fmt="%.17g", delimiter=",")


def hand_built(dataset_ids, chains, draws, seed=5):
    """A posterior of random draws, with every column distinct."""
    rng = np.random.default_rng(seed)
    q = len(dataset_ids)
    return PosteriorChains(
        dataset_ids=tuple(dataset_ids),
        draws=rng.normal(size=(chains, draws, 3 + 2 * q)) / 3.0,
        standardization_constant=1.0,
        config=ModelConfig(),
    )


def _joined(lines):
    return "\n".join(lines) + "\n"


# Each entry damages the lines of a valid wide chains file (manifest
# comment, header, then 2 chains x 4 draws) and returns the new text.
CORRUPTIONS = {
    "ragged_row": lambda lines: _joined(lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:]),
    "row_cut_mid_line": lambda lines: _joined(lines)[: -len(lines[-1]) // 2],
    "last_value_cut": lambda lines: _joined(lines)[:-4],
    "trailing_rows_missing": lambda lines: _joined(lines[:-3]),
    "middle_row_missing": lambda lines: _joined(lines[:4] + lines[5:]),
    "rows_swapped": lambda lines: _joined(lines[:3] + [lines[4], lines[3]] + lines[5:]),
    "non_numeric_cell": lambda lines: _joined(
        lines[:4] + [lines[4].rsplit(",", 1)[0] + ",abc"] + lines[5:]
    ),
    "duplicate_column": lambda lines: _joined(
        [lines[0], lines[1].replace("sigma0", "delta0")] + lines[2:]
    ),
    "no_draws": lambda lines: _joined(lines[:2]),
    "long_format": lambda lines: "chain,draw,parameter,value\n0,0,delta0,0.1\n",
}


class TestChainsIO:
    @pytest.mark.parametrize("case", ["fast_fit", "three_chains_q1", "quoted_ids"])
    def test_writer_matches_the_one_table_writer(self, tmp_path, case):
        if case == "fast_fit":
            post = fit(generate(3, 2, 5, 0.01, 0.005, 5.0, 0.1, (0.01, 0.02), seed=15), FAST)
        elif case == "three_chains_q1":
            post = hand_built(["only"], chains=3, draws=7)
        else:
            post = hand_built(["a,b", 'x"y'], chains=2, draws=5)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_chains_csv(post, got, manifest="m.txt")
        reference_write_chains(post, want, manifest="m.txt")
        assert got.read_bytes() == want.read_bytes()
        back = read_chains_csv(got)
        assert list(back) == post.parameter_names()
        for j, name in enumerate(post.parameter_names()):
            assert back[name].tobytes() == np.ascontiguousarray(post.draws[..., j]).tobytes(), name

    def test_named_parameters_are_views_of_draws(self):
        post = fit(generate(3, 2, 5, 0.01, 0.005, 5.0, 0.1, (0.01, 0.02), seed=15), FAST)
        names = post.parameter_names()
        q = len(post.dataset_ids)
        assert post.draws.shape == (FAST.chains, FAST.samples_per_chain, 3 + 2 * q)
        views = [("delta0", post.delta0), ("sigma0", post.sigma0), ("nu", post.nu)]
        for name, view in views:
            j = names.index(name)
            column = post.draws[..., j]
            assert view.shape == column.shape, name
            assert np.shares_memory(view, column), name
            assert np.array_equal(view, column), name
            for other in (j - 1, j + 1):
                if 0 <= other < len(names):
                    assert not np.shares_memory(view, post.draws[..., other]), (name, other)

    def test_csv_roundtrip(self, tmp_path):
        series = generate(3, 2, 5, 0.01, 0.005, 5.0, 0.1, (0.01, 0.02), seed=15)
        post = fit(series, FAST)
        # Values whose shortest repr needs all 17 digits, or that sit at
        # the edges of the float64 range.
        post.delta0[0, :6] = [0.1, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308]
        path = tmp_path / "chains.csv"
        write_chains_csv(post, path, manifest="m.txt")
        back = read_chains_csv(path)
        assert list(back) == post.parameter_names()
        assert len(back) == 3 + 2 * 3
        for j, name in enumerate(post.parameter_names()):
            expected = post.draws[..., j]
            assert back[name].shape == expected.shape, name
            assert back[name].tobytes() == np.ascontiguousarray(expected).tobytes(), name

    def test_named_columns_equal_the_full_read(self, tmp_path):
        post = fit(generate(3, 2, 5, 0.01, 0.005, 5.0, 0.1, (0.01, 0.02), seed=15), FAST)
        post.delta0[0, :3] = [1 / 3, -0.0, 5e-324]
        path = tmp_path / "chains.csv"
        write_chains_csv(post, path, manifest="m.txt")
        full = read_chains_csv(path)
        names = ("nu", "delta0", "sigma[ds01]")
        part = read_chains_csv(path, names=names)
        assert tuple(part) == names
        for name in names:
            assert part[name].shape == full[name].shape, name
            assert part[name].tobytes() == full[name].tobytes(), name
        with pytest.raises(ValueError, match="missing draws for 'sigma9'"):
            read_chains_csv(path, names=("delta0", "sigma9"))

    def test_wide_layout(self, tmp_path):
        post = fit(generate(2, 2, 5, 0.01, 0.005, 5.0, 0.1, (0.01, 0.02), seed=15), FAST)
        path = tmp_path / "chains.csv"
        write_chains_csv(post, path, manifest="m.txt")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# manifest: m.txt"
        assert lines[1] == "chain,draw," + ",".join(post.parameter_names())
        assert len(lines) == 2 + post.n_chains * post.draws_per_chain
        assert lines[2].startswith("0,0,") and lines[-1].startswith(f"1,{post.draws_per_chain - 1},")

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_read_rejects_damaged_wide_file(self, tmp_path, corruption):
        rng = np.random.default_rng(5)
        post = PosteriorChains(
            dataset_ids=("a", "b", "c"),
            draws=np.dstack([
                rng.normal(size=(2, 4)),
                rng.random((2, 4)),
                1.0 + rng.random((2, 4)),
                rng.normal(size=(2, 4, 3)),
                rng.random((2, 4, 3)),
            ]),
            standardization_constant=1.0,
            config=ModelConfig(),
        )
        path = tmp_path / "chains.csv"
        write_chains_csv(post, path, manifest="m.txt")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(read_chains_csv(path)) == 9
        path.write_text(CORRUPTIONS[corruption](lines), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_chains_csv(path)

    @pytest.mark.parametrize("names", [None, ("delta0", "nu")], ids=["all", "named"])
    def test_undecodable_header_names_the_file(self, tmp_path, names):
        path = tmp_path / "chains.csv"
        write_chains_csv(hand_built(["a", "b"], chains=2, draws=4), path, manifest="m.txt")
        manifest, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(manifest + b"\n\xff" + rest)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            read_chains_csv(path, names=names)

    def test_read_rejects_ragged_chains(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "chain,draw,parameter,value\n0,0,delta0,0.1\n0,1,delta0,0.2\n1,0,delta0,0.3\n"
        )
        with pytest.raises(ValueError):
            read_chains_csv(path)
