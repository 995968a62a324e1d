"""Convergence diagnostics checked on synthetic chains with known behavior."""

import math

import numpy as np
import pytest

from bayescv.diagnostics import diagnose


def iid_chains(n_chains=4, n_draws=5000, seed=0):
    return np.random.default_rng(seed).normal(size=(n_chains, n_draws))


class TestSplitRHat:
    def test_iid_chains_near_one(self):
        r = diagnose(iid_chains(4, 10_000, seed=1)).r_hat
        assert 0.999 < r < 1.01

    def test_offset_chain_flagged(self):
        draws = iid_chains(4, 2000, seed=2)
        draws[0] += 3.0
        assert diagnose(draws).r_hat > 1.2

    def test_trending_chain_flagged(self):
        # Split halves disagree when a chain drifts, even with one chain.
        draws = np.linspace(0.0, 1.0, 4000)[None, :] + iid_chains(1, 4000, seed=3) * 0.01
        assert diagnose(draws).r_hat > 1.5

    def test_constant_chains_give_nan(self):
        assert math.isnan(diagnose(np.ones((4, 100))).r_hat)

    def test_needs_enough_draws(self):
        with pytest.raises(ValueError):
            diagnose(np.zeros((2, 3)))


class TestEffectiveSampleSize:
    def test_iid_is_near_total(self):
        draws = iid_chains(4, 5000, seed=4)
        total = draws.size
        ess = diagnose(draws).ess
        assert 0.75 * total < ess <= total

    def test_autocorrelated_is_smaller(self):
        rng = np.random.default_rng(5)
        n, phi = 20_000, 0.9
        chains = []
        for _ in range(2):
            x = np.empty(n)
            x[0] = rng.normal()
            for t in range(1, n):
                x[t] = phi * x[t - 1] + math.sqrt(1 - phi * phi) * rng.normal()
            chains.append(x)
        draws = np.stack(chains)
        ess = diagnose(draws).ess
        # AR(1) theory: ess ratio is (1-phi)/(1+phi), about 1/19 here.
        expected = draws.size * (1 - phi) / (1 + phi)
        assert 0.5 * expected < ess < 2.0 * expected

    def test_capped_at_total(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 500))
        x[:, 1::2] *= -1  # induce negative autocorrelation
        assert diagnose(x).ess <= x.size

    def test_constant_gives_nan(self):
        assert math.isnan(diagnose(np.zeros((2, 100))).ess)

    @staticmethod
    def reference_ess(draws):
        """ESS of the split chains with direct-sum autocovariances and
        Geyer's initial monotone sequence summed pair by pair in a loop."""
        n = draws.shape[1] // 2
        split = np.vstack([draws[:, :n], draws[:, n : 2 * n]])
        m = split.shape[0]
        centered = split - split.mean(axis=1, keepdims=True)
        acov = np.array([[row[: n - t] @ row[t:] / n for t in range(n)] for row in centered])
        within = (acov[:, 0] * n / (n - 1)).mean()
        var_hat = (n - 1) / n * within + split.mean(axis=1).var(ddof=1)
        rho = 1.0 - (within - acov.mean(axis=0)) / var_hat
        rho[0] = 1.0
        tau, prev = 0.0, math.inf
        for t in range(n // 2):
            pair = rho[2 * t] + rho[2 * t + 1]
            if pair <= 0.0:
                break
            prev = min(pair, prev)
            tau += prev
        tau = max(2.0 * tau - 1.0, 1.0 / math.log10(m * n + 10.0))
        return min(m * n / tau, float(m * n))

    @pytest.mark.parametrize("phi", [-0.5, 0.0, 0.6, 0.95])
    def test_matches_a_pair_by_pair_reference(self, phi):
        rng = np.random.default_rng(8)
        draws = rng.normal(size=(3, 400))
        for t in range(1, draws.shape[1]):
            draws[:, t] += phi * draws[:, t - 1]
        assert diagnose(draws).ess == pytest.approx(self.reference_ess(draws), rel=1e-9)


class TestDiagnose:
    def test_returns_both_numbers(self):
        diag = diagnose(iid_chains(4, 1000, seed=7))
        assert 0.99 < diag.r_hat < 1.02
        assert diag.ess > 1000
