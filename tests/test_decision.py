"""Decision layer: region masses against quadrature, counter algebra,
the tie rule, ranking, and report serialization.
"""

import math
import re

import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from numpy.testing import assert_allclose

from bayescv import decision
from bayescv.decision import (
    DecisionTriple,
    REPORT_COLUMNS,
    ReportRow,
    RopeInterval,
    classify_draws,
    count_draws,
    rank,
    read_report_csv,
    region_probs,
    rope_from_differences,
    tally,
    verdict_of,
    write_report_csv,
)
from bayescv.model import ModelConfig, PosteriorChains, fit, generate
from bayescv.plotting import simplex_points
from bayescv.scores import DifferenceSeries
from oracles import t_logpdf


def quadrature_probs(delta0, sigma0, nu, r):
    def pdf(u):
        return math.exp(t_logpdf(u, delta0, sigma0, nu))

    inside, _ = scipy.integrate.quad(pdf, -r, r, epsabs=1e-13, epsrel=1e-13)
    left, _ = scipy.integrate.quad(pdf, -np.inf, -r, epsabs=1e-13, epsrel=1e-13)
    right, _ = scipy.integrate.quad(pdf, r, np.inf, epsabs=1e-13, epsrel=1e-13)
    return left, inside, right


def synthetic_chains(delta0, sigma0, nu, constant=1.0):
    """A PosteriorChains carrying given population draws (two chains)."""
    delta0 = np.asarray(delta0, dtype=float)
    half = delta0.size // 2
    shape = (2, half)
    q = 1

    def as_chains(v):
        return np.asarray(v, dtype=float).reshape(shape)

    return PosteriorChains(
        dataset_ids=("d0",),
        draws=np.dstack([
            as_chains(delta0), as_chains(sigma0), as_chains(nu),
            np.zeros((2, half, q)), np.ones((2, half, q)),
        ]),
        standardization_constant=constant,
        config=ModelConfig(),
    )


class TestRegionProbs:
    def test_matches_quadrature(self):
        cases = [
            (0.02, 0.01, 5.0, 0.01),
            (0.0, 0.01, 5.0, 0.01),
            (-0.035, 0.02, 2.0, 0.015),
            (0.3, 0.5, 1.0, 0.2),
            (0.001, 0.003, 30.0, 0.01),
        ]
        for delta0, sigma0, nu, r in cases:
            got = region_probs(delta0, sigma0, nu, RopeInterval(r))
            want = quadrature_probs(delta0, sigma0, nu, r)
            assert_allclose(got, want, atol=1e-8, rtol=0)
            assert got[0] + got[1] + got[2] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_case_balances_exactly(self):
        left, rope_mass, right = region_probs(0.0, 0.015, 4.0, RopeInterval(0.01))
        assert left == right
        assert rope_mass > 0.0

    def test_sign_flip_swaps_tails_exactly(self):
        for delta0 in (0.004, 0.017, 0.3):
            l1, m1, r1 = region_probs(delta0, 0.01, 3.0, RopeInterval(0.01))
            l2, m2, r2 = region_probs(-delta0, 0.01, 3.0, RopeInterval(0.01))
            assert (l1, m1, r1) == (r2, m2, l2)

    def test_zero_rope_has_no_rope_mass(self):
        left, rope_mass, right = region_probs(0.01, 0.02, 5.0, RopeInterval(0.0))
        assert rope_mass == 0.0
        assert left + right == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_population(self):
        assert region_probs(0.005, 0.0, 5.0, RopeInterval(0.01)) == (0.0, 1.0, 0.0)
        assert region_probs(0.01, 0.0, 5.0, RopeInterval(0.01)) == (0.0, 1.0, 0.0)
        assert region_probs(-0.02, 0.0, 5.0, RopeInterval(0.01)) == (1.0, 0.0, 0.0)
        assert region_probs(0.02, 0.0, 5.0, RopeInterval(0.01)) == (0.0, 0.0, 1.0)

    def test_wide_population_favors_tails(self):
        left, rope_mass, right = region_probs(0.0, 10.0, 2.0, RopeInterval(0.01))
        assert rope_mass < 0.01
        assert left == pytest.approx(right, abs=1e-15)

    def test_damaged_draws_rejected_before_point_mass_shortcut(self):
        rope = RopeInterval(0.01)
        for delta0, sigma0, nu in [
            (math.nan, 0.0, 5.0),
            (0.0, 0.0, -3.0),
            (0.0, 0.0, math.nan),
            (0.0, 0.0, 0.0),
            (0.0, -0.01, 5.0),
            (0.0, math.inf, 5.0),
            (math.inf, 0.01, 5.0),
            (0.0, 0.01, math.inf),
        ]:
            with pytest.raises(ValueError):
                region_probs(delta0, sigma0, nu, rope)

    def test_one_damaged_draw_rejects_the_array(self):
        delta0 = np.zeros(10)
        sigma0 = np.zeros(10)
        delta0[7] = math.nan
        with pytest.raises(ValueError, match="delta0=nan"):
            region_probs(delta0, sigma0, np.full(10, 5.0), RopeInterval(0.01))

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(12)
        delta0 = rng.normal(0.0, 0.03, size=(3, 7))
        sigma0 = rng.uniform(0.0, 0.03, size=(3, 7))
        sigma0[0, :3] = 0.0
        nu = rng.uniform(1.0, 30.0, size=(3, 7))
        rope = RopeInterval(0.01)
        left, rope_mass, right = region_probs(delta0, sigma0, nu, rope)
        assert left.shape == rope_mass.shape == right.shape == (3, 7)
        for i in np.ndindex(3, 7):
            scalar = region_probs(float(delta0[i]), float(sigma0[i]), float(nu[i]), rope)
            assert all(p.shape == () for p in scalar)
            assert (left[i], rope_mass[i], right[i]) == scalar


class TestVerdictRule:
    def test_plain_argmax(self):
        assert verdict_of(0.7, 0.2, 0.1) == "left"
        assert verdict_of(0.1, 0.2, 0.7) == "right"
        assert verdict_of(0.2, 0.7, 0.1) == "rope"

    def test_rope_wins_ties(self):
        assert verdict_of(0.4, 0.4, 0.2) == "rope"
        assert verdict_of(0.2, 0.4, 0.4) == "rope"
        assert verdict_of(1 / 3, 1 / 3, 1 / 3) == "rope"

    def test_left_right_tie_is_rope(self):
        # A left/right tie above the rope favours neither side.
        assert verdict_of(0.45, 0.1, 0.45) == "rope"
        assert DecisionTriple(4, 1, 4).verdict == "rope"


class TestDecisionTriple:
    def test_probabilities_are_exact_ratios(self):
        t = DecisionTriple(n_left=1, n_rope=2, n_right=5)
        assert t.n_samples == 8
        assert t.p_left == 0.125
        assert t.p_rope == 0.25
        assert t.p_right == 0.625
        assert t.p_left + t.p_rope + t.p_right == 1.0

    def test_flipped_swaps_outer_counters(self):
        t = DecisionTriple(n_left=3, n_rope=4, n_right=13)
        f = t.flipped()
        assert (f.n_left, f.n_rope, f.n_right) == (13, 4, 3)
        assert f.flipped() == t

    def test_verdict_property(self):
        assert DecisionTriple(5, 3, 2).verdict == "left"
        assert DecisionTriple(2, 5, 3).verdict == "rope"
        assert DecisionTriple(2, 3, 5).verdict == "right"

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionTriple(-1, 1, 1)
        with pytest.raises(ValueError):
            DecisionTriple(0, 0, 0)


class TestTally:
    def test_counters_conserve_samples(self):
        rng = np.random.default_rng(0)
        post = synthetic_chains(
            rng.normal(0.0, 0.03, size=4000),
            rng.uniform(0.001, 0.05, size=4000),
            rng.uniform(1.0, 30.0, size=4000),
        )
        triple = tally(post, RopeInterval(0.01))
        assert triple.n_samples == 4000

    def test_antisymmetry_is_exact(self):
        rng = np.random.default_rng(1)
        delta0 = rng.normal(0.0, 0.05, size=2000)
        sigma0 = rng.uniform(0.0005, 0.05, size=2000)
        nu = rng.uniform(1.0, 40.0, size=2000)
        post = synthetic_chains(delta0, sigma0, nu)
        mirrored = synthetic_chains(-delta0, sigma0, nu)
        rope = RopeInterval(0.01)
        fwd = tally(post, rope)
        rev = tally(mirrored, rope)
        assert fwd == rev.flipped()

    def test_rope_mass_monotone_in_halfwidth(self):
        rng = np.random.default_rng(2)
        post = synthetic_chains(
            rng.normal(0.0, 0.02, size=1000),
            rng.uniform(0.001, 0.03, size=1000),
            rng.uniform(1.0, 10.0, size=1000),
        )
        widths = [0.0, 0.002, 0.005, 0.01, 0.03, 0.1]
        ropes = [tally(post, RopeInterval(w)).n_rope for w in widths]
        assert ropes == sorted(ropes)
        assert ropes[0] == 0

    def test_standardization_constant_rescales_rope(self):
        rng = np.random.default_rng(3)
        delta0 = rng.normal(0.0, 1.5, size=1000)
        sigma0 = rng.uniform(0.1, 2.0, size=1000)
        nu = rng.uniform(1.0, 10.0, size=1000)
        raw = synthetic_chains(delta0, sigma0, nu, constant=1.0)
        std = synthetic_chains(delta0, sigma0, nu, constant=0.02)
        # Same draws, but the second posterior speaks standardized units
        # worth 0.02 raw each: the raw rope must shrink accordingly.
        a = tally(raw, RopeInterval(0.5))
        b = tally(std, RopeInterval(0.5 * 0.02))
        assert a == b

    def test_decisions_match_per_draw_argmax(self):
        post = synthetic_chains(
            [0.05, -0.05, 0.0, 0.002], [0.01, 0.01, 0.001, 0.001], [5.0, 5.0, 5.0, 5.0]
        )
        triple = tally(post, RopeInterval(0.01))
        assert (triple.n_left, triple.n_rope, triple.n_right) == (1, 2, 1)

    def test_point_mass_and_regular_draws_match_per_draw_verdicts(self):
        rng = np.random.default_rng(4)
        n = 600
        delta0 = rng.normal(0.0, 0.02, size=n)
        sigma0 = rng.uniform(0.0005, 0.02, size=n)
        sigma0[::3] = 0.0
        delta0[:12:3] = [-0.01, 0.01, -0.0100001, 0.0100001]
        nu = rng.uniform(1.0, 30.0, size=n)
        rope = RopeInterval(0.01)
        counts = {"left": 0, "rope": 0, "right": 0}
        for d0, s0, v in zip(delta0, sigma0, nu):
            counts[verdict_of(*region_probs(float(d0), float(s0), float(v), rope))] += 1
        triple = tally(synthetic_chains(delta0, sigma0, nu), rope)
        assert triple == DecisionTriple(
            n_left=counts["left"], n_rope=counts["rope"], n_right=counts["right"]
        )
        assert min(counts.values()) > 0


def _edge(holds, x: float, rising: bool) -> float:
    """The float nearest ``x`` on the true side of the edge of ``holds``,
    a test that turns true as its argument rises (or, with ``rising``
    false, as it falls), whose neighbour on the other side is false."""
    toward_true = math.inf if rising else -math.inf
    while not holds(x):
        x = float(np.nextafter(x, toward_true))
    while holds(float(np.nextafter(x, -toward_true))):
        x = float(np.nextafter(x, -toward_true))
    return x


def _ulps_around(x: float) -> list[float]:
    return [float(np.nextafter(x, -math.inf)), x, float(np.nextafter(x, math.inf))]


class TestCountDraws:
    """count_draws settles draws by the median and Cauchy rules and must
    count exactly what the kernel's per-draw argmax counts."""

    def test_cauchy_tail_bounds_every_t_tail(self):
        # For nu >= 1 the ratio f_nu / f_1 of the densities rises on
        # [0, 1] and falls after it, toward 0, and f_nu(0) >= 1/pi = f_1(0);
        # so f_nu - f_1 changes sign once on [0, inf), from + to -, and the
        # tail of t_nu past any z >= 0 is at most the Cauchy tail.
        nu = np.logspace(0.0, 7.0, 120)[:, None]
        assert nu[0, 0] == 1.0
        z = np.concatenate([np.linspace(0.0, 10.0, 1001), np.logspace(1.0, 4.0, 300)])[None, :]
        sf = scipy.stats.t.sf(z, nu)
        # 1/2 - arctan(z)/pi, written without its cancellation at large z.
        # At nu = 1 the two are one function, and scipy's t.sf strays from
        # it by up to 22 ulps near z = 0.
        cauchy = np.arctan2(1.0, z) / math.pi
        assert np.all(sf <= cauchy + 32 * np.spacing(cauchy))
        assert np.all(scipy.stats.t.pdf(0.0, nu) >= 1.0 / math.pi)

    def test_margins_leave_room_for_the_kernel_error(self):
        # std_t_cdf is within 1e-10 of scipy per tail; each rule's winner
        # must lead by far more than the errors of three masses.
        c = decision._CAUCHY_RATIO
        assert c > math.tan(math.pi / 6)
        tail = 0.5 - math.atan(c) / math.pi
        assert tail < 1.0 / 3.0
        assert 3 * (1.0 / 3.0 - tail) > 1e5 * 1e-10
        nu = np.logspace(0.0, 7.0, 50)
        lead = 2 * (scipy.stats.t.cdf(decision._MEDIAN_MARGIN, nu) - 0.5)
        assert lead.min() > 1e3 * 1e-10

    def test_boundaries_match_the_kernel_draw_by_draw(self):
        c, m = decision._CAUCHY_RATIO, decision._MEDIAN_MARGIN
        nus = (1.0, float(np.nextafter(1.0, 0.0)), 2.5, 1e6)
        for r in (0.0, 0.01, 1.0):
            rope = RopeInterval(r)
            draws = []
            for s0 in (0.0, 1e-3, 0.01, 0.02, 3.0):
                offsets = _ulps_around(r)
                if s0 > 0.0:
                    offsets += _ulps_around(_edge(lambda a: a - r > m * s0, r + m * s0, True))
                if r > c * s0 > 0.0:
                    offsets += _ulps_around(_edge(lambda a: r - a >= c * s0, r - c * s0, False))
                draws += [(a, s0, nu) for a in offsets if a >= 0.0 for nu in nus]
            d0, s0, nu = (np.array(v) for v in zip(*draws))
            for sign in (1.0, -1.0):
                for i in range(d0.size):
                    one = (sign * d0[i : i + 1], s0[i : i + 1], nu[i : i + 1])
                    assert count_draws(*one, rope) == classify_draws(*one, rope)[1], one
            assert count_draws(d0, s0, nu, rope) == classify_draws(d0, s0, nu, rope)[1]
            assert count_draws(-d0, s0, nu, rope) == count_draws(d0, s0, nu, rope).flipped()

    def test_sign_flip_mirrors_bit_for_bit_ties_included(self):
        rng = np.random.default_rng(20201)
        n = 4000
        d0 = rng.normal(0.0, 0.03, n)
        s0 = rng.uniform(0.0, 0.05, n)
        nu = np.exp(rng.uniform(math.log(0.5), math.log(1e3), n))
        # Draws whose two tails tie exactly: delta0 of either zero, with a
        # sigma0 wide against the rope, so the tie sits above the rope.
        d0[:300:2], d0[1:300:2] = 0.0, -0.0
        s0[:300] = rng.uniform(0.1, 3.0, 300)
        # Point masses, at zero and elsewhere.
        s0[300:400] = 0.0
        d0[300:350] = 0.0
        for r in (0.0, 0.001, 0.01):
            rope = RopeInterval(r)
            (p_left, p_rope, p_right), kernel = classify_draws(d0, s0, nu, rope)
            assert np.all(p_left[:300] == p_right[:300]) and np.all(p_rope[:300] < p_left[:300])
            counted = count_draws(d0, s0, nu, rope)
            assert counted == kernel
            assert count_draws(-d0, s0, nu, rope) == counted.flipped()
        # Every small triple's verdict mirrors, ties included.
        mirror = {"left": "right", "rope": "rope", "right": "left"}
        for n_left, n_rope, n_right in np.ndindex(5, 5, 5):
            verdict = verdict_of(n_left, n_rope, n_right)
            assert verdict_of(n_right, n_rope, n_left) == mirror[verdict]

    def test_point_masses_keep_the_closed_rope(self):
        r = 0.01
        a = np.array(_ulps_around(r))
        d0 = np.concatenate([a, -a])
        counted = count_draws(d0, np.zeros(6), np.ones(6), RopeInterval(r))
        assert counted == DecisionTriple(n_left=1, n_rope=4, n_right=1)

    def test_settled_draws_never_reach_the_kernel(self, monkeypatch):
        seen = []
        kernel = decision.region_probs

        def spy(delta0, sigma0, nu, rope):
            seen.append(np.asarray(delta0, dtype=float).copy())
            return kernel(delta0, sigma0, nu, rope)

        monkeypatch.setattr(decision, "region_probs", spy)
        rope = RopeInterval(0.01)
        # Each draw's delta0 is distinct, so the spy can tell them apart.
        settled = [(0.5, 0.001, 3.0), (-0.03, 0.01, 1.0), (0.0, 0.001, 2.0),
                   (0.004, 0.005, 40.0), (0.011, 0.0, 1.0), (-0.01, 0.0, 7.0)]
        unsettled = [(0.01 + 1e-10, 0.01, 3.0), (0.005, 0.02, 5.0), (-0.2, 0.01, 0.5),
                     (0.002, 0.01, float(np.nextafter(1.0, 0.0)))]
        d0, s0, nu = (np.array(v) for v in zip(*settled))
        assert count_draws(d0, s0, nu, rope) == DecisionTriple(n_left=1, n_rope=3, n_right=2)
        assert sum(v.size for v in seen) == 0
        d0, s0, nu = (np.array(v) for v in zip(*(settled + unsettled)))
        counted = count_draws(d0, s0, nu, rope)
        assert sorted(np.concatenate(seen)) == sorted(d for d, _, _ in unsettled)
        verdicts = [verdict_of(*kernel(*draw, rope)) for draw in settled + unsettled]
        assert counted == DecisionTriple(*(verdicts.count(v) for v in ("left", "rope", "right")))

    @pytest.mark.parametrize(
        "column, value",
        [(2, math.nan), (1, -0.001), (2, math.inf), (0, math.inf), (1, math.inf)],
        ids=["nan nu", "negative sigma0", "infinite nu", "infinite delta0", "infinite sigma0"],
    )
    def test_a_damaged_draw_is_rejected_where_a_rule_would_settle_it(self, column, value):
        # Draw 3 would be counted "right" (or rope, for sigma0 = inf) by
        # a rule that ran before the check.
        draws = [np.full(10, 0.5), np.full(10, 0.001), np.full(10, 5.0)]
        if column == 1 and value == math.inf:
            draws[0][3] = 0.0
        draws[column][3] = value
        with pytest.raises(ValueError, match="draws need a finite delta0"):
            tally(synthetic_chains(*draws), RopeInterval(0.01))


class TestSimplexCoordinates:
    def test_vertices(self):
        # simplex_points takes (p_rope, p_right); p_left is the remainder.
        assert tuple(simplex_points(0.0, 0.0)) == (0.0, 0.0)
        assert tuple(simplex_points(0.0, 1.0)) == (1.0, 0.0)
        x, y = simplex_points(1.0, 0.0)
        assert (x, y) == (0.5, pytest.approx(math.sqrt(3) / 2))

    def test_centroid(self):
        x, y = simplex_points(1 / 3, 1 / 3)
        assert x == pytest.approx(0.5)
        assert y == pytest.approx(math.sqrt(3) / 6)


class TestRank:
    def test_total_order(self):
        result = rank(
            {
                ("a", "b"): "left",
                ("a", "c"): "left",
                ("b", "c"): "left",
            }
        )
        assert result.consistent
        assert result.chain == "a < b < c"
        assert result.classes == (("a",), ("b",), ("c",))

    def test_equivalence_groups(self):
        result = rank(
            {
                ("tnt", "collins"): "left",
                ("tnt", "lapos"): "left",
                ("collins", "lapos"): "rope",
            }
        )
        assert result.consistent
        assert result.chain == "tnt < collins ≈ lapos"

    def test_all_rope(self):
        result = rank(
            {("a", "b"): "rope", ("a", "c"): "rope", ("b", "c"): "rope"}
        )
        assert result.chain == "a ≈ b ≈ c"
        assert result.classes == (("a", "b", "c"),)

    def test_labels_preserved(self):
        result = rank({("x", "y"): "right"})
        assert result.labels == (("x", ">", "y"),)
        assert result.chain == "y < x"

    def test_cycle_is_inconsistent(self):
        result = rank(
            {
                ("a", "b"): "right",
                ("b", "c"): "right",
                ("c", "a"): "right",
            }
        )
        assert not result.consistent
        assert result.chain is None
        assert result.conflicts

    def test_strict_difference_inside_equivalence_class(self):
        result = rank(
            {
                ("a", "b"): "rope",
                ("b", "c"): "rope",
                ("a", "c"): "right",
            }
        )
        assert not result.consistent
        assert any("a" in c and "c" in c for c in result.conflicts)

    def test_missing_pair(self):
        with pytest.raises(ValueError, match=re.escape("no verdict for pairs: [('a', 'c')]")):
            rank({("a", "b"): "left", ("b", "c"): "left"})

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            rank({("a", "a"): "rope", ("a", "b"): "left", ("b", "a"): "left"})

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            rank({("a", "b"): "left", ("b", "a"): "right", ("a", "c"): "left", ("b", "c"): "left"})


class TestReportCsv:
    def rows(self):
        return [
            ReportRow("alpha", "beta", "token", DecisionTriple(10, 85, 5), 0.01),
            ReportRow("alpha", "gamma", "token", DecisionTriple(50000, 0, 0), 0.02),
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(self.rows(), path)
        back = read_report_csv(path)
        assert len(back) == 2
        for ours, theirs in zip(self.rows(), back):
            assert theirs.system_a == ours.system_a
            assert theirs.triple == ours.triple
            assert theirs.rope_halfwidth == ours.rope_halfwidth

    def test_manifest_comment(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(self.rows(), path, manifest="m.txt")
        assert path.read_text().startswith("# manifest: m.txt\n")
        assert len(read_report_csv(path)) == 2

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Before the comment line, so it still reads as one, and line
        # numbers still count from it.
        path = tmp_path / "r.csv"
        write_report_csv(self.rows(), path, manifest="m.txt")
        text = path.read_text(encoding="utf-8")
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert [r.triple for r in read_report_csv(path)] == [r.triple for r in self.rows()]
        path.write_text("\ufeff" + text.replace(",left,", ",right,"), encoding="utf-8")
        with pytest.raises(ValueError, match=r"r\.csv:4: verdict 'right' does not match"):
            read_report_csv(path)

    def test_header_written(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(self.rows(), path)
        header = path.read_text().splitlines()[0]
        assert header == (
            "system_a,system_b,metric,p_left,p_rope,p_right,verdict,n_samples,rope_halfwidth"
        )

    def test_inconsistent_probabilities_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(
            "system_a,system_b,metric,p_left,p_rope,p_right,verdict,n_samples,rope_halfwidth\n"
            "a,b,token,0.5,0.2,0.2,left,100,0.01\n"
        )
        with pytest.raises(ValueError):
            read_report_csv(path)

    def test_errors_name_the_physical_line(self, tmp_path):
        # Line 1 is the manifest comment every written report starts with.
        path = tmp_path / "rep.csv"
        write_report_csv(self.rows(), path, manifest="x")
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].rsplit(",", 1)[0] + ",x\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError, match=r"rep\.csv:3: could not convert string to float"):
            read_report_csv(path)

    def test_a_quoted_line_break_moves_later_line_numbers(self, tmp_path):
        # The record on lines 3-4 holds a quoted line break in its metric;
        # the bad row after it is on line 5.
        path = tmp_path / "multi.csv"
        path.write_text(
            "# manifest: x\n" + ",".join(REPORT_COLUMNS) + "\n"
            'a,b,"tok\nen",0.1,0.8,0.1,rope,10,0.01\n'
            "a,c,token,0.1,0.8,0.1,rope,10,x\n"
        )
        with pytest.raises(ValueError, match=r"multi\.csv:5: could not convert"):
            read_report_csv(path)

    def test_header_cells_may_carry_surrounding_spaces(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv(self.rows(), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = ", ".join(REPORT_COLUMNS) + " \n"
        path.write_text("".join(lines))
        assert [r.triple for r in read_report_csv(path)] == [r.triple for r in self.rows()]

    def test_a_verdict_other_than_the_probabilities_give_is_rejected(self, tmp_path):
        path = tmp_path / "rep.csv"
        write_report_csv(self.rows(), path, manifest="x")
        text = path.read_text()
        assert "alpha,gamma,token,1.0,0.0,0.0,left," in text
        path.write_text(text.replace(",left,", ",right,"))
        with pytest.raises(ValueError, match=r"rep\.csv:4: verdict 'right' does not match"):
            read_report_csv(path)


class TestRopeFromDifferences:
    def test_half_central_interval(self):
        x = np.linspace(-1.0, 1.0, 201)
        series = [DifferenceSeries("d", x, rho=0.1)]
        rope = rope_from_differences(series)
        lo, hi = np.quantile(x, [0.025, 0.975])
        assert rope.halfwidth == pytest.approx((hi - lo) / 2)

    def test_pools_datasets(self):
        a = DifferenceSeries("a", np.full(50, -0.2), rho=0.1)
        b = DifferenceSeries("b", np.full(50, 0.2), rho=0.1)
        rope = rope_from_differences([a, b])
        assert 0.15 < rope.halfwidth <= 0.2


class TestEndToEndTally:
    def test_fitted_posterior_close_to_analytic_expectation(self):
        # Strongly separated systems: nearly every draw should land right.
        series = generate(6, 3, 5, 0.05, 0.003, 10.0, 0.1, (0.005, 0.01), seed=20)
        post = fit(series, ModelConfig(chains=2, samples_per_chain=2000, warmup=800, seed=21))
        triple = tally(post, RopeInterval(0.01))
        assert triple.p_right > 0.95
        flipped_series = [DifferenceSeries(s.dataset_id, -s.x, s.rho) for s in series]
        post2 = fit(flipped_series, ModelConfig(chains=2, samples_per_chain=2000, warmup=800, seed=21))
        triple2 = tally(post2, RopeInterval(0.01))
        assert triple2.p_left > 0.95
