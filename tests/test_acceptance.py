"""Acceptance gates: eight numbered end-to-end checks run by ``pytest -v``.

Each gate is one test with its own tolerance and, where stated, a
wall-clock budget, so the verbose test report shows one pass/fail line
per gate. The oracles here are intentionally independent of the library
internals: dense linear algebra for the quadratic form, adaptive quadrature
for the t distribution, and brute-force Monte Carlo for the decision
probabilities.
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from bayescv.cli import main as cli_main
from bayescv.decision import RopeInterval, count_draws, read_report_csv, region_probs, tally
from bayescv.metrics import TaggedCorpus, oov_accuracy, sentence_accuracy, token_accuracy
from bayescv.model import ModelConfig, PosteriorChains, correlated_ttest, fit, generate
from bayescv.scores import DifferenceSeries, ScoreMatrix
from bayescv.statcore import StudentT, cs_quad_form, cs_stats, rng_fork, std_t_cdf, t_sample
from oracles import cs_dense, t_logpdf

FIXTURES = Path(__file__).parent / "fixtures"


def quadrature_t_cdf(x: float, dist: StudentT) -> float:
    """CDF by integrating the density outward from the location."""
    mass, _ = integrate.quad(
        lambda u: math.exp(t_logpdf(u, dist.location, dist.scale, dist.dof)),
        dist.location, x, epsabs=1e-13, limit=300,
    )
    return 0.5 + mass


def synthetic_chains(rng: np.random.Generator, draws: int) -> PosteriorChains:
    """Population draws laid out as two chains, enough for tally()."""
    half = draws // 2
    shape = (2, half)
    return PosteriorChains(
        dataset_ids=("d0",),
        draws=np.dstack([
            rng.normal(0.0, 1.2, size=shape),
            rng.uniform(0.05, 1.5, size=shape),
            rng.uniform(1.0, 30.0, size=shape),
            np.zeros(shape + (1,)),
            np.ones(shape + (1,)),
        ]),
        standardization_constant=1.0,
        config=ModelConfig(),
    )


def negated(post: PosteriorChains) -> PosteriorChains:
    """delta0 and every delta_i negated; columns follow parameter_names()."""
    q = len(post.dataset_ids)
    return PosteriorChains(
        dataset_ids=post.dataset_ids,
        draws=post.draws * np.array([-1.0, 1.0, 1.0] + [-1.0] * q + [1.0] * q),
        standardization_constant=post.standardization_constant,
        config=post.config,
    )


def test_acceptance_1_kernel_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    # The sampler's step 5 draws each sigma_i from the quadratic form of
    # its data at delta_i; the dense one solves against the full matrix.
    worst_quad = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 21))
        lo = -1.0 / (n - 1) if n > 1 else -1.0
        rho = float(rng.uniform(0.8 * lo, 0.95))
        variance = float(rng.uniform(0.1, 4.0))
        mean = float(rng.normal(0.0, 2.0))
        x = rng.normal(mean, 1.0, size=n)
        ours = cs_quad_form(cs_stats(x, rho), mean) / variance
        resid = x - mean
        dense = float(resid @ np.linalg.solve(cs_dense(n, variance, rho), resid))
        worst_quad = max(worst_quad, abs(ours - dense) / max(1.0, dense))
    assert worst_quad <= 1e-10

    worst_cdf = 0.0
    for nu in (1.0, 2.0, 5.0, 30.0):
        dist = StudentT(location=0.0, scale=1.0, dof=nu)
        for x in np.linspace(-5.0, 5.0, 21):
            gap = abs(float(std_t_cdf(float(x), nu)) - quadrature_t_cdf(float(x), dist))
            worst_cdf = max(worst_cdf, gap)
    assert worst_cdf <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"gate 1: quad form err {worst_quad:.2e}, cdf err {worst_cdf:.2e}, {elapsed:.1f}s")


def test_acceptance_2_decision_algebra():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    cases = 1000
    worst_sum = 0.0
    for _ in range(cases):
        d0 = float(rng.normal(0.0, 1.5))
        s0 = float(rng.uniform(0.02, 2.0))
        nu = float(rng.uniform(1.0, 40.0))
        widths = np.sort(rng.uniform(0.0, 2.0, size=3))

        # Region masses partition the line: they sum to one.
        probs = region_probs(d0, s0, nu, RopeInterval(float(widths[1])))
        worst_sum = max(worst_sum, abs(sum(probs) - 1.0))

        # Sign flip mirrors the regions exactly, down to the last bit.
        mirrored = region_probs(-d0, s0, nu, RopeInterval(float(widths[1])))
        assert mirrored == (probs[2], probs[1], probs[0])

        post = synthetic_chains(rng, draws=24)
        triples = [tally(post, RopeInterval(float(w))) for w in widths]

        # Conservation: every draw lands in exactly one counter.
        for triple in triples:
            assert triple.n_left + triple.n_rope + triple.n_right == post.delta0.size

        # Widening the rope on fixed chains never loses rope draws.
        assert triples[0].n_rope <= triples[1].n_rope <= triples[2].n_rope

        # Negating the draws swaps left and right exactly.
        assert tally(negated(post), RopeInterval(float(widths[1]))) == triples[1].flipped()

    assert worst_sum <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"gate 2: {cases} cases, sum err {worst_sum:.1e}, {elapsed:.1f}s")


def test_acceptance_3_generate_then_recover():
    start = time.perf_counter()
    series = generate(
        q=8, m=5, k=10,
        delta0=0.02, sigma0=0.005, nu=5.0, rho=0.1,
        sigma_range=(0.005, 0.015), seed=424242,
    )
    post = fit(series, config=ModelConfig())
    elapsed = time.perf_counter() - start

    raw_mean = float(np.mean(post.delta0)) * post.standardization_constant
    assert abs(raw_mean - 0.02) <= 0.005
    for name in ("delta0", "sigma0", "nu"):
        diag = post.diagnostics[name]
        assert diag.r_hat < 1.05
        assert diag.ess > 400.0
    assert elapsed < 120.0
    print(f"gate 3: mean {raw_mean:.4f} (truth 0.02), {elapsed:.1f}s")


def test_acceptance_4_directional_soundness():
    rope = RopeInterval(0.01)

    start = time.perf_counter()
    strong = generate(
        q=8, m=5, k=10,
        delta0=0.03, sigma0=0.005, nu=5.0, rho=0.1,
        sigma_range=(0.005, 0.015), seed=777,
    )
    post = fit(strong, config=ModelConfig())
    triple_strong = tally(post, rope)
    elapsed_strong = time.perf_counter() - start
    assert triple_strong.p_right >= 0.9
    assert elapsed_strong < 120.0

    start = time.perf_counter()
    null = generate(
        q=8, m=5, k=10,
        delta0=0.0, sigma0=0.002, nu=5.0, rho=0.1,
        sigma_range=(0.005, 0.015), seed=888,
    )
    post_null = fit(null, config=ModelConfig())
    triple_null = tally(post_null, rope)
    elapsed_null = time.perf_counter() - start
    assert triple_null.p_rope >= 0.6
    assert elapsed_null < 120.0
    print(
        f"gate 4: p_right {triple_strong.p_right:.3f} ({elapsed_strong:.1f}s), "
        f"p_rope {triple_null.p_rope:.3f} ({elapsed_null:.1f}s)"
    )


def test_acceptance_5_single_dataset_consistency():
    rng = np.random.default_rng(55)
    worst = 0.0
    for i in range(20):
        series = generate(
            q=1, m=5, k=10,
            delta0=float(rng.uniform(-0.03, 0.03)),
            sigma0=float(rng.uniform(0.002, 0.01)),
            nu=float(rng.uniform(3.0, 20.0)),
            rho=float(rng.uniform(0.05, 0.3)),
            sigma_range=(0.005, 0.02), seed=1000 + i,
        )[0]
        post = correlated_ttest(series)
        rope = RopeInterval(float(rng.uniform(0.005, 0.02)))
        analytic = region_probs(post.location, post.scale, post.dof, rope)
        # Sampled and counted as compare does for one shared data set:
        # each mean difference is a point-mass draw.
        n = 1_000_000
        means = t_sample(post, rng_fork(9000 + i, 0), size=n)
        sampled = count_draws(means, np.zeros(n), np.ones(n), rope)
        gap = max(
            abs(analytic[0] - sampled.p_left),
            abs(analytic[1] - sampled.p_rope),
            abs(analytic[2] - sampled.p_right),
        )
        worst = max(worst, gap)
        assert gap <= 0.01
    print(f"gate 5: 20 series, worst analytic-vs-sampled gap {worst:.4f}")


def test_acceptance_6_toy_protocol(tmp_path):
    start = time.perf_counter()
    corpus = FIXTURES / "toy_corpus.tsv"
    taggers = {
        "maj": FIXTURES / "majority_tagger.py",
        "lex": FIXTURES / "lexicon_tagger.py",
    }
    assert cli_main([
        "split", "--n", "200", "--k", "10", "--m", "20", "--seed", "41",
        "--out-prefix", str(tmp_path / "toy"),
    ]) == 0
    for system, script in taggers.items():
        rc = cli_main([
            "score", "--plan", str(tmp_path / "toy.plan.json"),
            "--corpus", str(corpus), "--dataset", "toy", "--system", system,
            "--command", f"{sys.executable} {script} {{train}} {{test}} {{pred}}",
            "--metrics", "token,sentence", "--workers", "4",
            "--out-prefix", str(tmp_path / system),
        ])
        assert rc == 0
        matrix = ScoreMatrix.from_csvs([tmp_path / f"{system}.scores.csv"])
        for metric in ("token", "sentence"):
            count = sum(1 for key in matrix.entries if key[1] == system and key[2] == metric)
            assert count == 200

    rc = cli_main([
        "compare", "--scores", str(tmp_path / "lex.scores.csv"),
        str(tmp_path / "maj.scores.csv"),
        "--a", "lex", "--b", "maj", "--metric", "token", "--rope", "0.01",
        "--seed", "5", "--out-prefix", str(tmp_path / "pair"),
    ])
    assert rc == 0

    rc = cli_main([
        "compare", "--scores", str(tmp_path / "lex.scores.csv"),
        "--a", "lex", "--b", "lex", "--metric", "token", "--rope", "0.01",
        "--seed", "5", "--out-prefix", str(tmp_path / "self"),
    ])
    assert rc == 0
    rows = read_report_csv(tmp_path / "self.report.csv")
    assert rows[0].triple.verdict == "rope"
    assert rows[0].triple.p_rope > 0.99

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"gate 6: 200 scores per system per metric, self p_rope "
          f"{rows[0].triple.p_rope:.4f}, {elapsed:.1f}s")


def test_acceptance_7_metrics_exactness():
    gold = TaggedCorpus.from_pairs([
        [("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")],
        [("dogs", "NOUN"), ("bark", "VERB")],
    ])
    pred = TaggedCorpus.from_pairs([
        [("the", "DET"), ("cat", "VERB"), ("sat", "VERB")],
        [("dogs", "NOUN"), ("bark", "VERB")],
    ])
    assert token_accuracy(gold, pred) == 4.0 / 5.0
    assert sentence_accuracy(gold, pred) == 1.0 / 2.0
    vocab = frozenset({"the", "cat", "sat"})
    assert oov_accuracy(vocab, gold, pred) == 2.0 / 2.0
    vocab_wide = frozenset({"the", "sat", "dogs", "bark"})
    assert oov_accuracy(vocab_wide, gold, pred) == 0.0 / 1.0

    # With every sentence the same length, perfect sentences contribute
    # exactly L correct tokens each, so the token rate can never fall
    # below the sentence rate. (Mixed lengths can break this; the metrics
    # unit tests carry a three-sentence counterexample.)
    rng = np.random.default_rng(707)
    for _ in range(1000):
        n_sentences = int(rng.integers(1, 13))
        length = int(rng.integers(1, 9))
        tags = [f"T{j}" for j in range(int(rng.integers(2, 6)))]
        hit_rate = float(rng.uniform(0.2, 0.95))
        gold_sents, pred_sents = [], []
        for s in range(n_sentences):
            gold_row, pred_row = [], []
            for t in range(length):
                token = f"w{s}_{t}"
                tag = tags[int(rng.integers(len(tags)))]
                gold_row.append((token, tag))
                if rng.random() < hit_rate:
                    pred_row.append((token, tag))
                else:
                    others = [x for x in tags if x != tag]
                    pred_row.append((token, others[int(rng.integers(len(others)))]))
            gold_sents.append(gold_row)
            pred_sents.append(pred_row)
        g = TaggedCorpus.from_pairs(gold_sents)
        p = TaggedCorpus.from_pairs(pred_sents)
        assert token_accuracy(g, p) >= sentence_accuracy(g, p)
    print("gate 7: hand counts exact, token >= sentence on 1000 corpora")


def test_acceptance_8_scale_invariance():
    # The sampler is seeded identically for both runs, but bit-level
    # rounding in the standardized sufficient statistics can tip an
    # accept/reject decision, after which the two trajectories part ways.
    # The triples still agree because both runs target the same
    # standardized posterior; 100k draws keep the Monte Carlo error of
    # each component at or under 1.4e-3 (from the ESS of its winner
    # indicator: 0.0008, 0.0012 and 0.0013), so a gap between two
    # independent runs has a standard deviation under 2e-3, a fifth of
    # the 0.01 tolerance.
    config = ModelConfig(chains=40, samples_per_chain=2500, warmup=500, seed=11)
    series = generate(
        q=4, m=5, k=10,
        delta0=0.012, sigma0=0.004, nu=8.0, rho=0.1,
        sigma_range=(0.005, 0.015), seed=3030,
    )
    post = fit(series, config=config)
    triple = tally(post, RopeInterval(0.01))

    scaled = [
        DifferenceSeries(dataset_id=s.dataset_id, x=s.x * 10.0, rho=s.rho)
        for s in series
    ]
    post10 = fit(scaled, config=config)
    triple10 = tally(post10, RopeInterval(0.10))

    assert post.converged and post10.converged
    ratio = post10.standardization_constant / post.standardization_constant
    assert abs(ratio - 10.0) <= 1e-12 * 10.0

    gaps = (
        abs(triple.p_left - triple10.p_left),
        abs(triple.p_rope - triple10.p_rope),
        abs(triple.p_right - triple10.p_right),
    )
    assert max(gaps) < 0.01
    print(
        f"gate 8: x1 triple {triple.p_left:.4f}/{triple.p_rope:.4f}/{triple.p_right:.4f}, "
        f"x10 triple {triple10.p_left:.4f}/{triple10.p_rope:.4f}/{triple10.p_right:.4f}, "
        f"max gap {max(gaps):.5f}"
    )
