"""Regenerate the committed test fixtures. Run from the repository root:

    python3 tests/fixtures/make_fixtures.py

Everything is seeded, so reruns reproduce the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from bayescv.metrics import Sentence, TaggedCorpus, write_corpus
from bayescv.model import generate
from bayescv.scores import ScoreMatrix

HERE = Path(__file__).resolve().parent

DETERMINERS = ["the", "a", "this", "that"]
NOUNS = ["cat", "dog", "bird", "fish", "tree", "house", "river", "stone"]
VERBS = ["sees", "finds", "chases", "likes", "watches"]
ADJS = ["small", "old", "green", "quiet"]


def build_toy_corpus(n_sentences: int = 200, seed: int = 123) -> TaggedCorpus:
    """Sentences of the form DET (ADJ) NOUN VERB DET NOUN RARE, where the
    trailing RARE token is unique to its sentence so that every evaluation
    fold contains out-of-vocabulary tokens no matter how the items are split.
    """
    rng = np.random.default_rng(seed)
    sentences = []
    for i in range(n_sentences):
        tokens = [DETERMINERS[rng.integers(len(DETERMINERS))]]
        tags = ["DET"]
        if rng.random() < 0.5:
            tokens.append(ADJS[rng.integers(len(ADJS))])
            tags.append("ADJ")
        tokens.append(NOUNS[rng.integers(len(NOUNS))])
        tags.append("NOUN")
        tokens.append(VERBS[rng.integers(len(VERBS))])
        tags.append("VERB")
        tokens.append(DETERMINERS[rng.integers(len(DETERMINERS))])
        tags.append("DET")
        tokens.append(NOUNS[rng.integers(len(NOUNS))])
        tags.append("NOUN")
        tokens.append(f"rare{i}")
        tags.append("NOUN" if rng.random() < 0.7 else "ADJ")
        sentences.append(Sentence(tuple(tokens), tuple(tags)))
    return TaggedCorpus(tuple(sentences))


def scores_from_series(series, k: int, base: float, system_a: str, system_b: str) -> ScoreMatrix:
    """Map difference series of a k-fold design onto a pair of systems:
    a = base + x/2, b = base - x/2, so a - b reproduces x exactly."""
    matrix = ScoreMatrix()
    for s in series:
        for idx, x in enumerate(s.x):
            rep, fold = divmod(idx, k)
            a = base + x / 2.0
            b = base - x / 2.0
            if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
                raise ValueError(f"score out of range: {a}, {b}")
            matrix.add(s.dataset_id, system_a, "token", rep, fold, a)
            matrix.add(s.dataset_id, system_b, "token", rep, fold, b)
    return matrix


def paper_shape_scores(seed: int = 5) -> ScoreMatrix:
    """Six taggers t0-t5 on data sets d0 and d1, with m = k = 10.

    A score is the data set's base (0.90 for d0, 0.86 for d1), plus the
    system's offset, plus a fold effect shared by the systems, N(0, 0.004^2)
    per cell, plus noise N(0, 0.002^2) per score. One generator draws the
    fold vectors of d0 and d1 first, then each system's noise, data set by
    data set.
    """
    m = k = 10
    offsets = (0.0, 0.002, 0.01, 0.02, 0.03, 0.05)
    bases = {"d0": 0.90, "d1": 0.86}
    rng = np.random.default_rng(seed)
    fold_effects = {dataset: rng.normal(0.0, 0.004, m * k) for dataset in bases}
    matrix = ScoreMatrix()
    for dataset, base in bases.items():
        for j, offset in enumerate(offsets):
            noise = rng.normal(0.0, 0.002, m * k)
            for idx, score in enumerate(base + offset + fold_effects[dataset] + noise):
                rep, fold = divmod(idx, k)
                matrix.add(dataset, f"t{j}", "token", rep, fold, score)
    return matrix


def main() -> None:
    write_corpus(build_toy_corpus(), HERE / "toy_corpus.tsv")

    # Differences centred three rope halfwidths (0.01) to the right of
    # zero: "alpha" should beat "beta" decisively.
    series = generate(
        q=8, m=5, k=10, delta0=0.03, sigma0=0.005, nu=5.0,
        rho=0.1, sigma_range=(0.01, 0.02), seed=2024,
    )
    scores_from_series(series, 10, 0.85, "alpha", "beta").to_csv(HERE / "delta3rope_scores.csv")

    # Differences centred on zero with small spread: no winner.
    series = generate(
        q=2, m=5, k=10, delta0=0.0, sigma0=0.002, nu=5.0,
        rho=0.1, sigma_range=(0.005, 0.01), seed=77,
    )
    scores_from_series(series, 10, 0.5, "alpha", "beta").to_csv(HERE / "null_scores.csv")

    # Six systems in the shape of the paper's experiment.
    paper_shape_scores().to_csv(HERE / "paper_shape_scores.csv")
    print("fixtures written to", HERE)


if __name__ == "__main__":
    main()
