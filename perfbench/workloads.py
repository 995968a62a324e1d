"""Workload inputs and pipelines for the bayescv benchmark.

A workload builds its inputs from a seed, so the program only ever sees
generated files, and lists the CLI commands one repetition runs. Each
command names the data artifacts it must write and a check of their
content. Manifests are not data artifacts: they carry a UTC stamp.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from bayescv.metrics import TaggedCorpus, write_corpus
from bayescv.model import generate
from bayescv.scores import ScoreMatrix

M = 10
K = 10
ROPE = 0.01


@dataclass(frozen=True)
class Step:
    """One CLI child. ``argv`` follows ``python -m bayescv.cli``; its paths
    and ``outputs`` are relative to the working directory, which ``check``
    receives. ``check`` returns a failure message, or None. A command of
    well under a second is mostly interpreter start-up, so a repetition
    runs it ``repeat`` times to give its median enough samples."""

    name: str
    role: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Path], str | None]
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    """``sidecar``: the chains metadata file whose ESS the run records."""

    name: str
    build: Callable[[int, Path], None]
    steps: Callable[[int, int], list[Step]]
    sidecar: str | None = None


def _scores_csv(
    path: Path, system: str, scores: np.ndarray, dataset_ids: list[str]
) -> None:
    matrix = ScoreMatrix()
    for i, dataset in enumerate(dataset_ids):
        for j, value in enumerate(scores[i]):
            matrix.add(dataset, system, "token", j // K, j % K, float(value))
    matrix.to_csv(path)


def _write_systems(
    out_dir: Path, seed: int, offsets: list[np.ndarray], dataset_ids: list[str]
) -> None:
    """System s0 is a per-dataset base level plus fold noise; system s<j+1>
    adds the j-th (q, m*k) block of differences to it."""
    rng = np.random.default_rng([seed, 7])
    q = len(dataset_ids)
    base = rng.uniform(0.55, 0.8, size=(q, 1)) + rng.normal(0.0, 0.01, size=(q, M * K))
    systems = [base] + [base + d for d in offsets]
    for j, scores in enumerate(systems):
        if not (np.all(scores > 0.0) and np.all(scores < 1.0)):
            raise ValueError(f"synthetic scores of s{j} left (0, 1); change the generator")
        _scores_csv(out_dir / f"s{j}.scores.csv", f"s{j}", scores, dataset_ids)


def _differences(
    q: int, delta0: float, sigma0: float, sigma_range: tuple[float, float], seed: int
) -> tuple[np.ndarray, list[str]]:
    series = generate(
        q=q, m=M, k=K, delta0=delta0, sigma0=sigma0, nu=30.0, rho=1.0 / K,
        sigma_range=sigma_range, seed=seed,
    )
    return np.stack([s.x for s in series]), [s.dataset_id for s in series]


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.reader(line for line in handle if not line.startswith("#")))


# compare_q32 -----------------------------------------------------------------


def build_compare(seed: int, out_dir: Path) -> None:
    diff, ids = _differences(32, 0.02, 0.005, (0.01, 0.02), seed)
    _write_systems(out_dir, seed, [diff], ids)


def _check_verdict(work: Path) -> str | None:
    rows = _read_rows(work / "run/pair.report.csv")
    verdict = rows[1][rows[0].index("verdict")] if len(rows) == 2 else None
    return None if verdict == "right" else f"verdict {verdict!r}, expected 'right'"


def _check_svg(name: str) -> Callable[[Path], str | None]:
    def check(work: Path) -> str | None:
        text = (work / name).read_text(encoding="utf-8")
        return None if text.rstrip().endswith("</svg>") else f"{name} is not a complete SVG"

    return check


def compare_steps(seed: int, nproc: int) -> list[Step]:
    return [
        Step(
            "compare", "main",
            ("compare", "--scores", "inputs/s1.scores.csv", "inputs/s0.scores.csv",
             "--a", "s1", "--b", "s0", "--metric", "token", "--rope", str(ROPE),
             "--seed", str(seed), "--out-prefix", "run/pair"),
            ("run/pair.report.csv", "run/pair.chains.csv", "run/pair.chains.meta.txt"),
            _check_verdict,
        ),
        Step(
            "plot_chains", "aux",
            ("plot", "--chains", "run/pair.chains.csv", "--out-prefix", "run/pair.plot"),
            ("run/pair.plot.svg",),
            _check_svg("run/pair.plot.svg"),
        ),
    ]


# rank_q3_s4 ------------------------------------------------------------------

RANK_SYSTEMS = 4
RANK_ORDER = "s0 ≈ s1 < s2 < s3"


def build_rank(seed: int, out_dir: Path) -> None:
    offsets = []
    ids: list[str] = []
    for j, delta0 in enumerate((0.0, 0.05, 0.10)):
        diff, ids = _differences(3, delta0, 0.001, (0.002, 0.004), 3 * seed + j)
        offsets.append(diff)
    _write_systems(out_dir, seed, offsets, ids)


def _check_ranking(work: Path) -> str | None:
    lines = (work / "run/rank.ranking.txt").read_text(encoding="utf-8").splitlines()
    expected = f"ranking: {RANK_ORDER}"
    return None if expected in lines else f"ranking is {lines[-1]!r}, expected {expected!r}"


def rank_steps(seed: int, nproc: int) -> list[Step]:
    scores = [f"inputs/s{j}.scores.csv" for j in range(RANK_SYSTEMS)]
    return [
        Step(
            "rank", "main",
            ("rank", "--scores", *scores, "--metric", "token", "--rope", str(ROPE),
             "--seed", str(seed), "--out-prefix", "run/rank"),
            ("run/rank.pairs.csv", "run/rank.ranking.txt"),
            _check_ranking,
        ),
        Step(
            "plot_report", "aux",
            ("plot", "--report", "run/rank.pairs.csv", "--out-prefix", "run/rank.plot"),
            ("run/rank.plot.svg",),
            _check_svg("run/rank.plot.svg"),
            repeat=10,
        ),
    ]


# score_cp --------------------------------------------------------------------

CORPUS_SENTENCES = 3000
SCORE_M = 20
TAGS = ("NOUN", "VERB", "ADJ", "ADV", "DET", "ADP", "PRON", "NUM")


def build_corpus(seed: int, out_dir: Path) -> None:
    """Zipf-distributed tokens: the long tail leaves unseen tokens in the
    evaluation folds, so the out-of-vocabulary metric is defined."""
    rng = np.random.default_rng([seed, 11])
    lengths = rng.integers(4, 17, size=CORPUS_SENTENCES)
    ranks = rng.zipf(1.3, size=int(lengths.sum()))
    tokens = [f"w{r}" for r in ranks.tolist()]
    tags = [TAGS[r % len(TAGS)] for r in ranks.tolist()]
    bounds = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    corpus = TaggedCorpus.from_pairs(
        zip(tokens[a:b], tags[a:b]) for a, b in zip(bounds[:-1], bounds[1:])
    )
    write_corpus(corpus, out_dir / "corpus.tsv")


def _check_scores(work: Path) -> str | None:
    rows = _read_rows(work / "run/cp.scores.csv")[1:]
    per_metric: dict[str, int] = {}
    for dataset, system, metric, rep, fold, score in rows:
        per_metric[metric] = per_metric.get(metric, 0) + 1
        if score != "NA" and float(score) != 1.0:
            return f"{metric} score {score} at ({rep}, {fold}), expected 1.0"
        if score == "NA" and metric != "oov":
            return f"{metric} score undefined at ({rep}, {fold})"
    expected = {metric: SCORE_M * K for metric in ("token", "sentence", "oov")}
    return None if per_metric == expected else f"rows per metric {per_metric}, expected {expected}"


def score_steps(seed: int, nproc: int) -> list[Step]:
    return [
        Step(
            "split", "aux",
            ("split", "--n", str(CORPUS_SENTENCES), "--k", str(K), "--m", str(SCORE_M),
             "--seed", str(seed), "--out-prefix", "run/split"),
            ("run/split.plan.json",),
            lambda work: None,
            repeat=10,
        ),
        Step(
            "score", "main",
            ("score", "--plan", "run/split.plan.json", "--corpus", "inputs/corpus.tsv",
             "--dataset", "synth", "--system", "cp", "--command", "cp {test} {pred}",
             "--workers", str(nproc), "--out-prefix", "run/cp"),
            ("run/cp.scores.csv",),
            _check_scores,
        ),
    ]


# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("compare_q32", build_compare, compare_steps, sidecar="run/pair.chains.meta.txt"),
        Workload("rank_q3_s4", build_rank, rank_steps),
        Workload("score_cp", build_corpus, score_steps),
    )
}
