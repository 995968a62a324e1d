"""Score storage and pairing.

Scores live in a CSV of one row per score, with header
``dataset,system,metric,repetition,fold,score`` where score is a decimal
in [0, 1] or ``NA`` for an undefined value (for example out-of-vocabulary
accuracy on a fold with no out-of-vocabulary tokens). Rows may appear in
any order; a repeated key is an error, and so is a dataset, system or
metric id with a line break. ``manifest.write_table`` and
``manifest.read_table`` write and read the table, headed by an optional
``# manifest:`` comment line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .manifest import read_table, write_table

__all__ = [
    "ScoreMatrix",
    "DifferenceSeries",
    "assemble_differences",
    "SCORE_COLUMNS",
]

SCORE_COLUMNS = ("dataset", "system", "metric", "repetition", "fold", "score")

Key = tuple[str, str, str, int, int]


@dataclass
class ScoreMatrix:
    """Scores keyed by (dataset, system, metric, repetition, fold).

    A value of None records a run whose metric was undefined; it is kept
    so the pairing step can drop the same cell from both systems.
    """

    entries: dict[Key, float | None] = field(default_factory=dict)

    def add(
        self,
        dataset: str,
        system: str,
        metric: str,
        repetition: int,
        fold: int,
        score: float | None,
    ) -> None:
        key = (dataset, system, metric, repetition, fold)
        # An id goes verbatim into sidecar and manifest lines.
        ids = dataset + system + metric
        if "\n" in ids or "\r" in ids:
            raise ValueError(f"line break in an id of {key}")
        if key in self.entries:
            raise ValueError(f"duplicate score for {key}")
        if score is not None:
            score = float(score)
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score {score} outside [0, 1] for {key}")
        if repetition < 0 or fold < 0:
            raise ValueError(f"negative repetition or fold in {key}")
        self.entries[key] = score

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_csvs(cls, paths: Iterable[str | Path]) -> "ScoreMatrix":
        """Read and merge one or more score files."""
        out = cls()
        for path in map(Path, paths):
            for lineno, row in read_table(path, SCORE_COLUMNS):
                dataset, system, metric, rep_s, fold_s, score_s = row
                try:
                    rep = int(rep_s)
                    fold = int(fold_s)
                    score = None if score_s == "NA" else float(score_s)
                    out.add(dataset, system, metric, rep, fold, score)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
        return out

    def to_csv(self, path: str | Path, manifest: str | None = None) -> None:
        """Write rows sorted by key, so identical matrices give identical files."""
        rows = (
            [*key, "NA" if value is None else repr(value)]
            for key, value in sorted(self.entries.items())
        )
        write_table(path, SCORE_COLUMNS, rows, manifest)


@dataclass(frozen=True)
class DifferenceSeries:
    """Paired score differences for one data set, ordered by (repetition, fold).

    ``x[j]`` is score(system a) - score(system b) on the j-th shared cell;
    ``rho`` is the assumed correlation between cells induced by overlapping
    training sets. ``n`` is len(x), which can be smaller than the number of
    rounds when undefined cells were dropped.
    """

    dataset_id: str
    x: np.ndarray
    rho: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        if self.x.ndim != 1 or self.n < 1:
            raise ValueError(f"x must be 1-d and non-empty, got shape {self.x.shape}")
        lo = -1.0 / (self.n - 1) if self.n > 1 else -1.0
        if not (lo < self.rho < 1.0):
            raise ValueError(f"rho={self.rho} outside ({lo}, 1) for n={self.n}")
        self.x.setflags(write=False)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def assemble_differences(
    scores: ScoreMatrix,
    system_a: str,
    system_b: str,
    metric: str,
    rho: float | None = None,
) -> list[DifferenceSeries]:
    """Pair up two systems' scores into per-dataset difference series.

    For every data set where both systems have scores for the metric, the
    shared (repetition, fold) cells are taken in (repetition, fold) order;
    cells where either side is undefined are dropped from both. When rho is
    None it defaults to 1/k, the correlation induced by two folds sharing
    (k-2)/(k-1) of their training data under a k-fold design (see the
    matching empirical check in the test suite). Raises ValueError when
    no data set yields at least one pair.
    """
    per_dataset_a: dict[str, dict[tuple[int, int], float | None]] = {}
    per_dataset_b: dict[str, dict[tuple[int, int], float | None]] = {}
    for (dataset, system, met, rep, fold), value in scores.entries.items():
        if met != metric:
            continue
        if system == system_a:
            per_dataset_a.setdefault(dataset, {})[(rep, fold)] = value
        if system == system_b:
            per_dataset_b.setdefault(dataset, {})[(rep, fold)] = value
    series: list[DifferenceSeries] = []
    for dataset in sorted(set(per_dataset_a) & set(per_dataset_b)):
        cells_a = per_dataset_a[dataset]
        cells_b = per_dataset_b[dataset]
        shared = sorted(set(cells_a) & set(cells_b))
        if not shared:
            continue
        k = 1 + max(fold for _, fold in shared)
        kept = [
            cells_a[cell] - cells_b[cell]  # type: ignore[operator]
            for cell in shared
            if cells_a[cell] is not None and cells_b[cell] is not None
        ]
        if not kept:
            continue
        rho_val = rho if rho is not None else 1.0 / k
        series.append(DifferenceSeries(dataset_id=dataset, x=np.asarray(kept), rho=rho_val))
    if not series:
        raise ValueError(
            f"no shared scores between {system_a!r} and {system_b!r} for metric {metric!r}"
        )
    return series
