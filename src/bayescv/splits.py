"""Repeated k-fold split plans.

Each repetition shuffles the items with its own random stream and deals
them round-robin into k folds, so fold sizes within a repetition differ by
at most one. The stream for repetition r is ``rng_fork(seed, r)``, which
makes the plan for a given (n_items, k, seed) independent of how many
repetitions are requested: asking for m=5 reproduces the first five
repetitions of m=20 bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .statcore import rng_fork

__all__ = ["SplitPlan", "make_splits", "fold_roles", "read_plan", "write_plan"]


@dataclass(frozen=True)
class SplitPlan:
    """Fold assignments for m repetitions of k-fold cross-validation.

    ``assignments`` has shape (m, n_items); entry (r, i) is the fold of
    item i in repetition r, in range(k).
    """

    n_items: int
    k: int
    m: int
    seed: int
    assignments: np.ndarray

    def __post_init__(self) -> None:
        if self.assignments.shape != (self.m, self.n_items):
            raise ValueError(
                f"assignments shape {self.assignments.shape} != ({self.m}, {self.n_items})"
            )
        self.assignments.setflags(write=False)


def make_splits(n_items: int, k: int, m: int, seed: int) -> SplitPlan:
    """Build a plan for m independent k-fold shuffles of n_items items.

    Requires 2 <= k <= n_items and m >= 1. Fold sizes within a repetition
    are n_items // k or n_items // k + 1.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if n_items < k:
        raise ValueError(f"cannot split {n_items} items into {k} folds")
    assignments = np.empty((m, n_items), dtype=np.int64)
    for rep in range(m):
        rng = rng_fork(seed, rep)
        order = rng.permutation(n_items)
        assignments[rep, order] = np.arange(n_items) % k
    return SplitPlan(n_items=n_items, k=k, m=m, seed=seed, assignments=assignments)


def fold_roles(
    plan: SplitPlan, repetition: int, eval_fold: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Item indices for (train, validation, evaluation) of one CV round.

    The evaluation set is ``eval_fold``, the validation set is the next
    fold cyclically, and training is everything else; with k = 10 that is
    the usual 80/10/10 arrangement. All three index arrays are ascending
    and together cover every item exactly once.
    """
    if not 0 <= repetition < plan.m:
        raise ValueError(f"repetition {repetition} outside range(0, {plan.m})")
    if not 0 <= eval_fold < plan.k:
        raise ValueError(f"fold {eval_fold} outside range(0, {plan.k})")
    folds = plan.assignments[repetition]
    val_fold = (eval_fold + 1) % plan.k
    eval_idx = np.flatnonzero(folds == eval_fold)
    val_idx = np.flatnonzero(folds == val_fold)
    train_idx = np.flatnonzero((folds != eval_fold) & (folds != val_fold))
    return train_idx, val_idx, eval_idx


def write_plan(plan: SplitPlan, path: str | Path, manifest: str | None = None) -> None:
    """Serialize a plan to JSON. Byte-identical for identical plans."""
    doc: dict = {
        "n_items": plan.n_items,
        "k": plan.k,
        "m": plan.m,
        "seed": plan.seed,
        "assignments": plan.assignments.tolist(),
    }
    if manifest is not None:
        doc["manifest"] = manifest
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def read_plan(path: str | Path) -> SplitPlan:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        plan = SplitPlan(
            n_items=int(doc["n_items"]),
            k=int(doc["k"]),
            m=int(doc["m"]),
            seed=int(doc["seed"]),
            assignments=np.asarray(doc["assignments"], dtype=np.int64),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid split plan: {exc}") from exc
    if plan.assignments.size and not (
        plan.assignments.min() >= 0 and plan.assignments.max() < plan.k
    ):
        raise ValueError(f"{path}: fold indices outside range(0, {plan.k})")
    return plan
