"""Driving an external system over every cross-validation round.

The command template gets four placeholders: ``{train}`` and ``{dev}`` are
tagged files, ``{test}`` is the evaluation portion (also written with its
gold tags, so trivial commands like ``cp {test} {pred}`` work; a real
system must ignore the tag column), and ``{pred}`` is where the command
must write its tagged predictions in the same format and order. Only
``{test}`` and ``{pred}`` are mandatory; a no-training baseline can skip
the rest, and a round writes the train and dev files only when the
template names them. A prediction left in a kept round folder is deleted
before the command runs. The command's standard output is discarded; its
standard error is kept, as bytes, and shown (undecodable bytes replaced)
when the command fails. The template is split into arguments the way a POSIX shell
would (``shlex.split``) before the paths go in, so a path with a space
stays one argument. A template that does not split or that names an
unknown placeholder, a metric list that is empty or names an unknown
metric, a timeout that is not finite and positive, and a plan with
fewer than three folds or with an empty fold in some repetition are
rejected before any round writes a file, and so are a template whose
format fields lack ``test`` or ``pred``, and a template, dataset id or
system id with a line break.

The out-of-vocabulary accuracy looks up only evaluation tokens, so a
round passes ``oov_accuracy`` the evaluation fold's token types that a
training fold (or the dev fold, under "train+dev") also holds: the same
membership as its training vocabulary. Every token form is numbered once
per run; each round marks the forms each fold holds in a (k, forms)
table of its own, so rounds share only read-only arrays.

Bad arguments raise ValueError. A round whose command cannot run, fails
or times out, or whose prediction is missing, malformed or misaligned
with the gold, raises CommandFailed naming the round.
"""

from __future__ import annotations

import math
import shlex
import string
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .metrics import (
    TaggedCorpus,
    oov_accuracy,
    read_corpus,
    sentence_accuracy,
    token_accuracy,
    write_corpus,
)
from .scores import ScoreMatrix
from .splits import SplitPlan, fold_roles

__all__ = ["run_external", "CommandFailed", "DEFAULT_METRICS"]

DEFAULT_METRICS = ("token", "sentence", "oov")


class CommandFailed(Exception):
    """External work failed: a command that did not run to a zero exit, or
    a prediction it left missing, malformed or misaligned with the gold."""

    def __init__(self, message: str, returncode: int | None = None, stderr: str = ""):
        super().__init__(message)
        self.returncode = returncode
        self.stderr = stderr


def _split_template(command_template: str) -> tuple[list[str], set[str | None]]:
    """Split the template into arguments, each formatted once with
    placeholder paths, so a bad template fails before any round runs.
    Returns the arguments and the names of the template's fields."""
    fields: set[str | None] = set()
    try:
        arg_templates = shlex.split(command_template)
        for arg in arg_templates:
            arg.format(train="train", dev="dev", test="test", pred="pred")
            fields.update(name for _, name, _, _ in string.Formatter().parse(arg))
    except KeyError as exc:
        raise ValueError(f"unknown placeholder {exc} in command template {command_template!r}") from exc
    except (ValueError, IndexError, AttributeError) as exc:
        raise ValueError(f"bad command template {command_template!r}: {exc}") from exc
    for name in ("test", "pred"):
        if name not in fields:
            raise ValueError(f"command template is missing {{{name}}}")
    return arg_templates, fields


def _token_forms(corpus: TaggedCorpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every token form once, the form id of every token in corpus order,
    and every sentence's length."""
    ids: dict[str, int] = {}
    form_ids = [ids.setdefault(tok, len(ids)) for sent in corpus.sentences for tok in sent.tokens]
    lengths = [len(sent) for sent in corpus.sentences]
    return np.array(list(ids), dtype=object), np.array(form_ids), np.array(lengths)


def _score_round(
    job: tuple[int, int],
    plan: SplitPlan,
    corpus: TaggedCorpus,
    arg_templates: Sequence[str],
    metrics: Sequence[str],
    token_forms: tuple[np.ndarray, np.ndarray, np.ndarray],
    fields: set[str | None],
    with_dev: bool,
    workdir: Path | None,
    timeout: float | None,
) -> dict[str, float | None]:
    rep, fold = job
    train_idx, val_idx, eval_idx = fold_roles(plan, rep, fold)
    gold = corpus.subset(eval_idx)

    def run_in(folder: Path) -> dict[str, float | None]:
        paths = {
            "train": folder / "train.tsv",
            "dev": folder / "dev.tsv",
            "test": folder / "test.tsv",
            "pred": folder / "pred.tsv",
        }
        # The training portions are written only for a template that names them.
        for name, indices in (("train", train_idx), ("dev", val_idx)):
            if name in fields:
                write_corpus(corpus.subset(indices), paths[name])
        write_corpus(gold, paths["test"])
        names = {k: str(v) for k, v in paths.items()}
        argv = [arg.format(**names) for arg in arg_templates]
        # A kept folder may hold the prediction of an earlier run.
        paths["pred"].unlink(missing_ok=True)
        try:
            proc = subprocess.run(
                argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=timeout
            )
        except FileNotFoundError as exc:
            raise CommandFailed(f"round ({rep}, {fold}): cannot execute {argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise CommandFailed(f"round ({rep}, {fold}): command timed out: {shlex.join(argv)}") from exc
        if proc.returncode != 0:
            raise CommandFailed(
                f"round ({rep}, {fold}): command exited with {proc.returncode}: {shlex.join(argv)}",
                returncode=proc.returncode,
                stderr=proc.stderr.decode("utf-8", errors="replace")[-2000:],
            )
        if not paths["pred"].exists():
            raise CommandFailed(f"round ({rep}, {fold}): command wrote no file at {paths['pred']}")
        try:
            predicted = read_corpus(paths["pred"])
        except ValueError as exc:
            raise CommandFailed(f"round ({rep}, {fold}): {exc}") from exc
        if "oov" in metrics:
            # A (k, forms) table of the forms each fold holds; the folds
            # that define the vocabulary are all but the evaluation fold
            # and, under "train", the dev fold, which fold_roles took
            # val_idx from.
            forms, form_ids, lengths = token_forms
            held = np.zeros((plan.k, len(forms)), dtype=bool)
            held[np.repeat(plan.assignments[rep], lengths), form_ids] = True
            unknown = [fold] if with_dev else [fold, int(plan.assignments[rep][val_idx[0]])]
            others = np.delete(held, unknown, axis=0).any(axis=0)
            known = frozenset(forms[held[fold] & others].tolist())
        out: dict[str, float | None] = {}
        try:
            # run_external has checked the names: the last one left is oov.
            for metric in metrics:
                if metric == "token":
                    out[metric] = token_accuracy(gold, predicted)
                elif metric == "sentence":
                    out[metric] = sentence_accuracy(gold, predicted)
                else:
                    out[metric] = oov_accuracy(known, gold, predicted)
        except ValueError as exc:
            raise CommandFailed(f"round ({rep}, {fold}): prediction misaligned: {exc}") from exc
        return out

    if workdir is None:
        with tempfile.TemporaryDirectory(prefix=f"round_r{rep}_f{fold}_") as tmp:
            return run_in(Path(tmp))
    folder = workdir / f"rep{rep:03d}_fold{fold:03d}"
    folder.mkdir(parents=True, exist_ok=True)
    return run_in(folder)


def run_external(
    plan: SplitPlan,
    corpus: TaggedCorpus,
    command_template: str,
    *,
    dataset_id: str,
    system_id: str,
    metrics: Sequence[str] = DEFAULT_METRICS,
    oov_vocab: str = "train",
    workers: int = 1,
    workdir: str | Path | None = None,
    timeout: float | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> ScoreMatrix:
    """Run a command over every (repetition, fold) round and score it.

    The corpus must have exactly ``plan.n_items`` sentences, and the plan
    at least three folds, none of them empty in any repetition. ``oov_vocab``
    selects which portions define "in vocabulary": "train" (default) or
    "train+dev". Rounds run in up to ``workers`` threads; each round gets
    a private directory (a temporary one unless ``workdir`` is given, in
    which case files are kept under ``workdir/repNNN_foldNNN``). The
    result always contains one row per metric per round; an undefined
    out-of-vocabulary accuracy is stored as None. ``progress``, if given,
    is called as ``progress(done, total)`` after each round, in round
    order, from the calling thread.
    """
    if corpus.n_sentences != plan.n_items:
        raise ValueError(
            f"plan covers {plan.n_items} items but corpus has {corpus.n_sentences} sentences"
        )
    if plan.k < 3:
        raise ValueError(
            f"scoring needs k >= 3 folds, got k = {plan.k}: each round evaluates on one fold, "
            "validates on the next and trains on the rest"
        )
    for rep, row in enumerate(plan.assignments):
        sizes = np.bincount(row, minlength=plan.k)
        if not sizes.all():
            raise ValueError(
                f"repetition {rep} has no items in fold {int(np.argmin(sizes))}: every round "
                "needs items to train, validate and evaluate on"
            )
    if oov_vocab not in ("train", "train+dev"):
        raise ValueError(f"oov_vocab must be 'train' or 'train+dev', got {oov_vocab!r}")
    # Each goes verbatim into a line of the score manifest.
    for what, value in (
        ("dataset id", dataset_id), ("system id", system_id), ("command template", command_template)
    ):
        if "\n" in value or "\r" in value:
            raise ValueError(f"{what} {value!r} contains a line break")
    arg_templates, fields = _split_template(command_template)
    unknown = [metric for metric in metrics if metric not in DEFAULT_METRICS]
    if unknown or not metrics:
        problem = f"unknown metrics {', '.join(unknown)}" if unknown else "no metrics given"
        raise ValueError(f"{problem}; known metrics: {', '.join(DEFAULT_METRICS)}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if timeout is not None and not (timeout > 0 and math.isfinite(timeout)):
        raise ValueError(f"timeout must be finite and > 0 seconds, got {timeout}")
    workdir_path = Path(workdir) if workdir is not None else None
    token_forms = _token_forms(corpus)
    with_dev = oov_vocab == "train+dev"

    jobs = [(rep, fold) for rep in range(plan.m) for fold in range(plan.k)]

    def work(job: tuple[int, int]) -> dict[str, float | None]:
        return _score_round(
            job, plan, corpus, arg_templates, metrics, token_forms, fields, with_dev, workdir_path,
            timeout,
        )

    matrix = ScoreMatrix()
    # map yields in job order and, on the first error, cancels the rounds
    # not yet started.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rounds = zip(jobs, pool.map(work, jobs))
        for done, ((rep, fold), scored) in enumerate(rounds, start=1):
            for metric, value in scored.items():
                matrix.add(dataset_id, system_id, metric, rep, fold, value)
            if progress is not None:
                progress(done, len(jobs))
    return matrix
