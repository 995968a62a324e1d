"""Command-line front end: split, score, compare, rank, plot.

Every command derives all randomness from --seed, writes a manifest next
to its outputs, prints the manifest path to standard output, and reports
progress and summaries on standard error. Exit codes: 0 success, 2 usage
or validation problem, 3 the sampler did not converge (outputs are still
written for inspection), 4 I/O or external-command failure, or a dead
rank worker process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager, redirect_stderr
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from . import __version__
from .decision import (
    ReportRow,
    RopeInterval,
    count_draws,
    rank,
    read_report_csv,
    rope_from_differences,
    tally,
    ttest_triple,
    write_report_csv,
)
from .manifest import RunManifest, file_digest, read_kv, write_kv, write_manifest
from .metrics import read_corpus
from .model import (
    ESS_THRESHOLD,
    RHAT_THRESHOLD,
    ModelConfig,
    PosteriorChains,
    correlated_ttest,
    fit,
    fit_many,
    orientation,
    read_chains_csv,
    unconverged,
    write_chains_csv,
)
from .plotting import draws_to_points, plotted_indices, points_from_triples, render_simplex_svg
from .runner import DEFAULT_METRICS, CommandFailed, run_external
from .scores import DifferenceSeries, ScoreMatrix, assemble_differences
from .splits import make_splits, read_plan, write_plan
from .statcore import StudentT

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3
EXIT_IO = 4

# rank fits pairs with the same number of shared data sets together, in
# fit_many calls that each keep at most this many bytes of draws; a pair
# keeps chains x draws x (3 + 2q) x 8 bytes, and one too large for the
# budget on its own still gets a call. A lockstep sweep costs about the
# same for one pair as for several, so fewer calls are faster, but every
# pair in a call keeps its draws alive until the call returns. Each call
# runs in a worker process, so the budget holds per process. Ranking 4
# systems on 3 data sets with the default sampler (6 pairs at q=3, 2-core
# x86 machine, medians of 5 runs): this budget's 2 calls of 3 took 1.1 s
# at 44.1 MB peak RSS in 2 workers, and 1.8 s at 44.7 MB one after the
# other in one worker; one call of all 6 pairs took 1.4 s and peaked at
# 54.6 MB.
_DRAW_BUDGET = 12_000_000


def _log(message: str) -> None:
    print(message, file=sys.stderr)


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Log the wall time of one stage to stderr, never to an output file."""
    start = time.perf_counter()
    yield
    _log(f"stage {name}: {time.perf_counter() - start:.2f} s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayescv",
        description="Compare systems scored by repeated k-fold cross-validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # Not dest="command": score's --command template would overwrite it.
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_split = sub.add_parser("split", help="write a repeated k-fold split plan")
    p_split.add_argument("--n", type=int, required=True, help="number of items (sentences)")
    p_split.add_argument("--k", type=int, required=True, help="folds per repetition")
    p_split.add_argument("--m", type=int, required=True, help="repetitions")
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("--out-prefix", default="split", help="prefix for output files")
    p_split.set_defaults(func=cmd_split)

    p_score = sub.add_parser("score", help="run an external system over a plan and score it")
    p_score.add_argument("--plan", required=True, help="split plan JSON from the split command")
    p_score.add_argument("--corpus", required=True, help="tagged corpus file")
    p_score.add_argument("--dataset", required=True, help="dataset id recorded in the scores")
    p_score.add_argument("--system", required=True, help="system id recorded in the scores")
    p_score.add_argument(
        "--command",
        required=True,
        help="command template with {train} {dev} {test} {pred} placeholders",
    )
    p_score.add_argument("--metrics", default=",".join(DEFAULT_METRICS))
    p_score.add_argument("--oov-vocab", choices=("train", "train+dev"), default="train")
    p_score.add_argument("--workers", type=int, default=1)
    p_score.add_argument("--timeout", type=float, default=None, help="per-round timeout, seconds")
    p_score.add_argument("--workdir", default=None, help="keep round files under this directory")
    p_score.add_argument("--out-prefix", default="scores")
    p_score.set_defaults(func=cmd_score)

    p_compare = sub.add_parser("compare", help="compare two systems on one metric")
    _add_compare_flags(p_compare)
    p_compare.add_argument("--a", required=True, dest="system_a", help="first system id")
    p_compare.add_argument("--b", required=True, dest="system_b", help="second system id")
    p_compare.add_argument("--out-prefix", default="compare")
    p_compare.set_defaults(func=cmd_compare)

    p_rank = sub.add_parser("rank", help="compare all system pairs and rank them")
    _add_compare_flags(p_rank)
    p_rank.add_argument("--out-prefix", default="rank")
    p_rank.set_defaults(func=cmd_rank)

    p_plot = sub.add_parser("plot", help="render a simplex plot from chains or a report")
    source = p_plot.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--chains", default=None, help="chains CSV from compare, read with its .meta.txt sidecar"
    )
    source.add_argument("--report", default=None, help="report CSV (one point per row)")
    p_plot.add_argument(
        "--rope", type=float, default=None, help="rope halfwidth (default: from metadata)"
    )
    p_plot.add_argument("--max-points", type=int, default=5000)
    p_plot.add_argument("--title", default=None)
    p_plot.add_argument("--out-prefix", default="plot")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def _add_compare_flags(parser: argparse.ArgumentParser) -> None:
    defaults = ModelConfig()
    parser.add_argument(
        "--scores", required=True, nargs="+", help="one or more score CSV files, merged"
    )
    parser.add_argument("--metric", required=True)
    rope = parser.add_mutually_exclusive_group(required=True)
    rope.add_argument("--rope", type=float, default=None, help="rope halfwidth, raw score scale")
    rope.add_argument(
        "--rope-mode",
        choices=("ci95",),
        default=None,
        help="derive the rope as half the central 95%% interval of the pooled differences",
    )
    parser.add_argument("--rho", type=float, default=None, help="fold correlation (default 1/k)")
    parser.add_argument("--chains", type=int, default=defaults.chains)
    parser.add_argument(
        "--draws", type=int, default=defaults.samples_per_chain, help="retained draws per chain"
    )
    parser.add_argument("--warmup", type=int, default=defaults.warmup)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--sigma-bar-factor", type=float, default=defaults.sigma_bar_factor)
    parser.add_argument(
        "--delta0-halfwidth", type=float, default=defaults.delta0_prior_halfwidth
    )
    parser.add_argument(
        "--nu-prior", type=float, nargs=2, default=defaults.nu_prior, metavar=("SHAPE", "RATE")
    )


def _output(args: argparse.Namespace, suffix: str) -> Path:
    prefix = Path(args.out_prefix)
    return prefix.with_name(prefix.name + suffix)


def _write_manifest(
    args: argparse.Namespace, inputs: list[str | Path], digests: dict[str, str] | None = None
) -> Path:
    """Write <out-prefix>.manifest.txt: every parsed flag of the subcommand
    as param[<dest>] (--seed as seed=), and the digests of ``inputs``;
    ``digests`` holds those already computed, by path.

    None renders empty and a list or tuple as its items joined by commas,
    so a typed flag and its default read the same.
    """
    params = {
        dest: ",".join(map(str, value)) if isinstance(value, (list, tuple))
        else "" if value is None else value
        for dest, value in vars(args).items()
        if dest not in ("subcommand", "func", "seed")
    }
    path = _output(args, ".manifest.txt")
    manifest = RunManifest.collect(
        args.subcommand, getattr(args, "seed", None), params, inputs, digests
    )
    write_manifest(manifest, path)
    return path


def cmd_split(args: argparse.Namespace) -> int:
    plan = make_splits(args.n, args.k, args.m, args.seed)
    plan_path = _output(args, ".plan.json")
    manifest_path = _write_manifest(args, [])
    write_plan(plan, plan_path, manifest=str(manifest_path))
    _log(f"plan: {plan_path} ({plan.m} repetitions x {plan.k} folds over {plan.n_items} items)")
    print(manifest_path)
    return EXIT_OK


def _round_progress() -> Callable[[int, int], None]:
    """A run_external progress callback: done/total, elapsed and ETA on stderr."""
    start = time.perf_counter()

    def report(done: int, total: int) -> None:
        elapsed = time.perf_counter() - start
        eta = elapsed / done * (total - done)
        _log(f"round {done}/{total}: {elapsed:.1f} s elapsed, eta {eta:.1f} s")

    return report


def cmd_score(args: argparse.Namespace) -> int:
    plan = read_plan(args.plan)
    corpus = read_corpus(args.corpus)
    metrics = tuple(m for m in args.metrics.split(",") if m)
    matrix = run_external(
        plan,
        corpus,
        args.command,
        dataset_id=args.dataset,
        system_id=args.system,
        metrics=metrics,
        oov_vocab=args.oov_vocab,
        workers=args.workers,
        workdir=args.workdir,
        timeout=args.timeout,
        progress=_round_progress(),
    )
    scores_path = _output(args, ".scores.csv")
    manifest_path = _write_manifest(args, [args.plan, args.corpus])
    matrix.to_csv(scores_path, manifest=str(manifest_path))
    na = sum(1 for v in matrix.entries.values() if v is None)
    _log(f"scores: {scores_path} ({len(matrix)} rows, {na} undefined)")
    print(manifest_path)
    return EXIT_OK


def _model_config(args: argparse.Namespace) -> ModelConfig:
    return ModelConfig(
        sigma_bar_factor=args.sigma_bar_factor,
        delta0_prior_halfwidth=args.delta0_halfwidth,
        nu_prior=tuple(args.nu_prior),
        chains=args.chains,
        samples_per_chain=args.draws,
        warmup=args.warmup,
        seed=args.seed,
    )


def _resolve_rope(args: argparse.Namespace, series) -> tuple[RopeInterval, str]:
    if args.rope is not None:
        return RopeInterval(args.rope), "fixed"
    rope = rope_from_differences(series)
    return rope, "ci95:half-width-of-central-95%-interval-of-pooled-differences"


@dataclass
class _Pair:
    """One comparison before its posterior exists: differences and rope."""

    system_a: str
    system_b: str
    series: list[DifferenceSeries]
    rope: RopeInterval
    rope_mode: str


def _setup_pair(
    scores: ScoreMatrix, system_a: str, system_b: str, args: argparse.Namespace
) -> _Pair:
    series = assemble_differences(scores, system_a, system_b, args.metric, rho=args.rho)
    return _Pair(system_a, system_b, series, *_resolve_rope(args, series))


def _finish_pair(
    pair: _Pair, post: PosteriorChains | None, args: argparse.Namespace, config: ModelConfig
) -> tuple[ReportRow, bool]:
    """Shared tail of compare and rank. Returns (row, converged).

    ``post`` is the hierarchical posterior, or None for a pair with a
    single shared data set.
    """
    if post is None:
        # A single shared data set cannot feed the hierarchical model;
        # fall back to the closed-form correlated t posterior and sample
        # the decision counters from it.
        post_t = correlated_ttest(pair.series[0])
        n_samples = config.chains * config.samples_per_chain
        # Sampled in the data's orientation and mirrored back, so swapping
        # the systems gives the flipped triple bit for bit.
        sign = orientation(pair.series)
        oriented = StudentT(sign * post_t.location, post_t.scale, post_t.dof)
        with _stage("tally"):
            triple = ttest_triple(oriented, pair.rope, n_samples=n_samples, seed=config.seed)
        if sign < 0:
            triple = triple.flipped()
        converged = True
    else:
        with _stage("tally"):
            triple = tally(post, pair.rope)
        converged = post.converged
        if not converged:
            bad = ", ".join(
                f"{name}: {' and '.join(rules)} (r_hat={post.diagnostics[name].r_hat:.3f}, "
                f"ess={post.diagnostics[name].ess:.0f})"
                for name, rules in unconverged(post.diagnostics).items()
            )
            _log(
                f"warning: chains did not converge for {pair.system_a} vs {pair.system_b} "
                f"(R-hat above {RHAT_THRESHOLD} or undefined, or ESS below "
                f"{ESS_THRESHOLD:g} or undefined): {bad}"
            )
    row = ReportRow(
        system_a=pair.system_a,
        system_b=pair.system_b,
        metric=args.metric,
        triple=triple,
        rope_halfwidth=pair.rope.halfwidth,
    )
    return row, converged


def _chains_meta(
    pair: _Pair,
    post: PosteriorChains | None,
    args: argparse.Namespace,
    manifest_path: Path,
    chains_sha256: str | None,
) -> dict[str, str]:
    """compare's whole <out-prefix>.chains.meta.txt: the pair, its rope,
    and the posterior the triple came from, either the closed-form t or the
    sampler's settings, diagnostics and the chains file's digest."""
    meta = {
        "system_a": pair.system_a,
        "system_b": pair.system_b,
        "metric": args.metric,
        "n_datasets": str(len(pair.series)),
        "rope_halfwidth": repr(pair.rope.halfwidth),
        "rope_mode": pair.rope_mode,
        "manifest": str(manifest_path),
    }
    if post is None:
        post_t = correlated_ttest(pair.series[0])
        meta.update({
            "method": "correlated_ttest",
            "ttest_location": repr(post_t.location),
            "ttest_scale": repr(post_t.scale),
            "ttest_dof": repr(post_t.dof),
        })
        return meta
    cfg = post.config
    meta.update({
        "method": "hierarchical",
        "version": __version__,
        "chains": str(post.n_chains),
        "draws_per_chain": str(post.draws_per_chain),
        "warmup": str(cfg.warmup),
        "seed": str(cfg.seed),
        "standardization_constant": repr(post.standardization_constant),
        "sigma_bar_factor": repr(cfg.sigma_bar_factor),
        "delta0_prior_halfwidth": repr(cfg.delta0_prior_halfwidth),
        "nu_prior_shape": repr(cfg.nu_prior[0]),
        "nu_prior_rate": repr(cfg.nu_prior[1]),
        "dataset_ids": json.dumps(list(post.dataset_ids)),
        "converged": str(post.converged).lower(),
        "accept[nu]": repr(post.nu_acceptance),
        "step[nu]": repr(post.nu_step),
        "chains_sha256": chains_sha256,
    })
    for name, diag in post.diagnostics.items():
        meta[f"r_hat[{name}]"] = repr(float(diag.r_hat))
        meta[f"ess[{name}]"] = repr(float(diag.ess))
    return meta


def cmd_compare(args: argparse.Namespace) -> int:
    # Built first, so bad sampler flags fail before any work, whichever
    # path the pair takes.
    config = _model_config(args)
    with _stage("load"):
        scores = ScoreMatrix.from_csvs(args.scores)
    pair = _setup_pair(scores, args.system_a, args.system_b, args)
    manifest_path = _write_manifest(args, args.scores)
    post = None
    if len(pair.series) > 1:
        with _stage("fit"):
            post = fit(pair.series, config)
    row, converged = _finish_pair(pair, post, args, config)
    chains_sha256 = None
    if post is not None:
        chains_path = _output(args, ".chains.csv")
        with _stage("write chains"):
            write_chains_csv(post, chains_path, manifest=str(manifest_path))
            # plot checks the chains against this before parsing any of it.
            chains_sha256 = file_digest(chains_path)
    meta = _chains_meta(pair, post, args, manifest_path, chains_sha256)
    write_kv(_output(args, ".chains.meta.txt"), meta)
    t = row.triple
    report_path = _output(args, ".report.csv")
    write_report_csv([row], report_path, manifest=str(manifest_path))
    _log(
        f"{args.system_a} vs {args.system_b} on {args.metric}: "
        f"p_left={t.p_left:.3f} p_rope={t.p_rope:.3f} p_right={t.p_right:.3f} "
        f"verdict={t.verdict} (rope halfwidth {row.rope_halfwidth:g})"
    )
    _log(f"report: {report_path}")
    print(manifest_path)
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def _fit_pairs(
    pairs: list[_Pair], args: argparse.Namespace, config: ModelConfig
) -> tuple[list[tuple[ReportRow, bool]], str]:
    """Fit hierarchical pairs of one size in lockstep and finish each, in
    a worker process of rank's pool.

    Returns each pair's (row, converged) and what the batch logged, which
    the parent writes to its own stderr in batch order. The posteriors
    never leave the worker.
    """
    log = io.StringIO()
    with redirect_stderr(log):
        with _stage("fit"):
            posts = fit_many([pair.series for pair in pairs], config)
        rows = [_finish_pair(pair, post, args, config) for pair, post in zip(pairs, posts)]
    return rows, log.getvalue()


def _worker_count(n_batches: int) -> int:
    """rank's worker processes: one per CPU this process may run on, at
    most one per batch, and at least one."""
    return max(1, min(n_batches, len(os.sched_getaffinity(0))))


def cmd_rank(args: argparse.Namespace) -> int:
    # Imported here: about 25 ms that every other command would pay at
    # start-up.
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    config = _model_config(args)
    scores = ScoreMatrix.from_csvs(args.scores)
    systems = sorted({key[1] for key in scores.entries if key[2] == args.metric})
    if len(systems) < 2:
        raise ValueError(
            f"ranking needs at least two systems with {args.metric!r} scores, found {systems}"
        )
    pairs = [
        _setup_pair(scores, system_a, system_b, args)
        for system_a, system_b in combinations(systems, 2)
    ]
    manifest_path = _write_manifest(args, args.scores)
    # n same-size pairs run as ceil(n / cap) batches whose sizes differ by
    # at most one: as few calls as full batches of cap need, at a lower
    # peak. Every pair uses the same seed, so its draws do not depend on
    # its batch.
    by_size: dict[int, list[int]] = {}
    for i, pair in enumerate(pairs):
        if len(pair.series) > 1:
            by_size.setdefault(len(pair.series), []).append(i)
    batches: list[tuple[list[int], str]] = []
    for q, indices in by_size.items():
        pair_bytes = config.chains * config.samples_per_chain * (3 + 2 * q) * 8
        cap = max(1, _DRAW_BUDGET // pair_bytes)
        for part in np.array_split(indices, -(-len(indices) // cap)):
            header = (
                f"fit batch: {part.size} pairs x {q} data sets, "
                f"{part.size * pair_bytes / 1e6:.1f} MB of draws"
            )
            batches.append((part.tolist(), header))
    # The batches run in worker processes, each holding only its own
    # batch's draws, so the budget is per process. fork starts a worker
    # without re-importing numpy; the CLI process runs no threads of its
    # own. Each batch's stderr is written in batch order once it returns.
    fitted: dict[int, tuple[ReportRow, bool]] = {}
    pool = ProcessPoolExecutor(
        _worker_count(len(batches)), mp_context=multiprocessing.get_context("fork")
    )
    futures = []
    try:
        for batch, _ in batches:
            # submit raises too if a worker has already died.
            futures.append(pool.submit(_fit_pairs, [pairs[i] for i in batch], args, config))
        for (batch, header), future in zip(batches, futures):
            results, log = future.result()
            _log(header)
            sys.stderr.write(log)
            fitted.update(zip(batch, results))
    except BrokenProcessPool as exc:
        # The pool fails every unfinished batch alike, so all of them are
        # named: which one's worker died is not known. A batch that ended
        # with its own error is named with that error.
        errors = [future.exception() for future in futures]
        lost = [j for j, error in enumerate(errors) if isinstance(error, BrokenProcessPool)]
        lost += range(len(futures), len(batches))
        names = "; ".join(
            ", ".join(f"{pairs[i].system_a} vs {pairs[i].system_b}" for i in batches[j][0])
            for j in lost
        )
        failed = "".join(
            f"; fit batch {j + 1} of {len(batches)} failed: {error}"
            for j, error in enumerate(errors)
            if error is not None and j not in lost
        )
        raise CommandFailed(
            f"a rank worker process died before fit batch{'es' if len(lost) > 1 else ''} "
            f"{', '.join(str(j + 1) for j in lost)} of {len(batches)} finished ({names})"
            f"{failed}"
        ) from exc
    finally:
        # On an error, batches not yet started are dropped; the shutdown
        # waits for every worker to exit.
        pool.shutdown(cancel_futures=True)

    rows: list[ReportRow] = []
    verdicts: dict[tuple[str, str], str] = {}
    all_converged = True
    for i, pair in enumerate(pairs):
        row, converged = fitted.get(i) or _finish_pair(pair, None, args, config)
        rows.append(row)
        verdicts[(pair.system_a, pair.system_b)] = row.triple.verdict
        all_converged = all_converged and converged
        t = row.triple
        _log(
            f"{pair.system_a} vs {pair.system_b}: "
            f"{t.p_left:.3f}/{t.p_rope:.3f}/{t.p_right:.3f} -> {t.verdict}"
        )
    write_report_csv(rows, _output(args, ".pairs.csv"), manifest=str(manifest_path))
    result = rank(verdicts)
    lines = [f"# manifest: {manifest_path}"]
    lines += [f"{a} {symbol} {b}" for a, symbol, b in result.labels]
    if result.consistent:
        lines.append(f"ranking: {result.chain}")
    else:
        lines.append("ranking: inconsistent")
        lines += [f"conflict: {c}" for c in result.conflicts]
    ranking_path = _output(args, ".ranking.txt")
    ranking_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _log(lines[-1] if result.consistent else "verdicts are inconsistent; see " + str(ranking_path))
    print(manifest_path)
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def cmd_plot(args: argparse.Namespace) -> int:
    if args.max_points < 1:
        raise ValueError(f"--max-points must be >= 1, got {args.max_points}")
    digests: dict[str, str] = {}
    if args.chains is not None:
        meta_path = Path(args.chains).with_suffix(".meta.txt")
        # One pass over the bytes: checked against the sidecar below and
        # recorded in the manifest.
        with _stage("hash chains"):
            digests[args.chains] = file_digest(args.chains)
        # The draws are on the standardized scale; only the sidecar holds
        # the constant that maps the rope onto it.
        if not meta_path.is_file():
            raise ValueError(f"chains metadata not found at {meta_path}")
        meta = read_kv(meta_path)
        for key in ("standardization_constant", "chains", "draws_per_chain", "chains_sha256"):
            if key not in meta:
                raise ValueError(f"{meta_path} has no {key!r}; is it the sidecar of these chains?")
        # Only the population columns are parsed below, so the bytes of
        # the whole file must be the ones compare wrote.
        if meta["chains_sha256"] != digests[args.chains]:
            raise ValueError(
                f"{args.chains}: sha256 differs from chains_sha256 in {meta_path} "
                "(damaged, or not the chains of that sidecar)"
            )
        with _stage("read chains"):
            chains = read_chains_csv(args.chains, names=("delta0", "sigma0", "nu"))
        # A file cut after a whole chain still reads as a complete grid;
        # only the sidecar knows how many chains there were.
        shape = tuple(str(n) for n in chains["delta0"].shape)
        recorded = (meta["chains"], meta["draws_per_chain"])
        if shape != recorded:
            raise ValueError(
                f"{args.chains}: {shape[0]} chains x {shape[1]} draws, but {meta_path} "
                f"records {recorded[0]} x {recorded[1]} (truncated?)"
            )
        draws = [chains[name].reshape(-1) for name in ("delta0", "sigma0", "nu")]
        n_draws = draws[0].size
        rope_raw = args.rope
        if rope_raw is None:
            if "rope_halfwidth" not in meta:
                raise ValueError("no --rope given and none recorded in the chain metadata")
            rope_raw = float(meta["rope_halfwidth"])
        rope = RopeInterval(rope_raw).scaled(float(meta["standardization_constant"]))
        # The annotated triple counts every draw, each checked first, by
        # the rules compare's tally uses.
        triple = count_draws(*draws, rope)
        shown = plotted_indices(n_draws, args.max_points)
        label_a = meta.get("system_a", "system a")
        label_b = meta.get("system_b", "system b")
        inputs = [args.chains, str(meta_path)]
        with _stage("points"):
            points = draws_to_points(*(column[shown] for column in draws), rope.halfwidth)[0]
        title = args.title or f"{label_a} vs {label_b}"
    else:
        rows = read_report_csv(args.report)
        n_draws = len(rows)
        shown = plotted_indices(n_draws, args.max_points)
        points = points_from_triples([rows[i].triple for i in shown])
        triple = rows[0].triple if len(rows) == 1 else None
        label_a = rows[0].system_a if len(rows) == 1 else "right region"
        label_b = rows[0].system_b if len(rows) == 1 else "left region"
        inputs = [args.report]
        title = args.title or (f"{label_a} vs {label_b}" if len(rows) == 1 else "pairwise triples")
    manifest_path = _write_manifest(args, inputs, digests)
    with _stage("render"):
        svg = render_simplex_svg(
            points,
            label_left=label_b,
            label_right=label_a,
            triple=triple,
            title=title,
            manifest=str(manifest_path),
        )
    svg_path = _output(args, ".svg")
    svg_path.write_text(svg, encoding="utf-8")
    _log(f"plot: {svg_path} ({n_draws} draws)")
    print(manifest_path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    # Checked before any work: score would otherwise run every round first.
    directory = Path(args.out_prefix).parent
    if not directory.is_dir():
        _log(f"error: output directory '{directory}' does not exist; bayescv does not create it")
        return EXIT_IO
    try:
        return args.func(args)
    except CommandFailed as exc:
        _log(f"error: {exc}")
        if exc.stderr:
            _log(exc.stderr)
        return EXIT_IO
    except OSError as exc:
        _log(f"error: {exc}")
        return EXIT_IO
    except ValueError as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
