"""Where the traced run hooks into bayescv, and the per-layer metrics.

Each hook replaces a name at the place the CLI (or the module the CLI
calls) looks it up, e.g. ``bayescv.model.diagnose`` inside ``fit`` and
``bayescv.runner.write_corpus`` inside the per-round work. A metric
ending in ``.s`` is the layer's self time: the time its spans were open
minus the part their child spans cover, summed over every call in the
traced pass. Rates divide work by that self time, except
``runner.rounds_per_s``, which divides by the whole ``run_external`` call.
"""

from __future__ import annotations

import os
from collections import defaultdict

from tracing import Tracer, counting_cost_per_call

# Commands of the traced pass, by the step names in workloads.py.
COMMANDS = ("compare", "plot_chains", "rank", "plot_report", "split", "score")


def _add_file_size(arg: int, key: str):
    def after(tracer: Tracer, args: tuple, kwargs: dict, result: object) -> None:
        tracer.totals[key] += os.path.getsize(args[arg])

    return after


def _after_fit(tracer: Tracer, args: tuple, kwargs: dict, post) -> None:
    cfg = post.config
    tracer.totals["model.fit.sweeps"] += cfg.chains * (cfg.warmup + cfg.samples_per_chain)
    tracer.counts["model.fit.nonconverged"] += not post.converged
    tracer.records.append({
        "command": tracer.command,
        "q": len(post.dataset_ids),
        "ess": {name: float(post.diagnostics[name].ess) for name in ("delta0", "sigma0")},
    })


def _after_tally(tracer: Tracer, args: tuple, kwargs: dict, triple) -> None:
    tracer.totals["decision.tally.draws"] += triple.n_samples


def _after_points(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.totals["plotting.draws_to_points.draws"] += result[0].shape[0]


def _after_rounds(tracer: Tracer, args: tuple, kwargs: dict, matrix) -> None:
    plan = args[0]
    tracer.totals["runner.rounds"] += plan.m * plan.k


def install() -> Tracer:
    """Hook every traced function; undo with ``Tracer.restore``."""
    from bayescv import cli, manifest, model, runner, scores, statcore

    t = Tracer()
    t.span(scores.ScoreMatrix, "from_csvs", "scores.from_csvs")
    t.span(scores.ScoreMatrix, "to_csv", "scores.to_csv")
    t.span(cli, "assemble_differences", "scores.assemble_differences")
    t.span(cli, "fit", "model.fit", _after_fit)
    t.span(model, "diagnose", "diagnostics.diagnose")
    t.span(cli, "write_chains_csv", "model.write_chains_csv",
           _add_file_size(1, "model.write_chains_csv.bytes"))
    t.span(cli, "read_chains_csv", "model.read_chains_csv")
    t.span(cli, "tally", "decision.tally", _after_tally)
    t.count(statcore, "betainc", "statcore.betainc.calls")
    t.span(cli, "draws_to_points", "plotting.draws_to_points", _after_points)
    t.span(cli, "render_simplex_svg", "plotting.render_simplex_svg")
    t.span(cli, "run_external", "runner.run_external", _after_rounds)
    t.trace_subprocess_run(runner, "runner.command")
    t.span(runner, "write_corpus", "metrics.write_corpus",
           _add_file_size(1, "metrics.write_corpus.bytes"))
    t.span(runner, "read_corpus", "metrics.read_corpus")
    t.span(cli, "read_corpus", "metrics.read_corpus")
    for name in ("token_accuracy", "sentence_accuracy", "oov_accuracy"):
        t.span(runner, name, "metrics.accuracy")
    t.span(cli, "make_splits", "splits.make_splits")
    t.span(runner, "fold_roles", "splits.fold_roles")
    t.span(manifest.RunManifest, "collect", "manifest.collect")
    return t


def _per(work: float, seconds: float) -> float:
    """A rate, or 0 when a failed command left no time to divide by."""
    return work / seconds if seconds > 0 else 0.0


def metrics(
    tracer: Tracer, selfs: list[float], startup_s: float, overhead_s: float
) -> dict[str, tuple[float, str]]:
    own: dict[str, float] = defaultdict(float)
    spent: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    compare_fit_s = 0.0
    for (name, start, end, _, command), self_s in zip(tracer.spans, selfs):
        own[name] += self_s
        spent[name] += end - start
        calls[name] += 1
        if name == "model.fit" and command == "compare":
            compare_fit_s += self_s
    ess = next(
        (r["ess"] for r in tracer.records if r["command"] == "compare"),
        {"delta0": 0.0, "sigma0": 0.0},
    )
    totals = tracer.totals
    out: dict[str, tuple[float, str]] = {"cli.startup_s": (startup_s, "s")}
    for command in COMMANDS:
        out[f"cli.{command}.s"] = (spent[f"cli.{command}"], "s")
    out.update({
        "scores.from_csvs.s": (own["scores.from_csvs"], "s"),
        "scores.assemble_differences.s": (own["scores.assemble_differences"], "s"),
        "scores.to_csv.s": (own["scores.to_csv"], "s"),
        "model.fit.s": (own["model.fit"], "s"),
        "model.fit.sweeps_per_s": (_per(totals["model.fit.sweeps"], own["model.fit"]), "1/s"),
        "model.fit.ess.delta0": (ess["delta0"], "count"),
        "model.fit.ess.sigma0": (ess["sigma0"], "count"),
        "model.fit.ess_per_s.delta0": (_per(ess["delta0"], compare_fit_s), "1/s"),
        "model.fit.ess_per_s.sigma0": (_per(ess["sigma0"], compare_fit_s), "1/s"),
        "model.fit.nonconverged": (tracer.counts["model.fit.nonconverged"], "count"),
        "ess_per_s": (_per(min(ess.values()), spent["cli.compare"]), "1/s"),
        "model.write_chains_csv.s": (own["model.write_chains_csv"], "s"),
        "model.write_chains_csv.mb": (totals["model.write_chains_csv.bytes"] / 1e6, "MB"),
        "model.read_chains_csv.s": (own["model.read_chains_csv"], "s"),
        "diagnostics.diagnose.s": (own["diagnostics.diagnose"], "s"),
        "diagnostics.diagnose.calls": (calls["diagnostics.diagnose"], "count"),
        "decision.tally.s": (own["decision.tally"], "s"),
        "decision.tally.draws_per_s": (
            _per(totals["decision.tally.draws"], own["decision.tally"]), "1/s"),
        "statcore.betainc.calls": (tracer.counts["statcore.betainc.calls"], "count"),
        "plotting.draws_to_points.s": (own["plotting.draws_to_points"], "s"),
        "plotting.draws_to_points.draws_per_s": (
            _per(totals["plotting.draws_to_points.draws"], own["plotting.draws_to_points"]),
            "1/s"),
        "plotting.render_simplex_svg.s": (own["plotting.render_simplex_svg"], "s"),
        "runner.run_external.s": (own["runner.run_external"], "s"),
        "runner.rounds_per_s": (_per(totals["runner.rounds"], spent["runner.run_external"]), "1/s"),
        "runner.command.s": (spent["runner.command"], "s"),
        "metrics.write_corpus.s": (own["metrics.write_corpus"], "s"),
        "metrics.write_corpus.mb": (totals["metrics.write_corpus.bytes"] / 1e6, "MB"),
        "metrics.read_corpus.s": (own["metrics.read_corpus"], "s"),
        "metrics.accuracy.s": (own["metrics.accuracy"], "s"),
        "splits.make_splits.s": (own["splits.make_splits"], "s"),
        "splits.fold_roles.s": (own["splits.fold_roles"], "s"),
        "manifest.collect.s": (own["manifest.collect"], "s"),
    })
    for command in COMMANDS:
        out[f"unattributed_s.{command}"] = (own[f"cli.{command}"], "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["trace.count_cost_s"] = (
        counting_cost_per_call() * tracer.counts["statcore.betainc.calls"], "s")
    return out


def self_by_command(tracer: Tracer, selfs: list[float]) -> dict[str, dict[str, float]]:
    """Self time per span name, split by command."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, _, _, _, command), self_s in zip(tracer.spans, selfs):
        out[command][name] += self_s
    return {command: dict(names) for command, names in out.items()}
