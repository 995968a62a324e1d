"""End-to-end tests driving the command line through main()."""

import argparse
import json
import multiprocessing
import os
import re
import shlex
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from bayescv import cli, model
from bayescv.cli import main
from bayescv.decision import RopeInterval, count_draws, read_report_csv, rope_from_differences
from bayescv.manifest import file_digest, read_kv, write_kv
from bayescv.model import read_chains_csv
from bayescv.plotting import plotted_indices
from bayescv.scores import ScoreMatrix, assemble_differences

FIXTURES = Path(__file__).parent / "fixtures"
DELTA3 = FIXTURES / "delta3rope_scores.csv"
PAPER_SHAPE = FIXTURES / "paper_shape_scores.csv"

FAST = ["--chains", "2", "--draws", "1500", "--warmup", "500"]

# Prior flags that are not finite, and the knob the error names.
NON_FINITE_PRIORS = [
    pytest.param(flags, knob, id=" ".join(flags))
    for flags, knob in (
        (("--nu-prior", "nan", "0.1"), "nu_prior shape"),
        (("--nu-prior", "2", "inf"), "nu_prior rate"),
        (("--sigma-bar-factor", "inf"), "sigma_bar_factor"),
        (("--sigma-bar-factor", "nan"), "sigma_bar_factor"),
        (("--delta0-halfwidth", "inf"), "delta0_prior_halfwidth"),
        (("--delta0-halfwidth", "nan"), "delta0_prior_halfwidth"),
    )
]


def run(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture()
def one_dataset_csv(tmp_path):
    """Scores for a single dataset, alpha about 0.02 above beta."""
    rng = np.random.default_rng(91)
    matrix = ScoreMatrix()
    for rep in range(5):
        for fold in range(10):
            matrix.add("wsj", "alpha", "token", rep, fold, 0.82 + rng.normal(0.0, 0.008))
            matrix.add("wsj", "beta", "token", rep, fold, 0.80 + rng.normal(0.0, 0.008))
    path = tmp_path / "one.scores.csv"
    matrix.to_csv(path)
    return path


@pytest.fixture()
def three_system_csv(tmp_path):
    """Three systems with a planted order low < mid < high, gaps 3x the rope."""
    rng = np.random.default_rng(17)
    matrix = ScoreMatrix()
    for ds in ("d0", "d1", "d2"):
        for rep in range(2):
            for fold in range(5):
                base = 0.70 + rng.normal(0.0, 0.002)
                matrix.add(ds, "low", "token", rep, fold, base)
                matrix.add(ds, "mid", "token", rep, fold, base + 0.03 + rng.normal(0.0, 0.002))
                matrix.add(ds, "high", "token", rep, fold, base + 0.06 + rng.normal(0.0, 0.002))
    path = tmp_path / "three.scores.csv"
    matrix.to_csv(path)
    return path


class TestSplit:
    def test_plan_bytes_stable_across_reruns(self, tmp_path):
        prefix = tmp_path / "toy"
        assert run("split", "--n", 200, "--k", 10, "--m", 20, "--seed", 41,
                   "--out-prefix", prefix) == 0
        plan_path = tmp_path / "toy.plan.json"
        first = plan_path.read_bytes()
        assert run("split", "--n", 200, "--k", 10, "--m", 20, "--seed", 41,
                   "--out-prefix", prefix) == 0
        assert plan_path.read_bytes() == first
        assert (tmp_path / "toy.manifest.txt").exists()

    def test_plan_contents(self, tmp_path):
        from bayescv.splits import make_splits, read_plan

        prefix = tmp_path / "p"
        assert run("split", "--n", 30, "--k", 5, "--m", 3, "--seed", 9,
                   "--out-prefix", prefix) == 0
        plan = read_plan(tmp_path / "p.plan.json")
        assert np.array_equal(plan.assignments, make_splits(30, 5, 3, 9).assignments)

    def test_rejects_bad_fold_count(self, tmp_path):
        prefix = tmp_path / "bad"
        assert run("split", "--n", 200, "--k", 1, "--m", 5, "--out-prefix", prefix) == 2
        assert run("split", "--n", 3, "--k", 10, "--m", 5, "--out-prefix", prefix) == 2


class TestScore:
    def _write_corpus(self, path: Path, n: int = 12) -> None:
        lines = []
        for i in range(n):
            lines.append(f"w{i}\tN")
            lines.append(f"v{i}\tV")
            lines.append("")
        path.write_text("\n".join(lines), encoding="utf-8")

    def test_copy_command_scores_one(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        self._write_corpus(corpus)
        assert run("split", "--n", 12, "--k", 3, "--m", 2, "--seed", 5,
                   "--out-prefix", tmp_path / "c") == 0
        rc = run("score", "--plan", tmp_path / "c.plan.json", "--corpus", corpus,
                 "--dataset", "toy", "--system", "copy",
                 "--command", "cp {test} {pred}",
                 "--metrics", "token,sentence",
                 "--out-prefix", tmp_path / "copy")
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == str(tmp_path / "copy.manifest.txt")
        matrix = ScoreMatrix.from_csvs([tmp_path / "copy.scores.csv"])
        assert len(matrix) == 2 * 3 * 2
        assert all(v == 1.0 for v in matrix.entries.values())

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_progress_per_round_on_stderr(self, tmp_path, capsys, workers):
        corpus = tmp_path / "corpus.tsv"
        self._write_corpus(corpus)
        assert run("split", "--n", 12, "--k", 3, "--m", 2, "--seed", 5,
                   "--out-prefix", tmp_path / "c") == 0
        capsys.readouterr()
        rc = run("score", "--plan", tmp_path / "c.plan.json", "--corpus", corpus,
                 "--dataset", "toy", "--system", "copy", "--command", "cp {test} {pred}",
                 "--workers", workers, "--out-prefix", tmp_path / "copy")
        assert rc == 0
        captured = capsys.readouterr()
        found = re.findall(
            r"^round (\d+)/(\d+): (\d+\.\d) s elapsed, eta (\d+\.\d) s$",
            captured.err, flags=re.MULTILINE,
        )
        assert [(int(d), int(t)) for d, t, _, _ in found] == [(i, 6) for i in range(1, 7)]
        elapsed = [float(e) for _, _, e, _ in found]
        assert elapsed == sorted(elapsed)
        assert float(found[-1][3]) == 0.0
        assert captured.out.splitlines() == [str(tmp_path / "copy.manifest.txt")]
        assert "eta" not in (tmp_path / "copy.scores.csv").read_text(encoding="utf-8")

    def test_missing_plan_is_io_error(self, tmp_path):
        corpus = tmp_path / "corpus.tsv"
        self._write_corpus(corpus)
        rc = run("score", "--plan", tmp_path / "absent.plan.json", "--corpus", corpus,
                 "--dataset", "toy", "--system", "x", "--command", "cp {test} {pred}",
                 "--out-prefix", tmp_path / "s")
        assert rc == 4

    @pytest.mark.parametrize(
        "command, message",
        [
            ("sh -c 'exit 3' run {test} {pred}", r"command exited with 3: sh -c 'exit 3' run \S+test\.tsv \S+pred\.tsv"),
            ("true {test} {pred}", r"command wrote no file at \S+pred\.tsv"),
            ("sh -c 'echo garbage-without-tab > {pred}' run {test}",
             r"\S+pred\.tsv:1: expected 'token<TAB>tag', got 'garbage-without-tab'"),
            ("""sh -c 'printf "wrong\\tX\\n\\n" > {pred}' run {test}""",
             "prediction misaligned: gold has 4 sentences, prediction has 1"),
        ],
        ids=["nonzero_exit", "no_prediction", "malformed_prediction", "misaligned_prediction"],
    )
    def test_failing_command_is_io_error(self, tmp_path, capsys, command, message):
        assert self._split_and_score(tmp_path, command, system="boom") == 4
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert re.fullmatch(rf"error: round \(0, 0\): {message}", errors[0]), errors[0]
        assert not (tmp_path / "boom.scores.csv").exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("cp {test} {pred} {bogus}", "unknown placeholder 'bogus' in command template"),
            ("cp '{test} {pred}", "bad command template \"cp '{test} {pred}\": No closing quotation"),
            # Doubled braces are a literal "{test}", not a field.
            ("cp {{test}} {pred}", "command template is missing {test}"),
        ],
        ids=["unknown_placeholder", "unclosed_quote", "escaped_braces"],
    )
    def test_bad_template_fails_before_any_round(self, tmp_path, capsys, command, message):
        corpus = tmp_path / "corpus.tsv"
        self._write_corpus(corpus)
        assert run("split", "--n", 12, "--k", 3, "--m", 1, "--seed", 5,
                   "--out-prefix", tmp_path / "c") == 0
        rc = run("score", "--plan", tmp_path / "c.plan.json", "--corpus", corpus,
                 "--dataset", "toy", "--system", "x", "--command", command,
                 "--workdir", tmp_path / "wd", "--out-prefix", tmp_path / "s")
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "wd").exists()

    def test_placeholder_with_a_conversion_is_a_field(self, tmp_path):
        assert self._split_and_score(tmp_path, "cp {test!s} {pred}", "--metrics", "token") == 0
        matrix = ScoreMatrix.from_csvs([tmp_path / "x.scores.csv"])
        assert list(matrix.entries.values()) == [1.0] * 3

    @pytest.mark.parametrize("flag", ["--dataset", "--system"])
    def test_line_break_in_an_id_fails_before_any_round(self, tmp_path, capsys, flag):
        corpus = tmp_path / "corpus.tsv"
        self._write_corpus(corpus)
        assert run("split", "--n", 12, "--k", 3, "--m", 1, "--seed", 5,
                   "--out-prefix", tmp_path / "c") == 0
        ids = {"--dataset": "toy", "--system": "x", flag: "alpha\nchains_sha256=0000"}
        rc = run("score", "--plan", tmp_path / "c.plan.json", "--corpus", corpus,
                 *[part for item in ids.items() for part in item],
                 "--command", "cp {test} {pred}", "--workdir", tmp_path / "wd",
                 "--out-prefix", tmp_path / "s")
        assert rc == 2
        assert f"{flag[2:]} id 'alpha\\nchains_sha256=0000' contains a line break" in (
            capsys.readouterr().err)
        assert not (tmp_path / "wd").exists()
        assert not (tmp_path / "s.scores.csv").exists()

    def test_line_break_in_the_template_fails_before_any_round(self, tmp_path, capsys):
        # shlex reads the break as a space, so the command itself would
        # run; its second line would become a key=value line of the manifest.
        corpus = tmp_path / "corpus.tsv"
        self._write_corpus(corpus)
        assert run("split", "--n", 12, "--k", 3, "--m", 1, "--seed", 5,
                   "--out-prefix", tmp_path / "c") == 0
        command = """sh -c 'cp "$0" "$1"' {test} {pred}\nchains_sha256=0000"""
        rc = run("score", "--plan", tmp_path / "c.plan.json", "--corpus", corpus,
                 "--dataset", "toy", "--system", "x", "--command", command,
                 "--workdir", tmp_path / "wd", "--out-prefix", tmp_path / "s")
        assert rc == 2
        assert f"command template {command!r} contains a line break" in capsys.readouterr().err
        assert not (tmp_path / "wd").exists()
        assert not (tmp_path / "s.manifest.txt").exists()
        assert not (tmp_path / "s.scores.csv").exists()

    @pytest.mark.parametrize(
        "metrics, message",
        [
            ("token,bogus", "unknown metrics bogus; known metrics: token, sentence, oov"),
            (",", "no metrics given; known metrics: token, sentence, oov"),
        ],
        ids=["unknown", "empty"],
    )
    def test_bad_metrics_fail_before_any_round(self, tmp_path, capsys, metrics, message):
        corpus = tmp_path / "corpus.tsv"
        self._write_corpus(corpus)
        assert run("split", "--n", 12, "--k", 4, "--m", 2, "--seed", 5,
                   "--out-prefix", tmp_path / "c") == 0
        calls = tmp_path / "calls.log"
        command = (f"sh -c 'echo x >> \"$0\"; cp \"$1\" \"$2\"' "
                   f"{shlex.quote(str(calls))} {{test}} {{pred}}")

        def score(metric_list: str) -> int:
            return run("score", "--plan", tmp_path / "c.plan.json", "--corpus", corpus,
                       "--dataset", "toy", "--system", "x", "--command", command,
                       "--metrics", metric_list, "--workers", "2", "--out-prefix", tmp_path / "s")

        capsys.readouterr()
        assert score(metrics) == 2
        assert message in capsys.readouterr().err
        assert not calls.exists()
        assert not (tmp_path / "s.scores.csv").exists()
        # The counter works: a valid list runs the command once per round.
        assert score("token") == 0
        assert len(calls.read_text(encoding="utf-8").splitlines()) == 8


    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
    def test_bad_timeout_fails_before_any_round(self, tmp_path, capsys, timeout):
        corpus = tmp_path / "corpus.tsv"
        self._write_corpus(corpus)
        assert run("split", "--n", 12, "--k", 3, "--m", 1, "--seed", 5,
                   "--out-prefix", tmp_path / "c") == 0
        rc = run("score", "--plan", tmp_path / "c.plan.json", "--corpus", corpus,
                 "--dataset", "toy", "--system", "x", "--command", "cp {test} {pred}",
                 "--timeout", timeout, "--workdir", tmp_path / "wd",
                 "--out-prefix", tmp_path / "s")
        assert rc == 2
        assert "timeout must be finite and > 0 seconds" in capsys.readouterr().err
        assert not (tmp_path / "wd").exists()
        assert not (tmp_path / "s.scores.csv").exists()

    def _split_and_score(self, tmp_path, command, *extra, k=3, system="x"):
        corpus = tmp_path / "corpus.tsv"
        self._write_corpus(corpus)
        assert run("split", "--n", 12, "--k", k, "--m", 1, "--seed", 5,
                   "--out-prefix", tmp_path / "c") == 0
        return run("score", "--plan", tmp_path / "c.plan.json", "--corpus", corpus,
                   "--dataset", "toy", "--system", system, "--command", command,
                   *extra, "--out-prefix", tmp_path / system)

    def test_reused_workdir_does_not_score_stale_predictions(self, tmp_path, capsys):
        workdir = tmp_path / "wd"
        assert self._split_and_score(tmp_path, "cp {test} {pred}", "--workdir", workdir) == 0
        capsys.readouterr()
        rc = self._split_and_score(tmp_path, "true {test} {pred}", "--workdir", workdir,
                                   system="broken")
        assert rc == 4
        assert "round (0, 0): command wrote no file" in capsys.readouterr().err
        assert not (tmp_path / "broken.scores.csv").exists()

    def test_undecodable_stdout_is_discarded(self, tmp_path):
        command = "sh -c 'printf \"\\377\"; cp {test} {pred}'"
        assert self._split_and_score(tmp_path, command, "--metrics", "token,sentence") == 0
        matrix = ScoreMatrix.from_csvs([tmp_path / "x.scores.csv"])
        assert len(matrix) == 3 * 2
        assert all(v == 1.0 for v in matrix.entries.values())

    def test_undecodable_stderr_still_names_the_round(self, tmp_path, capsys):
        command = "sh -c 'printf \"\\377\" >&2; exit 1' {test} {pred}"
        assert self._split_and_score(tmp_path, command) == 4
        err = capsys.readouterr().err
        assert "error: round (0, 0): command exited with 1: " in err
        assert "\ufffd" in err

    def test_plan_with_two_folds_fails_before_any_round(self, tmp_path, capsys):
        rc = self._split_and_score(tmp_path, "cp {test} {pred}", "--workdir", tmp_path / "wd", k=2)
        assert rc == 2
        assert "scoring needs k >= 3 folds, got k = 2" in capsys.readouterr().err
        assert not (tmp_path / "wd").exists()
        assert not (tmp_path / "x.scores.csv").exists()

    def test_plan_with_an_empty_fold_fails_before_any_round(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        self._write_corpus(corpus)
        assert run("split", "--n", 12, "--k", 4, "--m", 2, "--seed", 5,
                   "--out-prefix", tmp_path / "c") == 0
        # Move repetition 1's fold-2 items to fold 0, leaving fold 2 empty.
        doc = json.loads((tmp_path / "c.plan.json").read_text(encoding="utf-8"))
        doc["assignments"][1] = [0 if f == 2 else f for f in doc["assignments"][1]]
        (tmp_path / "c.plan.json").write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        rc = run("score", "--plan", tmp_path / "c.plan.json", "--corpus", corpus,
                 "--dataset", "toy", "--system", "x", "--command", "cp {test} {pred}",
                 "--workdir", tmp_path / "wd", "--out-prefix", tmp_path / "x")
        assert rc == 2
        assert "repetition 1 has no items in fold 2" in capsys.readouterr().err
        assert not (tmp_path / "wd").exists()
        assert not (tmp_path / "x.scores.csv").exists()


class TestCompare:
    def test_hierarchical_clear_difference(self, tmp_path, capsys):
        prefix = tmp_path / "pair"
        rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope", "0.01", "--seed", "2", *FAST,
                 "--out-prefix", prefix)
        assert rc == 0
        err = capsys.readouterr().err
        for stage in ("load", "fit", "tally", "write chains"):
            assert f"stage {stage}: " in err
        rows = read_report_csv(tmp_path / "pair.report.csv")
        assert len(rows) == 1
        assert rows[0].system_a == "alpha"
        assert rows[0].triple.p_right > 0.9
        assert rows[0].triple.verdict == "right"
        assert rows[0].rope_halfwidth == 0.01

        chains = read_chains_csv(tmp_path / "pair.chains.csv")
        assert chains["delta0"].shape == (2, 1500)
        meta = read_kv(tmp_path / "pair.chains.meta.txt")
        assert meta["method"] == "hierarchical"
        assert meta["n_datasets"] == "8"
        assert float(meta["rope_halfwidth"]) == 0.01
        assert float(meta["standardization_constant"]) > 0.0

    def test_sidecar_records_the_sampler_and_its_diagnostics(self, tmp_path):
        assert run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                   "--metric", "token", "--rope", "0.01", "--seed", "2", *FAST,
                   "--out-prefix", tmp_path / "pair") == 0
        meta = read_kv(tmp_path / "pair.chains.meta.txt")
        assert (meta["chains"], meta["draws_per_chain"], meta["warmup"]) == ("2", "1500", "500")
        assert meta["converged"] == "true"
        assert meta["dataset_ids"] == json.dumps([f"ds{i:02d}" for i in range(8)])
        names = ["delta0", "sigma0", "nu"] + [
            f"{kind}[ds{i:02d}]" for kind in ("delta", "sigma") for i in range(8)
        ]
        for key in ("r_hat", "ess"):
            assert sorted(k for k in meta if k.startswith(f"{key}[")) == sorted(
                f"{key}[{name}]" for name in names
            )

    def test_sidecar_accept_and_step_for_nu_only(self, tmp_path):
        assert run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                   "--metric", "token", "--rope", "0.01", "--seed", "2", *FAST,
                   "--out-prefix", tmp_path / "pair") == 0
        meta = read_kv(tmp_path / "pair.chains.meta.txt")
        # nu is the only parameter with a Metropolis step; every other one
        # is drawn from its conditional.
        assert [k for k in meta if k.startswith(("accept[", "step["))] == ["accept[nu]", "step[nu]"]
        assert 0.0 < float(meta["accept[nu]"]) < 1.0
        assert float(meta["step[nu]"]) > 0.0

    def test_single_dataset_falls_back_to_t_posterior(self, one_dataset_csv, tmp_path):
        prefix = tmp_path / "t"
        rc = run("compare", "--scores", one_dataset_csv, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope", "0.01", "--seed", "3",
                 "--chains", "4", "--draws", "5000", "--out-prefix", prefix)
        assert rc == 0
        meta = read_kv(tmp_path / "t.chains.meta.txt")
        assert meta["method"] == "correlated_ttest"
        assert "ttest_location" in meta
        assert not (tmp_path / "t.chains.csv").exists()
        rows = read_report_csv(tmp_path / "t.report.csv")
        assert rows[0].triple.n_samples == 4 * 5000

    def test_sidecar_counts_are_the_reported_triple(self, one_dataset_csv, tmp_path):
        # The sidecar holds no counts, only what counts them again: its rope
        # and standardization constant over the chains give the reported
        # triple. A hierarchical pair and a single-dataset one, each with
        # draws in more than one region.
        for name, scores, rope in (("t", one_dataset_csv, "0.02"), ("h", DELTA3, "0.03")):
            assert run("compare", "--scores", scores, "--a", "alpha", "--b", "beta",
                       "--metric", "token", "--rope", rope, "--seed", "2", *FAST,
                       "--out-prefix", tmp_path / name) == 0
            meta = read_kv(tmp_path / f"{name}.chains.meta.txt")
            assert not {"n_left", "n_rope", "n_right"} & meta.keys(), name
            (row,) = read_report_csv(tmp_path / f"{name}.report.csv")
            t = row.triple
            assert sorted((t.n_left, t.n_rope, t.n_right))[1] > 0, name
        # meta and t are the hierarchical pair's, the last above.
        chains = read_chains_csv(tmp_path / "h.chains.csv", names=("delta0", "sigma0", "nu"))
        rope = RopeInterval(float(meta["rope_halfwidth"]))
        rope = rope.scaled(float(meta["standardization_constant"]))
        assert count_draws(*(chains[n] for n in ("delta0", "sigma0", "nu")), rope) == t

    def test_sign_flipped_posterior_swaps_the_sidecar_counts(self, tmp_path, monkeypatch):
        fit = cli.fit

        def flipped_fit(series, config):
            post = fit(series, config)
            q = len(post.dataset_ids)
            post.draws[..., [0, *range(3, 3 + q)]] *= -1.0
            return post

        # The counts are the report's; the sidecar no longer records them.
        counts = []
        for name in ("plain", "flipped"):
            if name == "flipped":
                monkeypatch.setattr(cli, "fit", flipped_fit)
            assert run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                       "--metric", "token", "--rope", "0.03", "--seed", "2", *FAST,
                       "--out-prefix", tmp_path / name) == 0
            (row,) = read_report_csv(tmp_path / f"{name}.report.csv")
            counts.append([row.triple.n_left, row.triple.n_rope, row.triple.n_right])
        assert counts[1] == counts[0][::-1]
        assert counts[0][0] != counts[0][2]

    @pytest.mark.parametrize("method", ["hierarchical", "correlated_ttest"])
    def test_swapped_systems_mirror_bit_for_bit(self, one_dataset_csv, tmp_path, method):
        scores, rope = (DELTA3, "0.03") if method == "hierarchical" else (one_dataset_csv, "0.02")
        for name, a, b in (("ab", "alpha", "beta"), ("ba", "beta", "alpha")):
            assert run("compare", "--scores", scores, "--a", a, "--b", b, "--metric", "token",
                       "--rope", rope, "--seed", "2", *FAST, "--out-prefix", tmp_path / name) == 0
        ab_ba = ("ab", "ba")
        ab, ba = (read_kv(tmp_path / f"{name}.chains.meta.txt") for name in ab_ba)
        assert ab["method"] == method
        (row_ab,), (row_ba,) = (read_report_csv(tmp_path / f"{n}.report.csv") for n in ab_ba)
        assert (row_ba.system_a, row_ba.system_b) == (row_ab.system_b, row_ab.system_a)
        assert row_ba.triple == row_ab.triple.flipped()
        assert row_ab.triple.n_left != row_ab.triple.n_right
        if method == "correlated_ttest":
            assert float(ba["ttest_location"]) == -float(ab["ttest_location"])
            return
        chains_ab, chains_ba = (read_chains_csv(tmp_path / f"{n}.chains.csv") for n in ab_ba)
        for name, draws in chains_ab.items():
            # delta0 and delta[...] are locations; sigma0, nu and sigma[...] scales.
            assert_array_equal(chains_ba[name], -draws if name.startswith("delta") else draws)
        for key in ab:
            if key.startswith(("r_hat[", "ess[")):
                assert ba[key] == ab[key], key

    @pytest.mark.parametrize(
        "flag, value", [("--chains", "1"), ("--draws", "5"), ("--warmup", "-3")]
    )
    def test_single_dataset_rejects_bad_sampler_flags(
        self, one_dataset_csv, tmp_path, capsys, flag, value
    ):
        # The t fallback runs no sampler, but its sample count comes from
        # the same flags, so they are checked as on the hierarchical path.
        rc = run("compare", "--scores", one_dataset_csv, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope", "0.01", flag, value,
                 "--out-prefix", tmp_path / "t")
        assert rc == 2
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "t.report.csv").exists()
        assert not (tmp_path / "t.chains.meta.txt").exists()

    def test_standardization_cannot_be_turned_off(self, tmp_path, capsys):
        # The draws are always stored on the standardized scale.
        rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope", "0.01", *FAST, "--no-standardize",
                 "--out-prefix", tmp_path / "p")
        assert rc == 2
        assert "unrecognized arguments: --no-standardize" in capsys.readouterr().err
        assert not (tmp_path / "p.report.csv").exists()

    @pytest.mark.parametrize("flags, knob", NON_FINITE_PRIORS)
    def test_non_finite_prior_is_usage_error(self, tmp_path, capsys, flags, knob):
        # Rejected before any work: a NaN prior freezes nu or fails only
        # after the whole fit, and an infinite one makes the prior improper.
        prefix = tmp_path / "p"
        rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope", "0.01", *FAST, "--seed", "2", *flags,
                 "--out-prefix", prefix)
        assert rc == 2
        assert f"error: {knob} must be finite and positive" in capsys.readouterr().err
        for suffix in (".report.csv", ".chains.csv", ".chains.meta.txt", ".manifest.txt"):
            assert not Path(f"{prefix}{suffix}").exists(), suffix

    def test_self_comparison_is_all_rope(self, one_dataset_csv, tmp_path):
        rc = run("compare", "--scores", one_dataset_csv, "--a", "alpha", "--b", "alpha",
                 "--metric", "token", "--rope", "0.01", "--out-prefix", tmp_path / "self")
        assert rc == 0
        rows = read_report_csv(tmp_path / "self.report.csv")
        assert rows[0].triple.p_rope == 1.0

    def test_rope_mode_ci95_matches_pooled_interval(self, tmp_path):
        prefix = tmp_path / "auto"
        rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope-mode", "ci95", "--seed", "2", *FAST,
                 "--out-prefix", prefix)
        assert rc == 0
        meta = read_kv(tmp_path / "auto.chains.meta.txt")
        assert meta["rope_mode"].startswith("ci95")
        series = assemble_differences(
            ScoreMatrix.from_csvs([DELTA3]), "alpha", "beta", "token"
        )
        expected = rope_from_differences(series).halfwidth
        assert float(meta["rope_halfwidth"]) == expected

    def test_unknown_system_is_usage_error(self, tmp_path):
        rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "nadir",
                 "--metric", "token", "--rope", "0.01", "--out-prefix", tmp_path / "x")
        assert rc == 2

    def test_failed_pair_setup_leaves_no_manifest(self, tmp_path, capsys):
        rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "nosuch",
                 "--metric", "token", "--rope", "0.01", "--out-prefix", tmp_path / "pair")
        assert rc == 2
        assert ("error: no shared scores between 'alpha' and 'nosuch' for metric 'token'"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_missing_scores_file_is_io_error(self, tmp_path):
        rc = run("compare", "--scores", tmp_path / "nope.csv", "--a", "a", "--b", "b",
                 "--metric", "token", "--rope", "0.01", "--out-prefix", tmp_path / "x")
        assert rc == 4

    def test_same_file_twice_is_duplicate_error(self, tmp_path):
        rc = run("compare", "--scores", DELTA3, DELTA3, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope", "0.01", "--out-prefix", tmp_path / "x")
        assert rc == 2

    def test_rope_flag_is_required(self, tmp_path):
        rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--out-prefix", tmp_path / "x")
        assert rc == 2

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        # A nu prior flat up to 1e20 lets nu drift upward over decades, and
        # with no warmup its walk keeps its first step size, so the chains
        # wander apart in nu and fail R-hat.
        prefix = tmp_path / "stuck"
        rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope", "0.01",
                 "--chains", "4", "--draws", "1000", "--warmup", "0",
                 "--nu-prior", "1", "1e-20", "--seed", "1",
                 "--out-prefix", prefix)
        assert rc == 3
        assert (tmp_path / "stuck.report.csv").exists()
        assert (tmp_path / "stuck.chains.csv").exists()
        warning = next(
            line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")
        )
        assert "R-hat above 1.05" in warning
        assert re.search(r"\w+ \(r_hat=(\d+\.\d{3}|nan), ess=(\d+|nan)\)", warning)

    def test_low_ess_alone_exits_3(self, tmp_path, capsys, monkeypatch):
        # Every R-hat passes at these settings; a gate no ESS can reach
        # fails every parameter on ESS alone.
        monkeypatch.setattr(model, "ESS_THRESHOLD", 1e9)
        rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope", "0.01", "--seed", "2", *FAST,
                 "--out-prefix", tmp_path / "pair")
        assert rc == 3
        assert read_kv(tmp_path / "pair.chains.meta.txt")["converged"] == "false"
        warning = next(
            line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")
        )
        assert "or ESS below" in warning
        assert re.search(r"delta0: ESS \(r_hat=1\.0\d\d, ess=\d+\)", warning)
        assert "R-hat and" not in warning

    def test_artifacts_identical_across_reruns_and_workers(self, tmp_path, monkeypatch):
        # The same relative prefix in each directory keeps the manifest
        # path, and so the "# manifest:" line, the same in every run.
        outputs = []
        for run_dir in ("a", "b", "c"):
            (tmp_path / run_dir).mkdir()
            monkeypatch.chdir(tmp_path / run_dir)
            rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                     "--metric", "token", "--rope", "0.01", "--seed", "2", *FAST,
                     "--out-prefix", "pair")
            assert rc == 0
            outputs.append([
                Path(name).read_bytes()
                for name in ("pair.chains.csv", "pair.chains.meta.txt", "pair.report.csv")
            ])
        assert outputs[0] == outputs[1] == outputs[2]


    def test_line_break_in_a_system_id_rejected(self, tmp_path, capsys):
        # Quoted, the id is one CSV field; written verbatim into the
        # sidecar it would add a second chains_sha256 line.
        bad = '"alpha\nchains_sha256=0000"'
        scores = tmp_path / "bad.scores.csv"
        scores.write_text(DELTA3.read_text(encoding="utf-8").replace(",alpha,", f",{bad},"),
                          encoding="utf-8")
        rc = run("compare", "--scores", scores, "--a", "alpha\nchains_sha256=0000", "--b", "beta",
                 "--metric", "token", "--rope", "0.01", *FAST, "--out-prefix", tmp_path / "pair")
        assert rc == 2
        assert f"{scores}:2: line break in an id of ('ds00', 'alpha\\nchains_sha256=0000'" in (
            capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [scores]


class TestRank:
    def test_planted_order_recovered(self, three_system_csv, tmp_path):
        prefix = tmp_path / "r"
        rc = run("rank", "--scores", three_system_csv, "--metric", "token",
                 "--rope", "0.01", "--seed", "6", *FAST, "--out-prefix", prefix)
        assert rc == 0
        text = (tmp_path / "r.ranking.txt").read_text(encoding="utf-8")
        lines = text.strip().splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[-1] == "ranking: low < mid < high"
        assert "high > low" in lines
        assert "high > mid" in lines
        assert "low < mid" in lines
        rows = read_report_csv(tmp_path / "r.pairs.csv")
        assert len(rows) == 3
        assert all(row.triple.verdict != "rope" for row in rows)

    def test_pairs_match_separate_compares(self, three_system_csv, tmp_path, capsys):
        # Add a system scored on two of the three data sets and one scored
        # on a single data set: rank then fits pairs with 3 and 2 shared
        # data sets in separate lockstep calls and uses the t posterior for
        # the single-dataset pairs, but keeps the pair order throughout.
        matrix = ScoreMatrix.from_csvs([three_system_csv])
        for (ds, system, metric, rep, fold), value in list(matrix.entries.items()):
            if system == "mid" and ds != "d2":
                matrix.add(ds, "two", metric, rep, fold, value + 0.001 * (fold - 2))
            if system == "low" and ds == "d0":
                matrix.add(ds, "one", metric, rep, fold, value - 0.02)
        scores = tmp_path / "five.scores.csv"
        matrix.to_csv(scores)
        capsys.readouterr()
        rank_rc = run("rank", "--scores", scores, "--metric", "token", "--rope", "0.01",
                      "--seed", "6", *FAST, "--out-prefix", tmp_path / "r")
        err = capsys.readouterr().err.splitlines()
        # 10 pairs: 3 with one shared data set, 4 with two and 3 with
        # three; under FAST a pair keeps about 0.2 MB of draws, so each
        # size is one call.
        assert sum(line.startswith("stage fit:") for line in err) == 2
        rows = read_report_csv(tmp_path / "r.pairs.csv")
        systems = sorted(["high", "low", "mid", "one", "two"])
        expected = [(a, b) for i, a in enumerate(systems) for b in systems[i + 1 :]]
        assert [(row.system_a, row.system_b) for row in rows] == expected
        verdict_lines = [line for line in err if " vs " in line and "->" in line]
        assert [line.split(":")[0] for line in verdict_lines] == [
            f"{a} vs {b}" for a, b in expected
        ]
        # With these short chains some two-dataset pairs fail R-hat; the
        # exit code must say so exactly when a separate compare does.
        compare_rcs = []
        for row in rows:
            prefix = tmp_path / f"{row.system_a}_{row.system_b}"
            compare_rcs.append(
                run("compare", "--scores", scores, "--a", row.system_a,
                    "--b", row.system_b, "--metric", "token", "--rope", "0.01",
                    "--seed", "6", *FAST, "--out-prefix", prefix)
            )
            alone = read_report_csv(tmp_path / f"{prefix.name}.report.csv")[0]
            assert alone.triple == row.triple, (row.system_a, row.system_b)
        assert set(compare_rcs) <= {0, 3}
        assert rank_rc == max(compare_rcs)

    @pytest.fixture()
    def seven_pair_csv(self, tmp_path):
        """Six systems whose 15 pairs share two data sets (7 pairs) or one."""
        coverage = {
            "full": ("d0", "d1", "d2"),
            "a1": ("d0", "d1"), "a2": ("d0", "d1"),
            "b1": ("d0", "d2"), "b2": ("d0", "d2"),
            "c1": ("d1", "d2"),
        }
        rng = np.random.default_rng(29)
        matrix = ScoreMatrix()
        for offset, (system, datasets) in enumerate(coverage.items()):
            for ds in datasets:
                for rep in range(2):
                    for fold in range(5):
                        value = 0.70 + 0.01 * offset + rng.normal(0.0, 0.003)
                        matrix.add(ds, system, "token", rep, fold, value)
        path = tmp_path / "six.scores.csv"
        matrix.to_csv(path)
        return path

    def test_output_does_not_depend_on_batching(
        self, seven_pair_csv, tmp_path, monkeypatch, capsys
    ):
        # A pair's draws under FAST take 2 chains x 1500 draws x 7
        # parameters x 8 bytes at two shared data sets.
        pair_bytes = 2 * 1500 * 7 * 8
        outputs = {}
        for name, budget in (("default", None), ("single", 1), ("three", 3 * pair_bytes)):
            if budget is not None:
                monkeypatch.setattr(cli, "_DRAW_BUDGET", budget)
            work = tmp_path / name
            work.mkdir()
            monkeypatch.chdir(work)
            capsys.readouterr()
            rc = run("rank", "--scores", seven_pair_csv, "--metric", "token",
                     "--rope", "0.01", "--seed", "6", *FAST, "--out-prefix", "r")
            err = capsys.readouterr().err.splitlines()
            batches = [line for line in err if line.startswith("fit batch: ")]
            assert len(batches) == sum(line.startswith("stage fit:") for line in err)
            outputs[name] = (
                rc,
                (work / "r.pairs.csv").read_bytes(),
                (work / "r.ranking.txt").read_bytes(),
            )
            if name == "single":
                assert len(batches) == 7
            if name == "three":
                assert batches == [
                    f"fit batch: {n} pairs x 2 data sets, {n * pair_bytes / 1e6:.1f} MB of draws"
                    for n in (3, 2, 2)
                ]
        assert outputs["single"] == outputs["default"]
        assert outputs["three"] == outputs["default"]
        assert outputs["default"][0] in (0, 3)

    def test_output_does_not_depend_on_worker_count(
        self, seven_pair_csv, tmp_path, monkeypatch, capsys
    ):
        # One pair per batch: 7 batches, more than either pool has workers.
        monkeypatch.setattr(cli, "_DRAW_BUDGET", 1)
        outputs = {}
        for workers in (1, 2):
            monkeypatch.setattr(cli, "_worker_count", lambda n_batches: workers)
            work = tmp_path / f"workers{workers}"
            work.mkdir()
            monkeypatch.chdir(work)
            capsys.readouterr()
            rc = run("rank", "--scores", seven_pair_csv, "--metric", "token",
                     "--rope", "0.01", "--seed", "6", *FAST, "--out-prefix", "r")
            # Stage wall times are the only part of stderr that may vary.
            err = [
                re.sub(r"^(stage [^:]+): \d+\.\d\d s$", r"\1: - s", line)
                for line in capsys.readouterr().err.splitlines()
            ]
            assert sum(line.startswith("fit batch: ") for line in err) == 7
            outputs[workers] = (
                rc,
                (work / "r.pairs.csv").read_bytes(),
                (work / "r.ranking.txt").read_bytes(),
                err,
            )
        assert outputs[2] == outputs[1]

    def test_one_worker_per_usable_cpu_and_batch(self):
        cpus = len(os.sched_getaffinity(0))
        assert cli._worker_count(100) == cpus
        assert cli._worker_count(1) == 1
        # No hierarchical pair: a pool that is never given work.
        assert cli._worker_count(0) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_dead_worker_exits_with_io_error(
        self, seven_pair_csv, tmp_path, monkeypatch, capsys, workers
    ):
        def die(series, config):
            os._exit(1)

        monkeypatch.setattr(cli, "fit_many", die)
        monkeypatch.setattr(cli, "_DRAW_BUDGET", 1)
        monkeypatch.setattr(cli, "_worker_count", lambda n_batches: workers)
        capsys.readouterr()
        rc = run("rank", "--scores", seven_pair_csv, "--metric", "token", "--rope", "0.01",
                 *FAST, "--out-prefix", tmp_path / "r")
        err = capsys.readouterr().err.splitlines()
        assert rc == cli.EXIT_IO
        # The pool fails every unfinished batch alike: all seven are named.
        assert [line for line in err if line.startswith("error:")] == [
            "error: a rank worker process died before fit batches 1, 2, 3, 4, 5, 6, 7 of 7 "
            "finished (a1 vs a2; a1 vs full; a2 vs full; b1 vs b2; b1 vs full; b2 vs full; "
            "c1 vs full)"
        ]
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "r.pairs.csv").exists()

    def test_dead_worker_names_only_the_unfinished_batches(
        self, seven_pair_csv, tmp_path, monkeypatch, capsys
    ):
        fit_many = cli.fit_many

        def die_on_the_last_batch(problems, config):
            if [s.dataset_id for s in problems[0]] == ["d1", "d2"]:
                os._exit(1)
            return fit_many(problems, config)

        monkeypatch.setattr(cli, "fit_many", die_on_the_last_batch)
        monkeypatch.setattr(cli, "_DRAW_BUDGET", 1)
        # One worker fits the batches in order, so the first six finish.
        monkeypatch.setattr(cli, "_worker_count", lambda n_batches: 1)
        capsys.readouterr()
        rc = run("rank", "--scores", seven_pair_csv, "--metric", "token", "--rope", "0.01",
                 *FAST, "--out-prefix", tmp_path / "r")
        err = capsys.readouterr().err.splitlines()
        assert rc == cli.EXIT_IO
        assert [line for line in err if line.startswith("error:")] == [
            "error: a rank worker process died before fit batch 7 of 7 finished (c1 vs full)"
        ]
        assert multiprocessing.active_children() == []

    def test_dead_worker_keeps_the_error_of_a_batch_that_failed(
        self, seven_pair_csv, tmp_path, monkeypatch, capsys
    ):
        fit_many = cli.fit_many
        failed = tmp_path / "batch7.failed"

        def fail_last_then_die_on_first(problems, config):
            ids = [s.dataset_id for s in problems[0]]
            if ids == ["d1", "d2"]:
                failed.touch()
                raise ValueError("batch seven is bad")
            if ids == ["d0", "d1"] and problems[0][0].x.mean() < 0:  # a1 vs a2
                deadline = time.monotonic() + 60
                while not failed.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(1.0)  # let batch 7's error reach the parent first
                os._exit(1)
            return fit_many(problems, config)

        monkeypatch.setattr(cli, "fit_many", fail_last_then_die_on_first)
        monkeypatch.setattr(cli, "_DRAW_BUDGET", 1)
        # One worker holds batch 1 while the other fits batches 2 to 7.
        monkeypatch.setattr(cli, "_worker_count", lambda n_batches: 2)
        capsys.readouterr()
        rc = run("rank", "--scores", seven_pair_csv, "--metric", "token", "--rope", "0.01",
                 *FAST, "--out-prefix", tmp_path / "r")
        err = capsys.readouterr().err.splitlines()
        assert rc == cli.EXIT_IO
        assert [line for line in err if line.startswith("error:")] == [
            "error: a rank worker process died before fit batch 1 of 7 finished (a1 vs a2); "
            "fit batch 7 of 7 failed: batch seven is bad"
        ]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "flag, value", [("--chains", "1"), ("--draws", "5"), ("--warmup", "-3")]
    )
    def test_single_dataset_rejects_bad_sampler_flags(
        self, one_dataset_csv, tmp_path, flag, value
    ):
        rc = run("rank", "--scores", one_dataset_csv, "--metric", "token", "--rope", "0.01",
                 flag, value, "--out-prefix", tmp_path / "r")
        assert rc == 2
        assert not (tmp_path / "r.pairs.csv").exists()
        assert not (tmp_path / "r.ranking.txt").exists()

    @pytest.mark.parametrize("flags, knob", NON_FINITE_PRIORS)
    def test_non_finite_prior_is_usage_error(self, three_system_csv, tmp_path, capsys, flags, knob):
        rc = run("rank", "--scores", three_system_csv, "--metric", "token", "--rope", "0.01",
                 *FAST, *flags, "--out-prefix", tmp_path / "r")
        assert rc == 2
        assert f"error: {knob} must be finite and positive" in capsys.readouterr().err
        for suffix in (".pairs.csv", ".ranking.txt", ".manifest.txt"):
            assert not (tmp_path / f"r{suffix}").exists(), suffix

    def test_failed_pair_setup_leaves_no_manifest(self, tmp_path, capsys):
        # x and y are scored on different data sets, so their pair has no
        # shared cell.
        matrix = ScoreMatrix()
        for system, dataset in (("x", "d0"), ("y", "d1")):
            for fold in range(5):
                matrix.add(dataset, system, "token", 0, fold, 0.8)
        scores = tmp_path / "disjoint.csv"
        matrix.to_csv(scores)
        rc = run("rank", "--scores", scores, "--metric", "token", "--rope", "0.01",
                 "--out-prefix", tmp_path / "r")
        assert rc == 2
        assert ("error: no shared scores between 'x' and 'y' for metric 'token'"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == [scores]

    def test_paper_shape_separates_the_distant_pairs(self, tmp_path):
        # Six systems, offsets 0, .002, .01, .02, .03 and .05 on two data
        # sets: every pair whose offsets differ by 0.02 or more goes to
        # the second system. The ranking and the near pairs are left
        # unchecked, since under these short chains they depend on the seed.
        rc = run("rank", "--scores", PAPER_SHAPE, "--metric", "token", "--rope", "0.01",
                 "--seed", "0", *FAST, "--out-prefix", tmp_path / "r")
        assert rc in (0, 3)
        verdicts = {
            (row.system_a, row.system_b): row.triple.verdict
            for row in read_report_csv(tmp_path / "r.pairs.csv")
        }
        assert len(verdicts) == 15
        distant = [
            ("t0", "t3"), ("t0", "t4"), ("t0", "t5"), ("t1", "t4"), ("t1", "t5"),
            ("t2", "t4"), ("t2", "t5"), ("t3", "t5"), ("t4", "t5"),
        ]
        assert {pair: verdicts[pair] for pair in distant} == dict.fromkeys(distant, "left")

    def test_paper_shape_at_the_default_sampler(self, tmp_path, capsys):
        # t0 and t1 differ by 0.002 against a rope of 0.01. At seeds 0-2
        # p_rope - p_left reads 0.09-0.10 here, many times its Monte Carlo
        # error, and every pair passes the R-hat and ESS gates.
        rc = run("rank", "--scores", PAPER_SHAPE, "--metric", "token", "--rope", "0.01",
                 "--seed", "0", "--out-prefix", tmp_path / "r")
        assert rc == 0
        assert "warning" not in capsys.readouterr().err
        verdicts = {
            (row.system_a, row.system_b): row.triple.verdict
            for row in read_report_csv(tmp_path / "r.pairs.csv")
        }
        assert verdicts[("t0", "t1")] == "rope"

    def test_single_system_is_usage_error(self, one_dataset_csv, tmp_path):
        path = ScoreMatrix.from_csvs([one_dataset_csv])
        matrix = ScoreMatrix()
        for key, value in path.entries.items():
            if key[1] == "alpha":
                matrix.entries[key] = value
        solo = tmp_path / "solo.csv"
        matrix.to_csv(solo)
        rc = run("rank", "--scores", solo, "--metric", "token", "--rope", "0.01",
                 "--out-prefix", tmp_path / "r")
        assert rc == 2


class TestPlot:
    @pytest.fixture()
    def compare_artifacts(self, tmp_path):
        prefix = tmp_path / "pair"
        rc = run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope", "0.01", "--seed", "2", *FAST,
                 "--out-prefix", prefix)
        assert rc == 0
        return tmp_path

    def test_plot_from_chains(self, compare_artifacts, tmp_path, capsys):
        capsys.readouterr()
        rc = run("plot", "--chains", compare_artifacts / "pair.chains.csv",
                 "--max-points", "200", "--out-prefix", tmp_path / "fig")
        assert rc == 0
        err = capsys.readouterr().err
        for stage in ("read chains", "points", "render"):
            assert f"stage {stage}: " in err
        svg = (tmp_path / "fig.svg").read_text(encoding="utf-8")
        assert svg.startswith('<?xml version="1.0"')
        assert svg.count("<circle") == 200
        assert ">alpha vs beta</text>" in svg
        assert f"<!-- manifest: {tmp_path / 'fig.manifest.txt'} -->" in svg
        assert "P(right)=" in svg

    def test_plot_is_deterministic(self, compare_artifacts, tmp_path):
        args = ("plot", "--chains", compare_artifacts / "pair.chains.csv",
                "--max-points", "100", "--out-prefix", tmp_path / "fig")
        assert run(*args) == 0
        first = (tmp_path / "fig.svg").read_bytes()
        assert run(*args) == 0
        assert (tmp_path / "fig.svg").read_bytes() == first

    def test_plot_from_report(self, compare_artifacts, tmp_path):
        rc = run("plot", "--report", compare_artifacts / "pair.report.csv",
                 "--out-prefix", tmp_path / "rep")
        assert rc == 0
        svg = (tmp_path / "rep.svg").read_text(encoding="utf-8")
        assert svg.count("<circle") == 1
        assert "P(rope)=" in svg

    def test_plot_from_report_draws_max_points(self, tmp_path):
        # Four systems on one data set: rank writes one row per pair.
        rng = np.random.default_rng(11)
        matrix = ScoreMatrix()
        for offset, system in enumerate(("s0", "s1", "s2", "s3")):
            for rep in range(2):
                for fold in range(5):
                    value = 0.70 + 0.02 * offset + rng.normal(0.0, 0.003)
                    matrix.add("d0", system, "token", rep, fold, value)
        scores = tmp_path / "four.scores.csv"
        matrix.to_csv(scores)
        assert run("rank", "--scores", scores, "--metric", "token", "--rope", "0.01",
                   "--out-prefix", tmp_path / "r") == 0
        assert len(read_report_csv(tmp_path / "r.pairs.csv")) == 6
        assert run("plot", "--report", tmp_path / "r.pairs.csv", "--max-points", "4",
                   "--out-prefix", tmp_path / "fig") == 0
        assert (tmp_path / "fig.svg").read_text(encoding="utf-8").count("<circle") == 4

    def test_plot_needs_rope_from_somewhere(self, compare_artifacts, tmp_path):
        # A bare copy of the chains has no sidecar (c.meta.txt) next to
        # it, and the draws cannot be classified without one.
        bare = tmp_path / "c.csv"
        bare.write_bytes((compare_artifacts / "pair.chains.csv").read_bytes())
        rc = run("plot", "--chains", bare, "--out-prefix", tmp_path / "fig")
        assert rc == 2

    @pytest.mark.parametrize("source", ["chains", "report"])
    def test_max_points_checked_before_any_work(self, compare_artifacts, tmp_path, capsys, source):
        capsys.readouterr()
        rc = run("plot", f"--{source}", compare_artifacts / f"pair.{source}.csv",
                 "--max-points", "0", "--out-prefix", tmp_path / "fig")
        assert rc == 2
        err = capsys.readouterr().err
        assert "--max-points must be >= 1, got 0" in err
        assert "stage" not in err
        assert not (tmp_path / "fig.manifest.txt").exists()
        assert not (tmp_path / "fig.svg").exists()

    def test_plot_requires_the_sidecar(self, compare_artifacts, tmp_path, capsys):
        # The draws are standardized; classifying them without the
        # sidecar's constant would put every draw on the wrong scale.
        copy = tmp_path / "x.chains.csv"
        copy.write_bytes((compare_artifacts / "pair.chains.csv").read_bytes())
        capsys.readouterr()
        rc = run("plot", "--chains", copy, "--rope", "0.03", "--out-prefix", tmp_path / "fig")
        assert rc == 2
        assert str(tmp_path / "x.chains.meta.txt") in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()

    def test_plot_rejects_a_sidecar_of_other_draws(
        self, compare_artifacts, one_dataset_csv, tmp_path, capsys
    ):
        # A single-dataset compare writes a sidecar with no constant and
        # no chain shape; read as 1.0, the constant would misclassify the
        # standardized draws (P(right)=1.000 instead of mostly rope).
        rc = run("compare", "--scores", one_dataset_csv, "--a", "alpha", "--b", "beta",
                 "--metric", "token", "--rope", "0.03", "--out-prefix", tmp_path / "one")
        assert rc == 0
        meta = compare_artifacts / "pair.chains.meta.txt"
        meta.write_bytes((tmp_path / "one.chains.meta.txt").read_bytes())
        capsys.readouterr()
        rc = run("plot", "--chains", compare_artifacts / "pair.chains.csv",
                 "--rope", "0.03", "--out-prefix", tmp_path / "fig")
        assert rc == 2
        err = capsys.readouterr().err
        assert str(meta) in err
        assert "'standardization_constant'" in err
        assert not (tmp_path / "fig.svg").exists()

    @pytest.mark.parametrize("constant", ["0", "inf"])
    def test_plot_rejects_a_bad_standardization_constant(
        self, compare_artifacts, tmp_path, capsys, constant
    ):
        meta = compare_artifacts / "pair.chains.meta.txt"
        meta.write_text(
            re.sub(r"(?m)^standardization_constant=.*$", f"standardization_constant={constant}",
                   meta.read_text(encoding="utf-8")),
            encoding="utf-8",
        )
        capsys.readouterr()
        rc = run("plot", "--chains", compare_artifacts / "pair.chains.csv",
                 "--out-prefix", tmp_path / "fig")
        assert rc == 2
        assert "scaling constant must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()

    def test_plot_needs_rope_when_sidecar_has_none(self, compare_artifacts, tmp_path, capsys):
        meta = compare_artifacts / "pair.chains.meta.txt"
        lines = meta.read_text(encoding="utf-8").splitlines(keepends=True)
        meta.write_text(
            "".join(line for line in lines if not line.startswith("rope_halfwidth=")),
            encoding="utf-8",
        )
        capsys.readouterr()
        rc = run("plot", "--chains", compare_artifacts / "pair.chains.csv",
                 "--out-prefix", tmp_path / "fig")
        assert rc == 2
        assert "no --rope given" in capsys.readouterr().err

    @staticmethod
    def _match_digest(chains: Path) -> None:
        """Set chains_sha256 in the sidecar of ``chains`` to the digest of
        the file as it is now, so plot gets past the digest to its later
        checks."""
        meta = chains.with_suffix(".meta.txt")
        meta.write_text(
            re.sub(r"(?m)^chains_sha256=.*$", f"chains_sha256={file_digest(chains)}",
                   meta.read_text(encoding="utf-8")),
            encoding="utf-8",
        )

    def test_sidecar_records_the_chains_digest(self, compare_artifacts):
        meta = read_kv(compare_artifacts / "pair.chains.meta.txt")
        assert meta["chains_sha256"] == file_digest(compare_artifacts / "pair.chains.csv")

    @pytest.mark.parametrize("damage", ["unplotted_digit", "whole_chain_cut", "point_mass_draw"])
    def test_plot_rejects_chains_that_differ_from_the_digest(
        self, compare_artifacts, tmp_path, capsys, damage
    ):
        path = compare_artifacts / "pair.chains.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = lines[1].rstrip("\n").split(",")
        row = lines[2 + 700].rstrip("\n").split(",")
        if damage == "unplotted_digit":
            # plot never parses the sigma[...] columns; the digest still
            # catches a change there that the full parse would accept.
            column = next(j for j, name in enumerate(header) if name.startswith("sigma["))
            last = row[column][-1]
            row[column] = row[column][:-1] + ("1" if last != "1" else "2")
        elif damage == "point_mass_draw":
            # sigma0 == 0 would otherwise send this row to the point-mass
            # shortcut, which must not count a NaN delta0 as rope.
            row[header.index("delta0")] = "nan"
            row[header.index("sigma0")] = "0"
        lines[2 + 700] = ",".join(row) + "\n"
        if damage == "whole_chain_cut":
            # Without the second chain's rows the file is still a complete
            # one-chain grid.
            lines = lines[: 2 + 1500]
        path.write_text("".join(lines), encoding="utf-8")
        if damage == "unplotted_digit":
            assert read_chains_csv(path)["delta0"].shape == (2, 1500)
        if damage == "whole_chain_cut":
            assert read_chains_csv(path)["delta0"].shape == (1, 1500)
        capsys.readouterr()
        rc = run("plot", "--chains", path, "--out-prefix", tmp_path / "fig")
        assert rc == 2
        assert "sha256 differs from chains_sha256" in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()

    def test_plot_requires_the_chains_digest(self, compare_artifacts, tmp_path, capsys):
        meta = compare_artifacts / "pair.chains.meta.txt"
        lines = meta.read_text(encoding="utf-8").splitlines(keepends=True)
        meta.write_text(
            "".join(line for line in lines if not line.startswith("chains_sha256=")),
            encoding="utf-8",
        )
        capsys.readouterr()
        rc = run("plot", "--chains", compare_artifacts / "pair.chains.csv",
                 "--out-prefix", tmp_path / "fig")
        assert rc == 2
        assert "'chains_sha256'" in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()

    def test_plot_rejects_chains_cut_after_a_whole_chain_behind_a_matching_digest(
        self, compare_artifacts, tmp_path, capsys
    ):
        path = compare_artifacts / "pair.chains.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[: 2 + 1500]), encoding="utf-8")
        self._match_digest(path)
        capsys.readouterr()
        rc = run("plot", "--chains", path, "--out-prefix", tmp_path / "fig")
        assert rc == 2
        assert "1 chains x 1500 draws" in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()

    def test_plot_rejects_damaged_point_mass_draw_behind_a_matching_digest(
        self, compare_artifacts, tmp_path, capsys
    ):
        path = compare_artifacts / "pair.chains.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = lines[1].rstrip("\n").split(",")
        row = lines[2 + 700].rstrip("\n").split(",")
        row[header.index("delta0")] = "nan"
        row[header.index("sigma0")] = "0"
        lines[2 + 700] = ",".join(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        self._match_digest(path)
        capsys.readouterr()
        rc = run("plot", "--chains", path, "--out-prefix", tmp_path / "fig")
        assert rc == 2
        assert "draws need a finite delta0" in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()

    @pytest.mark.parametrize("column, value", [("nu", "nan"), ("sigma0", "-0.5")])
    def test_recount_rejects_a_damaged_draw_a_rule_would_settle(
        self, compare_artifacts, tmp_path, capsys, column, value
    ):
        # delta0 = 50 lies far right of the rope, where the median rule
        # would count the draw without looking at nu or sigma0.
        path = compare_artifacts / "pair.chains.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = lines[1].rstrip("\n").split(",")
        row = lines[2 + 700].rstrip("\n").split(",")
        row[header.index("delta0")] = "50"
        row[header.index(column)] = value
        lines[2 + 700] = ",".join(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        self._match_digest(path)
        capsys.readouterr()
        rc = run("plot", "--chains", path, "--rope", "0.03", "--out-prefix", tmp_path / "fig")
        assert rc == 2
        assert "draws need a finite delta0" in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()

    def test_plot_draws_the_recorded_triple(self, tmp_path, monkeypatch):
        # The plot places masses only for the 200 draws it shows, and
        # counts all 3000 under the sidecar's rope, or under --rope. Both
        # annotate the reported triple and give the same SVG.
        assert run("compare", "--scores", DELTA3, "--a", "alpha", "--b", "beta",
                   "--metric", "token", "--rope", "0.03", "--seed", "2", *FAST,
                   "--out-prefix", tmp_path / "pair") == 0
        meta = read_kv(tmp_path / "pair.chains.meta.txt")
        (row,) = read_report_csv(tmp_path / "pair.report.csv")
        recorded = [row.triple.n_left, row.triple.n_rope, row.triple.n_right]
        triples = []
        render = cli.render_simplex_svg

        def spy(points, **kwargs):
            triples.append(kwargs["triple"])
            return render(points, **kwargs)

        monkeypatch.setattr(cli, "render_simplex_svg", spy)
        svgs = []
        for name, flags in (("recorded", ()), ("counted", ("--rope", meta["rope_halfwidth"]))):
            assert run("plot", "--chains", tmp_path / "pair.chains.csv", *flags,
                       "--max-points", "200", "--out-prefix", tmp_path / name) == 0
            text = (tmp_path / f"{name}.svg").read_text(encoding="utf-8")
            svgs.append([line for line in text.splitlines() if "<!-- manifest:" not in line])
        assert [[t.n_left, t.n_rope, t.n_right] for t in triples] == [recorded, recorded]
        assert recorded[1] > 0 and recorded[2] > 0
        assert svgs[0] == svgs[1]
        assert sum(line.startswith("<circle") for line in svgs[0]) == 200
        assert "P(rope)=0.000" not in "".join(svgs[0])

    def test_plot_rejects_a_repeated_sidecar_key(self, compare_artifacts, tmp_path, capsys):
        meta = compare_artifacts / "pair.chains.meta.txt"
        text = meta.read_text(encoding="utf-8")
        line = "rope_halfwidth=0.01\n"
        assert text.count(line) == 1
        meta.write_text(text.replace(line, line + line), encoding="utf-8")
        capsys.readouterr()
        rc = run("plot", "--chains", compare_artifacts / "pair.chains.csv",
                 "--out-prefix", tmp_path / "fig")
        assert rc == 2
        err = capsys.readouterr().err
        assert str(meta) in err
        assert "repeated key 'rope_halfwidth'" in err
        assert not (tmp_path / "fig.svg").exists()

    def test_plot_with_a_rope_counts_the_draws_itself(self, compare_artifacts, tmp_path):
        # A sidecar written before plot counted its own triple holds
        # n_left, n_rope and n_right; plot ignores them, with or without
        # --rope. Counts that are not the draws' show that they are unread.
        meta = compare_artifacts / "pair.chains.meta.txt"
        current = meta.read_text(encoding="utf-8")
        svgs = []
        for name, text in (("new", current), ("old", current + "n_left=1\nn_rope=2\nn_right=3\n")):
            meta.write_text(text, encoding="utf-8")
            for flags in ((), ("--rope", "0.01")):
                prefix = tmp_path / f"{name}{len(flags)}"
                assert run("plot", "--chains", compare_artifacts / "pair.chains.csv", *flags,
                           "--max-points", "100", "--out-prefix", prefix) == 0
                svg = prefix.with_suffix(".svg").read_text(encoding="utf-8")
                svgs.append([line for line in svg.splitlines() if "<!-- manifest:" not in line])
        assert all(svg == svgs[0] for svg in svgs[1:])
        assert "P(right)=1.000" in "".join(svgs[0])

    def test_plot_rejects_a_damaged_unplotted_draw_behind_a_matching_digest(
        self, compare_artifacts, tmp_path, capsys
    ):
        # Only 200 of the 3000 draws are classified, but every one is checked.
        shown = set(plotted_indices(3000, 200).tolist())
        draw = next(i for i in range(700, 3000) if i not in shown)
        path = compare_artifacts / "pair.chains.csv"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        header = lines[1].rstrip("\n").split(",")
        row = lines[2 + draw].rstrip("\n").split(",")
        row[header.index("nu")] = "-1"
        lines[2 + draw] = ",".join(row) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        self._match_digest(path)
        capsys.readouterr()
        rc = run("plot", "--chains", path, "--max-points", "200",
                 "--out-prefix", tmp_path / "fig")
        assert rc == 2
        assert "draws need a finite delta0" in capsys.readouterr().err
        assert not (tmp_path / "fig.svg").exists()

    def test_line_break_in_the_title_is_usage_error(self, compare_artifacts, tmp_path, capsys):
        capsys.readouterr()
        rc = run("plot", "--chains", compare_artifacts / "pair.chains.csv", "--title", "a\nb",
                 "--out-prefix", tmp_path / "fig")
        assert rc == 2
        assert "line break in param[title]='a\\nb'" in capsys.readouterr().err
        assert not (tmp_path / "fig.manifest.txt").exists()
        assert not (tmp_path / "fig.svg").exists()

    def test_plot_missing_chains_is_io_error(self, tmp_path):
        rc = run("plot", "--chains", tmp_path / "absent.chains.csv",
                 "--out-prefix", tmp_path / "fig")
        assert rc == 4


class TestManifest:
    @staticmethod
    def subparsers() -> dict[str, argparse.ArgumentParser]:
        parser = cli.build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_every_flag_is_recorded(self, tmp_path):
        corpus = FIXTURES / "toy_corpus.tsv"
        commands = {
            "split": ("--n", 200, "--k", 4, "--m", 1, "--seed", 5),
            "score": ("--plan", tmp_path / "split.plan.json", "--corpus", corpus,
                      "--dataset", "toy", "--system", "copy", "--command", "cp {test} {pred}"),
            "compare": ("--scores", DELTA3, "--a", "alpha", "--b", "beta", "--metric", "token",
                        "--rope", "0.01", "--seed", "2", *FAST),
            "rank": ("--scores", DELTA3, "--metric", "token", "--rope", "0.01", "--seed", "2",
                     *FAST),
            "plot": ("--chains", tmp_path / "compare.chains.csv", "--max-points", "100"),
        }
        subparsers = self.subparsers()
        assert set(commands) == set(subparsers)
        for name, flags in commands.items():
            assert run(name, *flags, "--out-prefix", tmp_path / name) == 0, name
            manifest = read_kv(tmp_path / f"{name}.manifest.txt")
            assert manifest["command"] == name
            dests = {a.dest for a in subparsers[name]._actions if a.dest != "help"}
            params = {key[len("param["):-1] for key in manifest if key.startswith("param[")}
            assert params == dests - {"seed"}, name
            assert ("seed" in manifest) == ("seed" in dests), name
        assert read_kv(tmp_path / "split.manifest.txt")["seed"] == "5"
        score = read_kv(tmp_path / "score.manifest.txt")
        assert score["param[command]"] == "cp {test} {pred}"
        assert score["param[timeout]"] == score["param[workdir]"] == ""
        compare = read_kv(tmp_path / "compare.manifest.txt")
        assert compare["seed"] == "2"
        assert compare["param[system_a]"] == "alpha"
        assert "param[no_standardize]" not in compare
        assert compare["param[rope]"] == "0.01"
        assert compare["param[rope_mode]"] == ""
        assert compare["param[scores]"] == str(DELTA3)
        assert compare[f"input[{DELTA3}]"].startswith("sha256:")

    @pytest.mark.parametrize("key, value", [("a\nb", "1"), ("a", "1\r2")])
    def test_key_value_files_reject_a_line_break(self, tmp_path, key, value):
        path = tmp_path / "kv.txt"
        with pytest.raises(ValueError, match="line break"):
            write_kv(path, {"z": "ok", key: value})
        assert not path.exists()

    def test_nu_prior_typed_and_defaulted_read_the_same(self, one_dataset_csv, tmp_path):
        recorded = []
        for nu_prior in ((), ("--nu-prior", "2.0", "0.1"), ("--nu-prior", "2", "0.1")):
            prefix = tmp_path / f"nu{len(recorded)}"
            assert run("compare", "--scores", one_dataset_csv, "--a", "alpha", "--b", "beta",
                       "--metric", "token", "--rope", "0.01", *nu_prior,
                       "--out-prefix", prefix) == 0
            recorded.append(read_kv(f"{prefix}.manifest.txt")["param[nu_prior]"])
        assert recorded == ["2.0,0.1"] * 3


@pytest.mark.parametrize("command", ["split", "score", "compare", "rank", "plot"])
def test_missing_output_directory_exits_before_any_work(
    one_dataset_csv, tmp_path, capsys, command
):
    assert run("split", "--n", 200, "--k", 4, "--m", 1, "--out-prefix", tmp_path / "c") == 0
    assert run("compare", "--scores", one_dataset_csv, "--a", "alpha", "--b", "beta",
               "--metric", "token", "--rope", "0.01", "--out-prefix", tmp_path / "one") == 0
    flags = {
        "split": ("--n", 200, "--k", 4, "--m", 1),
        "score": ("--plan", tmp_path / "c.plan.json", "--corpus", FIXTURES / "toy_corpus.tsv",
                  "--dataset", "toy", "--system", "copy", "--command", "cp {test} {pred}"),
        "compare": ("--scores", DELTA3, "--a", "alpha", "--b", "beta", "--metric", "token",
                    "--rope", "0.01"),
        "rank": ("--scores", DELTA3, "--metric", "token", "--rope", "0.01"),
        "plot": ("--report", tmp_path / "one.report.csv"),
    }[command]
    missing = tmp_path / "run0"
    capsys.readouterr()
    assert run(command, *flags, "--out-prefix", missing / "x") == 4
    captured = capsys.readouterr()
    # Nothing else on stderr: no stage line, and from score no round line.
    assert captured.err == (
        f"error: output directory '{missing}' does not exist; bayescv does not create it\n"
    )
    assert captured.out == ""
    assert not missing.exists()


class TestUnreadableInput:
    # Each reader: the bad file's bytes (a plan that is not JSON, the rest
    # not UTF-8) and the command line that feeds it to the reader.
    SCORE = ["--dataset", "d", "--system", "s", "--command", "cp {test} {pred}"]
    CASES = {
        "plan": (b"not json\n", ["score", "--plan", "{bad}", "--corpus", "{corpus}", *SCORE]),
        "corpus": (b"\xff", ["score", "--plan", "{plan}", "--corpus", "{bad}", *SCORE]),
        "scores": (b"\xff", ["compare", "--scores", "{bad}", "--a", "a", "--b", "b",
                             "--metric", "token", "--rope", "0.01"]),
        "report": (b"\xff", ["plot", "--report", "{bad}"]),
        "sidecar": (b"chains=2\nx=\xff\n", ["plot", "--chains", "{chains}"]),
    }

    @pytest.mark.parametrize("reader", list(CASES))
    def test_error_names_the_file(self, tmp_path, capsys, reader):
        content, argv = self.CASES[reader]
        # plot reads the sidecar next to the chains file.
        bad = tmp_path / ("x.chains.meta.txt" if reader == "sidecar" else f"bad.{reader}")
        bad.write_bytes(content)
        assert run("split", "--n", 200, "--k", 4, "--m", 1, "--out-prefix", tmp_path / "c") == 0
        (tmp_path / "x.chains.csv").write_text("delta0\n0.1\n", encoding="utf-8")
        paths = {"{bad}": bad, "{corpus}": FIXTURES / "toy_corpus.tsv",
                 "{plan}": tmp_path / "c.plan.json", "{chains}": tmp_path / "x.chains.csv"}
        capsys.readouterr()
        assert run(*[paths.get(a, a) for a in argv], "--out-prefix", tmp_path / "out") == 2
        cause = ("not a valid split plan: Expecting value" if reader == "plan"
                 else "'utf-8' codec can't decode byte 0xff")
        assert f"\nerror: {bad}: {cause}" in "\n" + capsys.readouterr().err
        assert not list(tmp_path.glob("out.*"))
