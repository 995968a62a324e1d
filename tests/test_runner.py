"""External-command scoring loop, exercised with tiny shell commands."""

import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from bayescv.metrics import TaggedCorpus, read_corpus
from bayescv.runner import CommandFailed, run_external
from bayescv.splits import SplitPlan, fold_roles, make_splits
from test_metrics import (
    reference_oov_accuracy,
    reference_read,
    reference_token_accuracy,
    reference_write,
    vocabulary_of,
)

FIXTURES = Path(__file__).parent / "fixtures"
COPY_COMMAND = "cp {test} {pred}"
# The copy, with the training portions passed to a shell that ignores them,
# so every round writes all four files.
COPY_NAMING_ALL = """sh -c 'cp "$0" "$1"' {test} {pred} {train} {dev}"""


@pytest.fixture(scope="module")
def toy_corpus():
    return read_corpus(FIXTURES / "toy_corpus.tsv")


@pytest.fixture(scope="module")
def toy_plan():
    return make_splits(200, 5, 2, seed=42)


class TestIdentityBaseline:
    def test_copying_the_test_file_scores_one(self, toy_plan, toy_corpus):
        matrix = run_external(
            toy_plan,
            toy_corpus,
            COPY_COMMAND,
            dataset_id="toy",
            system_id="copy",
            metrics=("token", "sentence", "oov"),
        )
        assert len(matrix) == 2 * 5 * 3
        for key, value in matrix.entries.items():
            assert value == 1.0, key

    def test_worker_count_does_not_change_scores(self, toy_plan, toy_corpus):
        serial = run_external(
            toy_plan, toy_corpus, COPY_COMMAND,
            dataset_id="toy", system_id="copy", metrics=("token",),
        )
        threaded = run_external(
            toy_plan, toy_corpus, COPY_COMMAND,
            dataset_id="toy", system_id="copy", metrics=("token",), workers=4,
        )
        assert serial.entries == threaded.entries


class TestStubTagger:
    def test_majority_tagger_matches_hand_computation(self, toy_corpus):
        plan = make_splits(200, 5, 1, seed=7)
        command = f"{sys.executable} {FIXTURES / 'majority_tagger.py'} {{train}} {{test}} {{pred}}"
        matrix = run_external(
            plan, toy_corpus, command,
            dataset_id="toy", system_id="maj", metrics=("token",),
        )
        from bayescv.splits import fold_roles

        for fold in range(5):
            train_idx, _, eval_idx = fold_roles(plan, 0, fold)
            train = toy_corpus.subset(train_idx)
            evl = toy_corpus.subset(eval_idx)
            tag_counts: dict[str, int] = {}
            for sent in train.sentences:
                for tag in sent.tags:
                    tag_counts[tag] = tag_counts.get(tag, 0) + 1
            top = max(tag_counts.items(), key=lambda kv: (kv[1], [-ord(c) for c in kv[0]]))
            best = min(sorted(tag_counts), key=lambda t: -tag_counts[t])
            assert top[0] == best
            expected = sum(
                1 for sent in evl.sentences for tag in sent.tags if tag == best
            ) / evl.n_tokens
            got = matrix.entries[("toy", "maj", "token", 0, fold)]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_lexicon_beats_majority(self, toy_plan, toy_corpus):
        lex_cmd = f"{sys.executable} {FIXTURES / 'lexicon_tagger.py'} {{train}} {{test}} {{pred}}"
        maj_cmd = f"{sys.executable} {FIXTURES / 'majority_tagger.py'} {{train}} {{test}} {{pred}}"
        lex = run_external(
            toy_plan, toy_corpus, lex_cmd,
            dataset_id="toy", system_id="lex", metrics=("token",), workers=4,
        )
        maj = run_external(
            toy_plan, toy_corpus, maj_cmd,
            dataset_id="toy", system_id="maj", metrics=("token",), workers=4,
        )
        lex_mean = sum(lex.entries.values()) / len(lex)
        maj_mean = sum(maj.entries.values()) / len(maj)
        assert lex_mean > maj_mean + 0.2


class TestOovHandling:
    def test_no_oov_tokens_records_none(self):
        # Every sentence is identical, so the train folds always cover
        # the evaluation vocabulary and the OOV metric is undefined.
        sents = [[("same", "X"), ("words", "Y")] for _ in range(12)]
        corpus = TaggedCorpus.from_pairs(sents)
        plan = make_splits(12, 3, 1, seed=0)
        matrix = run_external(
            plan, corpus, COPY_COMMAND,
            dataset_id="flat", system_id="copy", metrics=("token", "oov"),
        )
        for fold in range(3):
            assert matrix.entries[("flat", "copy", "oov", 0, fold)] is None
            assert matrix.entries[("flat", "copy", "token", 0, fold)] == 1.0

    def test_oov_vocab_can_include_dev(self, toy_corpus):
        plan = make_splits(200, 5, 1, seed=9)
        train_only = run_external(
            plan, toy_corpus, COPY_COMMAND,
            dataset_id="toy", system_id="c", metrics=("oov",), oov_vocab="train",
        )
        with_dev = run_external(
            plan, toy_corpus, COPY_COMMAND,
            dataset_id="toy", system_id="c", metrics=("oov",), oov_vocab="train+dev",
        )
        assert set(train_only.entries) == set(with_dev.entries)


# Twelve sentences over four folds. In repetition 0 (fold = i % 4) "pair"
# and "sees" occur only in folds 0 and 1, so round (0, 0) has them in its
# evaluation and dev folds and nowhere else; "solo" occurs in one sentence
# only; and fold 3 holds only tokens the training folds of round (0, 3)
# have. Repetition 1 deals the sentences in blocks of three, which puts
# both "pair" sentences in fold 0 alone.
EXACT_SENTENCES = [
    [("the", "DET"), ("pair", "NOUN"), ("runs", "VERB")],
    [("a", "DET"), ("pair", "ADJ"), ("dog", "NOUN"), ("runs", "NOUN")],
    [("the", "DET"), ("dog", "NOUN"), ("runs", "VERB")],
    [("a", "DET"), ("dog", "NOUN")],
    [("the", "DET"), ("cat", "NOUN"), ("runs", "NOUN")],
    [("a", "DET"), ("cat", "NOUN"), ("sees", "VERB"), ("the", "DET"), ("dog", "NOUN")],
    [("the", "DET"), ("solo", "ADJ"), ("cat", "NOUN")],
    [("the", "DET"), ("cat", "NOUN"), ("runs", "VERB")],
    [("a", "DET"), ("dog", "NOUN"), ("sees", "VERB"), ("a", "DET"), ("cat", "NOUN")],
    [("the", "DET"), ("odd", "ADJ"), ("dog", "NOUN"), ("sees", "NOUN")],
    [("a", "DET"), ("odd", "NOUN"), ("cat", "NOUN")],
    [("a", "DET"), ("dog", "NOUN"), ("runs", "VERB"), ("the", "DET"), ("cat", "NOUN")],
]
EXACT_PLAN = SplitPlan(
    n_items=12, k=4, m=2, seed=0,
    assignments=np.array([[i % 4 for i in range(12)], [i // 3 for i in range(12)]]),
)


class TestExactVocabulary:
    """Every round's scores equal a reference that builds the vocabulary
    of the round's training portion (and dev portion under train+dev)."""

    LEXICON = f"{sys.executable} {FIXTURES / 'lexicon_tagger.py'} {{train}} {{test}} {{pred}}"

    @staticmethod
    def reference(corpus, workdir, oov_vocab):
        scores = {}
        for rep in range(EXACT_PLAN.m):
            for fold in range(EXACT_PLAN.k):
                train_idx, val_idx, eval_idx = fold_roles(EXACT_PLAN, rep, fold)
                portions = [corpus.subset(train_idx)]
                if oov_vocab == "train+dev":
                    portions.append(corpus.subset(val_idx))
                gold = corpus.subset(eval_idx)
                predicted = reference_read(workdir / f"rep{rep:03d}_fold{fold:03d}" / "pred.tsv")
                scores[(rep, fold)] = {
                    "token": reference_token_accuracy(gold, predicted),
                    "sentence": sum(g.tags == p.tags for g, p in zip(
                        gold.sentences, predicted.sentences)) / gold.n_sentences,
                    "oov": reference_oov_accuracy(vocabulary_of(*portions), gold, predicted),
                }
        return scores

    def test_plan_has_the_cases(self):
        corpus = TaggedCorpus.from_pairs(EXACT_SENTENCES)

        def oov_tokens(rep, fold, with_dev):
            train_idx, val_idx, eval_idx = fold_roles(EXACT_PLAN, rep, fold)
            known = vocabulary_of(corpus.subset(train_idx), *(
                [corpus.subset(val_idx)] if with_dev else []))
            return {t for s in corpus.subset(eval_idx).sentences for t in s.tokens} - known

        # OOV under train, known under train+dev.
        assert oov_tokens(0, 0, False) == {"pair", "sees"}
        assert oov_tokens(0, 0, True) == set()
        # Only in the evaluation fold.
        assert oov_tokens(0, 2, True) == {"solo"}
        assert oov_tokens(1, 0, True) == {"pair"}
        # No OOV token under either vocabulary.
        assert oov_tokens(0, 3, False) == set()

    @pytest.mark.parametrize("oov_vocab", ["train", "train+dev"])
    # 8 workers exceed the plan's k = 4, so rounds of both repetitions run
    # at once.
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_scores_equal_the_reference(self, tmp_path, workers, oov_vocab):
        corpus = TaggedCorpus.from_pairs(EXACT_SENTENCES)
        matrix = run_external(
            EXACT_PLAN, corpus, self.LEXICON, dataset_id="d", system_id="lex",
            oov_vocab=oov_vocab, workers=workers, workdir=tmp_path,
        )
        want = self.reference(corpus, tmp_path, oov_vocab)
        got = {}
        for (_, _, metric, rep, fold), value in matrix.entries.items():
            got.setdefault((rep, fold), {})[metric] = value
        assert got == want
        oov = {scores["oov"] for scores in want.values()}
        assert None in oov and len(oov) > 2


class TestFailureModes:
    def test_failing_command_raises_with_stderr(self, toy_corpus):
        plan = make_splits(200, 4, 1, seed=1)
        command = f"{sys.executable} -c \"import sys; sys.stderr.write('boom'); sys.exit(3)\" {{train}} {{test}} {{pred}}"
        with pytest.raises(CommandFailed) as info:
            run_external(
                plan, toy_corpus, command,
                dataset_id="toy", system_id="bad", metrics=("token",),
            )
        assert info.value.returncode == 3
        assert "boom" in info.value.stderr

    def test_missing_prediction_file(self, toy_corpus):
        plan = make_splits(200, 4, 1, seed=1)
        with pytest.raises(CommandFailed, match=r"^round \(0, 0\): command wrote no file at ") as info:
            run_external(
                plan, toy_corpus, "true {test} {pred}",
                dataset_id="toy", system_id="noop", metrics=("token",),
            )
        assert (info.value.returncode, info.value.stderr) == (None, "")

    def test_malformed_prediction_file(self, toy_corpus):
        plan = make_splits(200, 4, 1, seed=1)
        command = "sh -c 'echo garbage-without-tab > {pred}' run {test}"
        with pytest.raises(CommandFailed, match=r"^round \(0, 0\): .*pred\.tsv:1: expected") as info:
            run_external(
                plan, toy_corpus, command,
                dataset_id="toy", system_id="junk", metrics=("token",),
            )
        assert (info.value.returncode, info.value.stderr) == (None, "")

    def test_misaligned_tokens_rejected(self, toy_corpus):
        plan = make_splits(200, 4, 1, seed=1)
        command = "sh -c 'printf \"wrong\\tX\\n\\n\" > {pred}' run {test}"
        with pytest.raises(CommandFailed, match=r"^round \(0, 0\): prediction misaligned: ") as info:
            run_external(
                plan, toy_corpus, command,
                dataset_id="toy", system_id="mis", metrics=("token",),
            )
        assert (info.value.returncode, info.value.stderr) == (None, "")

    @pytest.mark.parametrize("template", ["true {train} {test}", "cp {{test}} {pred}"])
    def test_template_must_mention_placeholders(self, toy_plan, toy_corpus, template):
        with pytest.raises(ValueError, match="command template is missing"):
            run_external(
                toy_plan, toy_corpus, template,
                dataset_id="toy", system_id="x", metrics=("token",),
            )

    def test_unknown_metric_rejected(self, toy_plan, toy_corpus):
        with pytest.raises(ValueError):
            run_external(
                toy_plan, toy_corpus, COPY_COMMAND,
                dataset_id="toy", system_id="x", metrics=("bleu",),
            )


class TestWorkdir:
    def test_round_files_kept(self, tmp_path, toy_corpus):
        # The copy names neither {train} nor {dev}, so no round writes them.
        plan = make_splits(200, 4, 1, seed=2)
        run_external(
            plan, toy_corpus, COPY_COMMAND,
            dataset_id="toy", system_id="copy", metrics=("token",),
            workdir=tmp_path,
        )
        round_dirs = sorted(p.name for p in tmp_path.iterdir())
        assert len(round_dirs) == 4
        for folder in round_dirs:
            assert {p.name for p in (tmp_path / folder).iterdir()} == {"test.tsv", "pred.tsv"}

    def test_training_files_written_when_the_template_names_them(self, tmp_path, toy_corpus):
        plan = make_splits(200, 4, 1, seed=2)
        for command, written in (
            ("""sh -c 'cp "$0" "$1"' {test} {pred} {train}""", {"train.tsv"}),
            ("""sh -c 'cp "$0" "$1"' {test} {pred} {dev!s}""", {"dev.tsv"}),
            (COPY_NAMING_ALL, {"train.tsv", "dev.tsv"}),
        ):
            workdir = tmp_path / str(len(list(tmp_path.iterdir())))
            run_external(
                plan, toy_corpus, command,
                dataset_id="toy", system_id="copy", metrics=("token",), workdir=workdir,
            )
            for folder in workdir.iterdir():
                names = {p.name for p in folder.iterdir()}
                assert names == written | {"test.tsv", "pred.tsv"}, command

    def test_round_files_match_reference_writer(self, tmp_path, toy_corpus):
        plan = make_splits(200, 4, 2, seed=5)
        run_external(
            plan, toy_corpus, COPY_NAMING_ALL,
            dataset_id="toy", system_id="copy", metrics=("token",),
            workdir=tmp_path / "wd",
        )
        for rep in range(plan.m):
            for fold in range(plan.k):
                folder = tmp_path / "wd" / f"rep{rep:03d}_fold{fold:03d}"
                roles = zip(("train", "dev", "test"), fold_roles(plan, rep, fold))
                for name, indices in roles:
                    reference_write(toy_corpus.subset(indices), tmp_path / "want.tsv")
                    got = (folder / f"{name}.tsv").read_bytes()
                    assert got == (tmp_path / "want.tsv").read_bytes(), (rep, fold, name)

    @pytest.mark.parametrize(
        "command",
        [COPY_COMMAND, """sh -c "cat '{test}' > '{pred}'\""""],
        ids=["plain", "sh-quoted"],
    )
    def test_workdir_with_a_space(self, tmp_path, toy_corpus, command):
        plan = make_splits(200, 4, 1, seed=3)
        workdir = tmp_path / "with space" / "wd"
        matrix = run_external(
            plan, toy_corpus, command,
            dataset_id="toy", system_id="copy", metrics=("token", "sentence"),
            workdir=workdir,
        )
        assert len(matrix) == 4 * 2
        assert all(value == 1.0 for value in matrix.entries.values())
        for folder in workdir.iterdir():
            assert (folder / "pred.tsv").read_bytes() == (folder / "test.tsv").read_bytes()


def fresh_corpus(n_sentences: int) -> TaggedCorpus:
    """Sentences built for one run, shared with no other run or test."""
    return TaggedCorpus.from_pairs(
        [(f"w{i % 37}", "NOUN"), (f"v{i % 11}", "VERB"), (f"u{i}", "ADJ" if i % 3 else "ADV")]
        for i in range(n_sentences)
    )


class TestThreadStress:
    def test_many_workers_match_one(self, tmp_path):
        # More workers than cores and a tiny switch interval, so threads
        # interleave inside round preparation as often as they can.
        plan = make_splits(60, 5, 6, seed=17)

        def run(workers: int, workdir: Path):
            return run_external(
                plan, fresh_corpus(60), COPY_COMMAND,
                dataset_id="toy", system_id="copy", workers=workers, workdir=workdir,
                timeout=60,
            )

        results = {}

        def stressed() -> None:
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                results["many"] = run(8, tmp_path / "many")
            except Exception as exc:  # reported by the assertion below
                results["error"] = exc
            finally:
                sys.setswitchinterval(old)

        thread = threading.Thread(target=stressed, daemon=True)
        start = time.monotonic()
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), f"still running after {time.monotonic() - start:.0f} s"
        assert "many" in results, results.get("error")
        one = run(1, tmp_path / "one")
        assert results["many"].entries == one.entries
        for folder in sorted((tmp_path / "one").iterdir()):
            # The copy names neither training portion, so no round wrote one.
            assert not (folder / "train.tsv").exists() and not (folder / "dev.tsv").exists()
            for name in ("test.tsv", "pred.tsv"):
                twin = tmp_path / "many" / folder.name / name
                assert twin.read_bytes() == (folder / name).read_bytes(), (folder.name, name)
        assert len(list((tmp_path / "many").iterdir())) == plan.m * plan.k
