"""Tagging metrics checked against hand counts and simple invariants."""

import fractions
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bayescv.metrics import (
    Sentence,
    TaggedCorpus,
    oov_accuracy,
    read_corpus,
    sentence_accuracy,
    token_accuracy,
    write_corpus,
)


def corpus(*sents):
    return TaggedCorpus.from_pairs(sents)


def vocabulary_of(*corpora):
    """The reference vocabulary: the union of the corpora's token sets."""
    return frozenset().union(*[s.tokens for c in corpora for s in c.sentences])


def reference_token_accuracy(gold, predicted):
    """The per-token count ``token_accuracy`` must match."""
    correct = 0
    for g, p in zip(gold.sentences, predicted.sentences):
        correct += sum(gt == pt for gt, pt in zip(g.tags, p.tags))
    return correct / gold.n_tokens


def reference_oov_accuracy(vocabulary, gold, predicted):
    """The per-token count ``oov_accuracy`` must match; None where no
    gold token is out of vocabulary."""
    correct = 0
    total = 0
    for g, p in zip(gold.sentences, predicted.sentences):
        for tok, gt, pt in zip(g.tokens, g.tags, p.tags):
            if tok not in vocabulary:
                total += 1
                correct += gt == pt
    return correct / total if total else None


GOLD = corpus(
    [("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")],
    [("dogs", "NOUN"), ("bark", "VERB")],
)
# First sentence: two of three tags right. Second sentence: both right.
PRED = corpus(
    [("the", "DET"), ("cat", "VERB"), ("sat", "VERB")],
    [("dogs", "NOUN"), ("bark", "VERB")],
)


class TestHandCounts:
    def test_token_accuracy(self):
        assert token_accuracy(GOLD, PRED) == pytest.approx(4.0 / 5.0)

    def test_sentence_accuracy(self):
        assert sentence_accuracy(GOLD, PRED) == pytest.approx(1.0 / 2.0)

    def test_two_of_three_tokens(self):
        g = corpus([("a", "X"), ("b", "Y"), ("c", "Z")])
        p = corpus([("a", "X"), ("b", "Y"), ("c", "Q")])
        assert token_accuracy(g, p) == pytest.approx(2.0 / 3.0)
        assert sentence_accuracy(g, p) == 0.0

    def test_perfect_prediction(self):
        assert token_accuracy(GOLD, GOLD) == 1.0
        assert sentence_accuracy(GOLD, GOLD) == 1.0

    def test_oov_hand_count(self):
        vocab = frozenset({"the", "cat", "sat"})
        # OOV positions: "dogs" and "bark"; prediction gets both right,
        # so restricting to OOV tokens gives 2/2 even though "cat" is wrong.
        assert oov_accuracy(vocab, GOLD, PRED) == 1.0

    def test_oov_partial(self):
        vocab = frozenset({"the", "sat", "dogs", "bark"})
        # Only "cat" is OOV and it is mistagged.
        assert oov_accuracy(vocab, GOLD, PRED) == 0.0

    def test_no_oov_tokens(self):
        vocab = vocabulary_of(GOLD)
        assert oov_accuracy(vocab, GOLD, PRED) is None


class TestValidation:
    def test_shape_mismatch(self):
        shorter = corpus([("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")])
        with pytest.raises(ValueError, match="^gold has 2 sentences, prediction has 1$"):
            token_accuracy(GOLD, shorter)

    def test_length_mismatch_within_sentence(self):
        other = corpus(
            [("the", "DET"), ("cat", "NOUN")],
            [("dogs", "NOUN"), ("bark", "VERB")],
        )
        with pytest.raises(ValueError, match="^sentence 0: gold has 3 tokens, prediction has 2$"):
            token_accuracy(GOLD, other)

    def test_token_mismatch(self):
        other = corpus(
            [("the", "DET"), ("dog", "NOUN"), ("sat", "VERB")],
            [("dogs", "NOUN"), ("bark", "VERB")],
        )
        with pytest.raises(ValueError, match="^sentence 0: tokens differ between gold and prediction$"):
            token_accuracy(GOLD, other)

    def test_sentence_fields_validated(self):
        with pytest.raises(ValueError):
            Sentence((), ())
        with pytest.raises(ValueError):
            Sentence(("a",), ("X", "Y"))
        with pytest.raises(ValueError):
            Sentence(("a\tb",), ("X",))
        with pytest.raises(ValueError):
            Sentence(("a",), ("X\n",))


class TestInvariants:
    def test_token_at_least_sentence_accuracy_equal_lengths(self):
        # With a common sentence length L the inequality is a theorem:
        # each perfect sentence contributes L correct tokens, so the token
        # ratio is bounded below by the perfect-sentence fraction.
        rng = np.random.default_rng(314)
        tags = ["A", "B", "C"]
        for _ in range(1000):
            n_sents = int(rng.integers(1, 6))
            n_tok = int(rng.integers(1, 7))
            gold_s, pred_s = [], []
            for _ in range(n_sents):
                toks = [f"w{rng.integers(50)}" for _ in range(n_tok)]
                gtags = [tags[rng.integers(3)] for _ in range(n_tok)]
                ptags = [
                    g if rng.random() < 0.7 else tags[rng.integers(3)] for g in gtags
                ]
                gold_s.append(list(zip(toks, gtags)))
                pred_s.append(list(zip(toks, ptags)))
            g, p = corpus(*gold_s), corpus(*pred_s)
            assert token_accuracy(g, p) >= sentence_accuracy(g, p)

    def test_token_below_sentence_accuracy_is_possible(self):
        # The inequality is NOT universal: short perfect sentences plus
        # one long mostly-wrong sentence push the token ratio below the
        # perfect-sentence fraction. Kept as a boundary marker.
        g = corpus(
            [("a", "X")],
            [("b", "X")],
            [(f"c{i}", "X") for i in range(6)],
        )
        p = corpus(
            [("a", "X")],
            [("b", "X")],
            [(f"c{i}", "X" if i < 1 else "Y") for i in range(6)],
        )
        assert token_accuracy(g, p) == pytest.approx(3.0 / 8.0)
        assert sentence_accuracy(g, p) == pytest.approx(2.0 / 3.0)
        assert token_accuracy(g, p) < sentence_accuracy(g, p)

    def test_accuracies_are_exact_ratios(self):
        g = corpus(*[[(f"w{i}", "A")] * 3 for i in range(7)])
        p = corpus(*[[(f"w{i}", "A" if i % 2 else "B")] * 3 for i in range(7)])
        acc = token_accuracy(g, p)
        assert fractions.Fraction(acc).limit_denominator(21) == fractions.Fraction(9, 21)


class TestAccuraciesMatchReference:
    """Random gold/prediction pairs with mismatched tags, scored by the
    per-token loops above."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_values(self, seed):
        rng = np.random.default_rng([seed, 77])
        tags = ["A", "B", "C"]
        for _ in range(200):
            gold_s, pred_s = [], []
            for _ in range(int(rng.integers(1, 8))):
                n_tok = int(rng.integers(1, 9))
                toks = [f"w{rng.integers(30)}" for _ in range(n_tok)]
                gtags = [tags[rng.integers(3)] for _ in range(n_tok)]
                # About half the sentences are tagged right end to end.
                wrong = rng.random() < 0.5
                ptags = [
                    tags[rng.integers(3)] if wrong and rng.random() < 0.4 else g for g in gtags
                ]
                gold_s.append(list(zip(toks, gtags)))
                pred_s.append(list(zip(toks, ptags)))
            g, p = corpus(*gold_s), corpus(*pred_s)
            vocab = frozenset(f"w{i}" for i in range(30) if rng.random() < 0.7)
            assert token_accuracy(g, p) == reference_token_accuracy(g, p)
            assert oov_accuracy(vocab, g, p) == reference_oov_accuracy(vocab, g, p)

    def test_sentence_order_does_not_matter_for_token_accuracy(self):
        g2 = corpus(
            [("dogs", "NOUN"), ("bark", "VERB")],
            [("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")],
        )
        p2 = corpus(
            [("dogs", "NOUN"), ("bark", "VERB")],
            [("the", "DET"), ("cat", "VERB"), ("sat", "VERB")],
        )
        assert token_accuracy(g2, p2) == token_accuracy(GOLD, PRED)

    def test_empty_vocabulary_makes_every_token_oov(self):
        vocab = frozenset()
        assert oov_accuracy(vocab, GOLD, PRED) == token_accuracy(GOLD, PRED)


class TestCorpusContainer:
    def test_counts(self):
        assert GOLD.n_sentences == 2
        assert GOLD.n_tokens == 5

    def test_subset(self):
        sub = GOLD.subset([1])
        assert sub.n_sentences == 1
        assert sub.sentences[0].tokens == ("dogs", "bark")

    def test_subset_takes_an_index_array_or_any_iterable(self):
        want = GOLD.subset([1, 0])
        assert GOLD.subset(np.array([1, 0])) == want
        assert GOLD.subset(iter((1, 0))) == want
        assert GOLD.subset(i for i in (1, 0)) == want

    def test_subset_preserves_order_given(self):
        sub = GOLD.subset([1, 0])
        assert sub.sentences[0].tokens == ("dogs", "bark")
        assert sub.sentences[1].tokens == ("the", "cat", "sat")

    def test_vocabulary_from_multiple_corpora(self):
        extra = corpus([("new", "ADJ")])
        vocab = vocabulary_of(GOLD, extra)
        assert len(vocab) == 6
        assert "new" in vocab
        assert "cat" in vocab
        assert "missing" not in vocab


class TestCorpusIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_corpus(GOLD, path)
        again = read_corpus(path)
        assert again == GOLD

    def test_byte_order_mark_is_not_part_of_the_first_token(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_corpus(GOLD, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        again = read_corpus(path)
        assert again.sentences[0].tokens[0] == "the"
        assert again == GOLD

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("the\tDET\ncat NOUN\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            read_corpus(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_corpus(path)

    def test_missing_trailing_blank_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("a\tX\n\nb\tY", encoding="utf-8")
        got = read_corpus(path)
        assert got.n_sentences == 2

    def test_fixture_corpus_loads(self):
        from pathlib import Path

        fixture = Path(__file__).parent / "fixtures" / "toy_corpus.tsv"
        got = read_corpus(fixture)
        assert got.n_sentences == 200
        seen = set()
        for sent in got.sentences:
            rare = [t for t in sent.tokens if t.startswith("rare")]
            assert len(rare) == 1
            seen.update(rare)
        assert len(seen) == 200


def reference_write(corpus, path):
    """The line-by-line writer ``write_corpus`` must match byte for byte."""
    with open(path, "w", encoding="utf-8") as handle:
        for sent in corpus.sentences:
            for tok, tag in zip(sent.tokens, sent.tags):
                handle.write(f"{tok}\t{tag}\n")
            handle.write("\n")


NON_ASCII = corpus(
    [("Größe", "NOUN"), ("ändert", "VERB"), ("sich", "PRON")],
    [("東京", "PROPN"), ("に", "ADP"), ("行く", "VERB")],
    [("naïve", "ADJ"), ("café", "NOUN"), ("😀", "SYM"), ("a b", "X")],
)


def reference_read(path):
    """The line-by-line parser ``read_corpus`` must match: same corpus,
    same sentence texts, same error messages."""
    path = Path(path)
    sentences = []
    tokens = []
    tags = []
    with path.open("r", encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                if tokens:
                    sentences.append(Sentence(tuple(tokens), tuple(tags)))
                    tokens, tags = [], []
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ValueError(f"{path}:{lineno}: expected 'token<TAB>tag', got {line!r}")
            tokens.append(parts[0])
            tags.append(parts[1])
    if tokens:
        sentences.append(Sentence(tuple(tokens), tuple(tags)))
    if not sentences:
        raise ValueError(f"{path}: no sentences found")
    return TaggedCorpus(tuple(sentences))


class TestWriterMatchesReference:
    def assert_same_bytes(self, tmp_path, data):
        write_corpus(data, tmp_path / "got.tsv")
        reference_write(data, tmp_path / "want.tsv")
        assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()

    def test_fresh_corpus(self, tmp_path):
        fresh = corpus(
            [("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")],
            [("dogs", "NOUN"), ("bark", "VERB")],
            [("one", "NUM")],
        )
        self.assert_same_bytes(tmp_path, fresh)

    def test_second_write_of_the_same_corpus(self, tmp_path):
        fresh = corpus([("a", "X"), ("b", "Y")], [("c", "Z")])
        write_corpus(fresh, tmp_path / "first.tsv")
        self.assert_same_bytes(tmp_path, fresh)
        assert (tmp_path / "first.tsv").read_bytes() == (tmp_path / "got.tsv").read_bytes()

    def test_subset(self, tmp_path):
        fixture = read_corpus(Path(__file__).parent / "fixtures" / "toy_corpus.tsv")
        write_corpus(fixture, tmp_path / "whole.tsv")
        self.assert_same_bytes(tmp_path, fixture.subset([7, 3, 199, 3, 0]))

    def test_non_ascii_tokens(self, tmp_path):
        self.assert_same_bytes(tmp_path, NON_ASCII)
        assert read_corpus(tmp_path / "got.tsv") == NON_ASCII

    def test_fixture_file_rewritten_byte_for_byte(self, tmp_path):
        fixture = Path(__file__).parent / "fixtures" / "toy_corpus.tsv"
        write_corpus(read_corpus(fixture), tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == fixture.read_bytes()


class TestSentenceErrorsName:
    # The per-field loop the joined check stands in for.
    @staticmethod
    def reference_message(tokens, tags):
        for value, what in [(t, "token") for t in tokens] + [(t, "tag") for t in tags]:
            if not value:
                return f"empty {what}"
            if "\t" in value or "\n" in value:
                return f"{what} {value!r} contains a tab or newline, which the file format cannot hold"
        return None

    @pytest.mark.parametrize(
        "tokens, tags",
        [
            (("a", ""), ("X", "Y")),
            (("a", "b"), ("X", "")),
            (("a", "b\tc"), ("", "Y")),
            (("a", "b"), ("X\nY", "Z")),
            (("", "b\n"), ("X", "Y")),
            (("a", "b"), ("X", "Y\t")),
        ],
    )
    def test_first_bad_field_named(self, tokens, tags):
        with pytest.raises(ValueError) as info:
            Sentence(tokens, tags)
        assert str(info.value) == self.reference_message(tokens, tags)


class TestReaderMatchesReference:
    @pytest.mark.parametrize(
        "data",
        [
            b"\n\n\na\tX\nb\tY\n\n\n\nc\tZ\n\n\n",
            b"a\tX\nb\tY\n\nc\tZ",
            b"a\tX\r\nb\tY\r\n\r\nc\tZ\r\n\r\n",
            b"a\tX\rb\tY\r\rc\tZ\r",
            b"a\tX\r\n\rb\tY\n\r\nc\tZ",
            "\ufeffa\tX\nb\tY\n\n".encode("utf-8"),
            "Größe\tNOUN\n東京\tPROPN\n\n😀\tSYM\nnaïve café\tADJ\n\n".encode("utf-8"),
            "a\x0cb\tX\nc\tY\x0cZ\n\nd\u2028e\tX\u2029\n\n".encode("utf-8"),
            b"a\tX \nb\t Y\n\n",
            b"a\tX\n \t \n\n",
        ],
        ids=[
            "blank_runs", "no_final_newline", "crlf", "lone_cr", "mixed_endings", "bom",
            "non_ascii", "formfeed_and_line_separator", "spaces_in_tag", "whitespace_cells",
        ],
    )
    def test_same_corpus_and_text(self, tmp_path, data):
        path = tmp_path / "c.tsv"
        path.write_bytes(data)
        got, want = read_corpus(path), reference_read(path)
        assert got == want
        assert [s.text for s in got.sentences] == [s.text for s in want.sentences]

    @pytest.mark.parametrize(
        "data",
        [
            b"a\tX\nlonely\n\n",
            b"a\tX\n\nb\tY\tZ\n",
            b"\tX\n\n",
            b"a\tX\nb\t\n\n",
            b"a\tX\n  \n\nb\tY\n",
            b"\n\n\n",
            b"",
            b"a\tX\nb\nc\tY\tZ\n\n",
            b"a\tX\tY\nb\nc\tZ\n\n",
            b"a\tX\r\nb\r\nc\tY\tZ\r\n",
        ],
        ids=[
            "one_field", "three_fields", "empty_token", "empty_tag", "whitespace_only_line", "blank_lines_only", "empty_file",
            "one_then_three_fields", "three_then_one_field", "one_then_three_fields_crlf",
        ],
    )
    def test_same_error(self, tmp_path, data):
        path = tmp_path / "bad.tsv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as want:
            reference_read(path)
        with pytest.raises(ValueError) as got:
            read_corpus(path)
        assert str(got.value) == str(want.value)

    def test_fixture_and_non_ascii_files(self, tmp_path):
        write_corpus(NON_ASCII, tmp_path / "n.tsv")
        for path in (Path(__file__).parent / "fixtures" / "toy_corpus.tsv", tmp_path / "n.tsv"):
            got, want = read_corpus(path), reference_read(path)
            assert got == want
            assert [s.text for s in got.sentences] == [s.text for s in want.sentences]


class TestAlignmentErrors:
    # The walk the single comparison stands in for.
    @staticmethod
    def reference_error(gold, predicted):
        if gold.n_sentences != predicted.n_sentences:
            return f"gold has {gold.n_sentences} sentences, prediction has {predicted.n_sentences}"
        for idx, (g, p) in enumerate(zip(gold.sentences, predicted.sentences)):
            if len(g) != len(p):
                return f"sentence {idx}: gold has {len(g)} tokens, prediction has {len(p)}"
            if g.tokens != p.tokens:
                return f"sentence {idx}: tokens differ between gold and prediction"
        return None

    @pytest.mark.parametrize(
        "predicted",
        [
            corpus([("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")]),
            corpus(
                [("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")],
                [("dogs", "NOUN"), ("bark", "VERB")],
                [("extra", "X")],
            ),
            corpus([("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")], [("dogs", "NOUN")]),
            corpus([("the", "DET"), ("cat", "NOUN"), ("sat", "VERB")], [("dogs", "NOUN"), ("meow", "VERB")]),
            corpus([("a", "DET"), ("cat", "NOUN")], [("dogs", "NOUN"), ("meow", "VERB")]),
        ],
        ids=["fewer_sentences", "more_sentences", "shorter_sentence", "other_token", "first_differs"],
    )
    def test_same_exception_and_index(self, predicted):
        want = self.reference_error(GOLD, predicted)
        for accuracy in (token_accuracy, sentence_accuracy):
            with pytest.raises(ValueError) as got:
                accuracy(GOLD, predicted)
            assert str(got.value) == want
        with pytest.raises(ValueError) as got:
            oov_accuracy(frozenset(), GOLD, predicted)
        assert str(got.value) == want
