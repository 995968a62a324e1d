"""Tagging corpora and the three intrinsic accuracies.

File format: UTF-8 text, one ``token<TAB>tag`` pair per line, a blank line
ends a sentence, and the final blank line is optional. The accuracies
compare a predicted corpus with the aligned gold corpus; the
out-of-vocabulary accuracy counts only tokens outside a given
``Vocabulary``, which the runner builds from each round's training data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import eq
from pathlib import Path
from typing import Iterable

from .errors import NoOovTokens, ShapeMismatch, TokenMismatch

__all__ = [
    "Sentence",
    "TaggedCorpus",
    "Vocabulary",
    "token_accuracy",
    "sentence_accuracy",
    "oov_accuracy",
    "read_corpus",
    "write_corpus",
]


def _check_field(value: str, what: str) -> None:
    if not value:
        raise ValueError(f"empty {what}")
    if "\t" in value or "\n" in value:
        raise ValueError(f"{what} {value!r} contains a tab or newline, which the file format cannot hold")


@dataclass(frozen=True)
class Sentence:
    """One sentence: parallel tuples of tokens and tags, never empty.

    ``text`` is the sentence in the file format, ending with its blank
    line. It is rendered once, when the sentence is built, so every
    subset that shares the sentence writes it without rendering it again.
    """

    tokens: tuple[str, ...]
    tags: tuple[str, ...]
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.tokens) == 0:
            raise ValueError("a sentence needs at least one token")
        if len(self.tokens) != len(self.tags):
            raise ValueError(f"{len(self.tokens)} tokens but {len(self.tags)} tags")
        # One scan of the joined fields; the per-field loop runs only to
        # name the first bad field.
        joined = "".join(self.tokens + self.tags)
        if not (all(self.tokens) and all(self.tags)) or "\t" in joined or "\n" in joined:
            for tok in self.tokens:
                _check_field(tok, "token")
            for tag in self.tags:
                _check_field(tag, "tag")
        # Token, tab, tag, newline per line, filled by two slice copies.
        cells = ["", "\t", "", "\n"] * len(self.tokens)
        cells[0::4] = self.tokens
        cells[2::4] = self.tags
        object.__setattr__(self, "text", "".join(cells) + "\n")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class TaggedCorpus:
    """An ordered, non-empty collection of sentences."""

    sentences: tuple[Sentence, ...]

    def __post_init__(self) -> None:
        if len(self.sentences) == 0:
            raise ValueError("a corpus needs at least one sentence")

    @classmethod
    def from_pairs(cls, sentences: Iterable[Iterable[tuple[str, str]]]) -> "TaggedCorpus":
        """Build from an iterable of sentences given as (token, tag) pairs."""
        built = []
        for pairs in sentences:
            pairs = list(pairs)
            built.append(Sentence(tuple(t for t, _ in pairs), tuple(g for _, g in pairs)))
        return cls(tuple(built))

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)

    def subset(self, indices: Iterable[int]) -> "TaggedCorpus":
        """Sentences at the given indices, in the given order."""
        return TaggedCorpus(tuple(self.sentences[i] for i in indices))


@dataclass(frozen=True)
class Vocabulary:
    """A set of known token forms."""

    tokens: frozenset[str]

    @classmethod
    def from_corpus(cls, *corpora: TaggedCorpus) -> "Vocabulary":
        return cls(frozenset().union(*[sent.tokens for corpus in corpora for sent in corpus.sentences]))

    def __contains__(self, token: str) -> bool:
        return token in self.tokens

    def __len__(self) -> int:
        return len(self.tokens)


def _check_aligned(gold: TaggedCorpus, predicted: TaggedCorpus) -> None:
    if gold.n_sentences != predicted.n_sentences:
        raise ShapeMismatch(
            f"gold has {gold.n_sentences} sentences, prediction has {predicted.n_sentences}"
        )
    for idx, (g, p) in enumerate(zip(gold.sentences, predicted.sentences)):
        if g.tokens != p.tokens:
            if len(g) != len(p):
                raise ShapeMismatch(f"sentence {idx}: gold has {len(g)} tokens, prediction has {len(p)}")
            raise TokenMismatch(f"sentence {idx}: tokens differ between gold and prediction")


def token_accuracy(gold: TaggedCorpus, predicted: TaggedCorpus) -> float:
    """Fraction of tokens whose predicted tag equals the gold tag."""
    _check_aligned(gold, predicted)
    correct = 0
    for g, p in zip(gold.sentences, predicted.sentences):
        correct += sum(map(eq, g.tags, p.tags))
    return correct / gold.n_tokens


def sentence_accuracy(gold: TaggedCorpus, predicted: TaggedCorpus) -> float:
    """Fraction of sentences tagged perfectly end to end."""
    _check_aligned(gold, predicted)
    correct = sum(g.tags == p.tags for g, p in zip(gold.sentences, predicted.sentences))
    return correct / gold.n_sentences


def oov_accuracy(vocabulary: Vocabulary, gold: TaggedCorpus, predicted: TaggedCorpus) -> float:
    """Token accuracy restricted to tokens outside the vocabulary.

    Raises NoOovTokens when every gold token is in-vocabulary, because the
    metric has no defined value there.
    """
    _check_aligned(gold, predicted)
    known = vocabulary.tokens
    correct = 0
    total = 0
    for g, p in zip(gold.sentences, predicted.sentences):
        for tok, gt, pt in zip(g.tokens, g.tags, p.tags):
            if tok not in known:
                total += 1
                correct += gt == pt
    if total == 0:
        raise NoOovTokens("every token is in the vocabulary")
    return correct / total


def read_corpus(path: str | Path) -> TaggedCorpus:
    """Parse a tagged corpus file. Raises ValueError with the line number on bad input."""
    path = Path(path)
    sentences: list[Sentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    with path.open("r", encoding="utf-8") as handle:
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


def write_corpus(corpus: TaggedCorpus, path: str | Path) -> None:
    """Write the corpus in the file format, in one write."""
    Path(path).write_text("".join([sent.text for sent in corpus.sentences]), encoding="utf-8")
