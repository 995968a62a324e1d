"""Tagging corpora and the three intrinsic accuracies.

File format: UTF-8 text, one ``token<TAB>tag`` pair per line, a blank line
ends a sentence, and the final blank line is optional. A line ends at
LF, CRLF or a lone CR, as in text mode, and at nothing else (a form feed
or U+2028 is part of a token). ``read_corpus`` decodes a file once,
splits it into sentence blocks on blank lines and each block into cells
with one split; each sentence keeps its block as its text instead of
rendering it again, and a file with a bad block is walked line by line
only to name the first bad line.

The accuracies compare a predicted corpus with the aligned gold corpus,
and raise ValueError when the two do not align; the out-of-vocabulary
accuracy counts only tokens outside a given set of known token forms,
and is None when there are none. Only the gold tokens are looked up in
it, so the runner passes the evaluation fold's token types that its
training data also holds, not the whole training vocabulary. A file that
does not decode, or that breaks the format, is a ValueError naming it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from operator import eq
from pathlib import Path
from typing import AbstractSet, Iterable, NoReturn

__all__ = [
    "Sentence",
    "TaggedCorpus",
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
        """Sentences at the given indices, in the given order.

        An index array is turned into Python ints first, which index a
        tuple faster than array scalars do.
        """
        if hasattr(indices, "tolist"):
            indices = indices.tolist()
        sentences = self.sentences
        return TaggedCorpus(tuple([sentences[i] for i in indices]))


def _check_aligned(gold: TaggedCorpus, predicted: TaggedCorpus) -> None:
    # One comparison of the token lists; the walk below runs only to name
    # the first difference.
    if [s.tokens for s in gold.sentences] == [s.tokens for s in predicted.sentences]:
        return
    if gold.n_sentences != predicted.n_sentences:
        raise ValueError(
            f"gold has {gold.n_sentences} sentences, prediction has {predicted.n_sentences}"
        )
    for idx, (g, p) in enumerate(zip(gold.sentences, predicted.sentences)):
        if g.tokens != p.tokens:
            if len(g) != len(p):
                raise ValueError(f"sentence {idx}: gold has {len(g)} tokens, prediction has {len(p)}")
            raise ValueError(f"sentence {idx}: tokens differ between gold and prediction")


def token_accuracy(gold: TaggedCorpus, predicted: TaggedCorpus) -> float:
    """Fraction of tokens whose predicted tag equals the gold tag."""
    _check_aligned(gold, predicted)
    # A whole sentence tagged right, the usual case, is one tuple comparison.
    correct = 0
    for g, p in zip(gold.sentences, predicted.sentences):
        correct += len(g.tags) if g.tags == p.tags else sum(map(eq, g.tags, p.tags))
    return correct / gold.n_tokens


def sentence_accuracy(gold: TaggedCorpus, predicted: TaggedCorpus) -> float:
    """Fraction of sentences tagged perfectly end to end."""
    _check_aligned(gold, predicted)
    correct = sum(g.tags == p.tags for g, p in zip(gold.sentences, predicted.sentences))
    return correct / gold.n_sentences


def oov_accuracy(
    known: AbstractSet[str], gold: TaggedCorpus, predicted: TaggedCorpus
) -> float | None:
    """Token accuracy restricted to gold tokens not in ``known``.

    None when every gold token is in-vocabulary, because the metric has
    no defined value there.
    """
    _check_aligned(gold, predicted)
    oov = [tok not in known for sent in gold.sentences for tok in sent.tokens]
    gold_tags = list(compress(chain.from_iterable([s.tags for s in gold.sentences]), oov))
    if not gold_tags:
        return None
    predicted_tags = compress(chain.from_iterable([s.tags for s in predicted.sentences]), oov)
    return sum(map(eq, gold_tags, predicted_tags)) / len(gold_tags)


# Every byte value but tab, newline and carriage return. UTF-8 never uses
# these three inside a multi-byte character, so deleting every other byte
# of a file leaves its line structure: two tabs end up next to each other
# only where one line holds both.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b"\t\n\r")


def _parsed_sentence(tokens: tuple[str, ...], tags: tuple[str, ...], text: str) -> Sentence:
    """A sentence whose fields and text the parser has already checked."""
    sentence = object.__new__(Sentence)
    sentence.__dict__.update(tokens=tokens, tags=tags, text=text)
    return sentence


def _raise_bad_line(path: Path, text: str) -> NoReturn:
    """Raise for the first line that is neither blank nor token<TAB>tag."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split("\t")
        if line and (len(parts) != 2 or not parts[0] or not parts[1]):
            raise ValueError(f"{path}:{lineno}: expected 'token<TAB>tag', got {line!r}")
    raise AssertionError(f"{path}: the block check rejected a file whose lines are well-formed")


def read_corpus(path: str | Path) -> TaggedCorpus:
    """Parse a tagged corpus file. Raises ValueError with the line number on bad input."""
    path = Path(path)
    data = path.read_bytes()
    # utf-8-sig drops the byte-order mark that spreadsheet programs write.
    try:
        text = data.decode("utf-8-sig").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    # Once no line holds two tabs, a block with as many tabs as lines holds
    # exactly one on each line.
    if b"\t\t" in data.translate(None, _NOT_SEPARATOR):
        _raise_bad_line(path, text)
    sentences: list[Sentence] = []
    for block in text.split("\n\n"):
        block = block.strip("\n")
        if not block:
            continue
        cells = block.replace("\n", "\t").split("\t")
        if len(cells) != 2 * block.count("\n") + 2 or not all(cells):
            _raise_bad_line(path, text)
        sentences.append(_parsed_sentence(tuple(cells[0::2]), tuple(cells[1::2]), block + "\n\n"))
    if not sentences:
        raise ValueError(f"{path}: no sentences found")
    return TaggedCorpus(tuple(sentences))


def write_corpus(corpus: TaggedCorpus, path: str | Path) -> None:
    """Write the corpus in the file format, in one write."""
    Path(path).write_text("".join([sent.text for sent in corpus.sentences]), encoding="utf-8")
