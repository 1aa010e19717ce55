"""Corpus-based strength estimation via the nearest-sentiment-word rule.

A query term's strength in one document is the mean strength of the known
sentiment words closest to it (token-index distance, ties averaged); a
document with no known sentiment word counts as neutral. The estimate for
the term is the mean over up to `max_docs` documents that contain it.
A document id holds no tab and no character of `text.LINE_BREAKS`.
"""

from __future__ import annotations

import random
import re
import reprlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, NamedTuple

from .errors import ParseError
from .lexicon import Lexicon, LexiconEntry, Stage, mean_strength
from .records import Lines, parse_record, value_of
from .text import LINE_BREAKS, find_occurrences, tokenize

DEFAULT_MAX_DOCS = 150

# `score --corpus` writes each document as one `id<TAB>total<TAB>polarity` line.
_ID_BREAK = re.compile(f"[\t{LINE_BREAKS}]")


class Document(NamedTuple):
    """A short text with its derived token sequence, which must be
    `tokenize(text)`, as `from_text` makes it: the distant labeler relies on
    it to strip emoticons without tokenizing the text again."""

    id: str
    text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, id: str, text: str) -> Document:
        return cls(id, text, tuple(tokenize(text)))


def read_documents(lines: Iterable[str]) -> Iterator[tuple[dict, Document]]:
    """JSON object and document of each line of a corpus file; every object
    needs string "id" (no tab or line break) and "text"."""
    for record in map(parse_record, lines):
        doc_id, text = value_of(record, "id", str), value_of(record, "text", str)
        if _ID_BREAK.search(doc_id):
            raise ParseError(f"'id' has a tab or line break: {reprlib.repr(doc_id)}")
        yield record, Document.from_text(doc_id, text)


def load_corpus(path: str | Path) -> list[Document]:
    """Read a corpus file: one JSON object per line with "id" and "text"."""
    with Lines(path) as lines:
        return [document for _, document in read_documents(lines)]


class FileCorpusProvider:
    """Offline corpus provider over a local document file.

    query() finds every document whose token sequence contains the term; when
    more than max_docs match, a seeded per-term sample is drawn so runs are
    reproducible. Returned documents keep file order.
    """

    def __init__(self, path: str | Path, *, sample_seed: int = 0):
        self._documents = load_corpus(path)
        self._sample_seed = sample_seed
        # Token -> ascending positions of the documents holding it, built in one
        # pass over the tokens: a position is appended unless it is already last.
        self._index: dict[str, list[int]] = {}
        for position, doc in enumerate(self._documents):
            for token in doc.tokens:
                postings = self._index.get(token)
                if postings is None:
                    self._index[token] = [position]
                elif postings[-1] != position:
                    postings.append(position)

    def __len__(self) -> int:
        return len(self._documents)

    def query(self, term: str, max_docs: int) -> list[Document]:
        postings = [self._index.get(word) for word in term.split(" ")]
        if None in postings:
            return []
        matching = min(postings, key=len)
        # The index holds the documents of each token, so a one-word term's
        # postings all match; a phrase's words may lie apart.
        if len(postings) > 1:
            common = set(matching).intersection(*postings)
            matching = [
                position
                for position in matching
                if position in common
                and find_occurrences(self._documents[position].tokens, term)
            ]
        if len(matching) > max_docs:
            rng = random.Random(f"{self._sample_seed}:{term}")
            matching = sorted(rng.sample(matching, max_docs))
        return [self._documents[position] for position in matching]


def document_strength(doc: Document, term: str, seed: Lexicon) -> float:
    """Strength evidence one document gives for a term.

    Candidates are single tokens found in the seed lexicon, excluding tokens
    inside any occurrence of the term itself. Distance is the smallest
    token-index gap to any occurrence span; the document's value is the mean
    over candidates at the globally minimal distance. No candidates: 0. With
    one occurrence, a walk outward stops at the first gap holding a candidate;
    its value equals that of the full scan over every token.
    """
    tokens = doc.tokens
    spans = find_occurrences(tokens, term)
    if not spans:
        raise ValueError(f"term {term!r} not in document {doc.id!r}")
    get = seed.get
    if len(spans) == 1:
        [(start, end)] = spans
        for gap in range(1, max(start + 1, len(tokens) - end)):
            left = get(tokens[start - gap]) if gap <= start else None
            right = get(tokens[end + gap]) if end + gap < len(tokens) else None
            if left:
                return mean_strength([left.strength, right.strength] if right else [left.strength])
            if right:
                return mean_strength([right.strength])
        return 0.0
    best_gap: int | None = None
    best_values: list[float] = []
    for index, token in enumerate(tokens):
        entry = get(token)
        if entry is None:
            continue
        gap = min(
            start - index if index < start else index - end for start, end in spans
        )
        if gap <= 0:  # inside an occurrence; every token outside one has a gap >= 1
            continue
        if best_gap is None or gap < best_gap:
            best_gap, best_values = gap, [entry.strength]
        elif gap == best_gap:
            best_values.append(entry.strength)
    if not best_values:
        return 0.0
    return mean_strength(best_values)


@dataclass
class EstimationReport:
    estimated: int = 0
    unlabelable: list[str] = field(default_factory=list)
    retrieved: list[int] = field(default_factory=list)  # documents of each term queried, in order
    # No term fails: an error leaves `estimate_all`. `perfbench/spans.py`
    # still reads this for `corpus.failures` (ROADMAP item 8).
    failures: ClassVar[tuple[()]] = ()


def estimate_all(
    vocabulary: Iterable[str],
    provider: FileCorpusProvider,
    seed: Lexicon,
    max_docs: int = DEFAULT_MAX_DOCS,
) -> tuple[Lexicon, EstimationReport]:
    """Estimate every vocabulary term not already in the seed lexicon.

    A term's estimate is the mean evidence of the documents the provider
    returns for it; a term no document contains is unlabelable and falls
    through to the propagation stage. Seed entries are never touched. Any
    object with `query` serves as the provider; an error it or the evidence
    step raises leaves this function. The delta is assembled in sorted term
    order, so results are deterministic.
    """
    if max_docs < 1:
        raise ValueError(f"max_docs must be >= 1, got {max_docs}")
    report = EstimationReport()
    entries = []
    for term in sorted(set(vocabulary)):
        if term in seed:
            continue
        documents = provider.query(term, max_docs)
        report.retrieved.append(len(documents))
        values = [document_strength(doc, term, seed) for doc in documents]
        if not values:
            report.unlabelable.append(term)
        else:
            entries.append(LexiconEntry(term, mean_strength(values), Stage.CORPUS_ESTIMATE))
            report.estimated += 1
    return Lexicon(entries), report
