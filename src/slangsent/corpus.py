"""Corpus-based strength estimation via the nearest-sentiment-word rule.

A query term's strength in one document is the mean strength of the known
sentiment words closest to it (token-index distance, ties averaged); a
document with no known sentiment word counts as neutral. The estimate for
the term is the mean over up to `max_docs` documents that contain it.
"""

from __future__ import annotations

import random
import re
import reprlib
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from .errors import ParseError
from .lexicon import Lexicon, LexiconEntry, Stage, mean_strength
from .records import Lines, parse_record, value_of
from .text import find_occurrences, tokenize

DEFAULT_MAX_DOCS = 150

# A tab, or a character at which str.splitlines breaks: `score --corpus`
# writes each document as one `id<TAB>total<TAB>polarity` line.
_ID_BREAK = re.compile("[\t\n\v\f\r\x1c-\x1e\x85\u2028\u2029]")


@dataclass(frozen=True)
class Document:
    """A short text with its derived token sequence."""

    id: str
    text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, id: str, text: str) -> Document:
        return cls(id=id, text=text, tokens=tuple(tokenize(text)))


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
        # A posting set is made only for a token not seen before; `query`
        # reads the index with `get`, which adds no key.
        self._index: dict[str, set[int]] = defaultdict(set)
        for position, doc in enumerate(self._documents):
            for token in set(doc.tokens):
                self._index[token].add(position)

    def __len__(self) -> int:
        return len(self._documents)

    def query(self, term: str, max_docs: int) -> list[Document]:
        words = term.split(" ")
        candidates: set[int] | None = None
        for word in words:
            positions = self._index.get(word)
            if positions is None:
                return []
            candidates = positions if candidates is None else candidates & positions
        matching = sorted(candidates or ())
        # The index holds the documents of each token, so a one-word term's
        # candidates all match; a phrase's words may lie apart.
        if len(words) > 1:
            matching = [
                position
                for position in matching
                if find_occurrences(self._documents[position].tokens, term)
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
    over candidates at the globally minimal distance. No candidates: 0.
    """
    spans = find_occurrences(doc.tokens, term)
    if not spans:
        raise ValueError(f"term {term!r} not in document {doc.id!r}")
    get = seed.get
    best_gap: int | None = None
    best_values: list[float] = []
    for index, token in enumerate(doc.tokens):
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
        values = [document_strength(doc, term, seed) for doc in provider.query(term, max_docs)]
        if not values:
            report.unlabelable.append(term)
        else:
            entries.append(LexiconEntry(term, mean_strength(values), Stage.CORPUS_ESTIMATE))
            report.estimated += 1
    return Lexicon(entries), report
