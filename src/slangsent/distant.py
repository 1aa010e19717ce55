"""Distant labeling of documents via emoticons.

A document with positive emoticons only is Positive, negative only is
Negative; documents with both kinds or neither are discarded. Emoticons are
stripped from the labeled output so a scorer can never see the label source.
"""

from __future__ import annotations

import reprlib
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .corpus import Document, read_documents
from .errors import ParseError
from .lexicon import Polarity
from .records import Lines, value_of, write_records
from .text import chunk_token


@dataclass(frozen=True)
class EmoticonSet:
    """Positive and negative emoticon token sets. A plain record: the caller
    holds its invariants, that both sets are non-empty and disjoint.
    `from_file` checks them for data read from outside."""

    positive: frozenset[str]
    negative: frozenset[str]

    @property
    def all_tokens(self) -> frozenset[str]:
        return self.positive | self.negative

    @classmethod
    def from_file(cls, path: str | Path) -> EmoticonSet:
        """Parse the two-section config format: `[positive]` / `[negative]`
        headers, one emoticon token per line, '#' comments ignored. Each
        token must be one `tokenize` emits verbatim, or it could never label."""
        sections: dict[str, set[str]] = {"positive": set(), "negative": set()}
        current: set[str] | None = None
        with Lines(path) as lines:
            for raw in lines:
                line = raw.strip()
                if line.startswith("#"):
                    continue
                if line.startswith("[") and line.endswith("]"):
                    name = line[1:-1].strip().lower()
                    if name not in sections:
                        raise ParseError(f"unknown section {reprlib.repr(name)}")
                    current = sections[name]
                    continue
                if current is None:
                    raise ParseError("emoticon before any section header")
                if chunk_token(line) != line:
                    raise ParseError(f"emoticon {reprlib.repr(line)} is not a token tokenize emits")
                current.add(line)
            positive, negative = sections["positive"], sections["negative"]
            if not positive or not negative:
                raise ParseError("both emoticon sets must be non-empty")
            if positive & negative:
                raise ParseError("emoticons in both sets: "
                                 f"{reprlib.repr(sorted(positive & negative))}")
        return cls(positive=frozenset(positive), negative=frozenset(negative))


@lru_cache(maxsize=1)
def default_emoticons() -> EmoticonSet:
    with resources.as_file(resources.files("slangsent") / "data" / "emoticons.txt") as path:
        return EmoticonSet.from_file(path)


@dataclass(frozen=True)
class LabeledDocument:
    document: Document
    gold: Polarity


@dataclass
class DistantReport:
    labeled: int = 0
    discarded_conflict: int = 0
    discarded_unmarked: int = 0


def build_eval_corpus(
    documents: Iterable[Document], emoticons: EmoticonSet
) -> tuple[list[LabeledDocument], DistantReport]:
    """Label a document stream, preserving input order; discards are tallied
    by reason in the report. Each labeled document has every token from
    either set removed, in text and tokens alike: a chunk is dropped when its
    `chunk_token` is one, and as a chunk yields at most one token, the kept
    tokens are the document's tokens less those."""
    sources = emoticons.all_tokens
    labeled: list[LabeledDocument] = []
    report = DistantReport()
    for doc in documents:
        has_positive = not emoticons.positive.isdisjoint(doc.tokens)
        has_negative = not emoticons.negative.isdisjoint(doc.tokens)
        if has_positive == has_negative:
            if has_positive:
                report.discarded_conflict += 1
            else:
                report.discarded_unmarked += 1
            continue
        text = " ".join(chunk for chunk in doc.text.split() if chunk_token(chunk) not in sources)
        tokens = tuple(token for token in doc.tokens if token not in sources)
        gold = Polarity.POSITIVE if has_positive else Polarity.NEGATIVE
        labeled.append(LabeledDocument(Document(doc.id, text, tokens), gold))
        report.labeled += 1
    return labeled, report


# --- labeled-corpus file: one {"id", "label", "text"} object per line -------


def save_labeled_corpus(documents: Iterable[LabeledDocument], path: str | Path) -> None:
    write_records(path, (
        {"id": item.document.id, "label": item.gold.value, "text": item.document.text}
        for item in documents
    ))


def load_labeled_corpus(path: str | Path) -> list[LabeledDocument]:
    with Lines(path) as lines:
        return [LabeledDocument(document, value_of(record, "label", Polarity))
                for record, document in read_documents(lines)]
