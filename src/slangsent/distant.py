"""Distant labeling of documents via emoticons.

A document with positive emoticons only is Positive, negative only is
Negative; documents with both kinds or neither are discarded. Emoticons are
stripped from the labeled output so a scorer can never see the label source.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .corpus import Document, read_documents
from .errors import ParseError
from .lexicon import Polarity
from .records import naming, read_lines, write_records
from .text import tokenize


@dataclass(frozen=True)
class EmoticonSet:
    """Positive and negative emoticon token sets. A plain record: the caller
    holds its invariants, that both sets are non-empty and disjoint.
    `from_lines` checks them for data read from outside."""

    positive: frozenset[str]
    negative: frozenset[str]

    @property
    def all_tokens(self) -> frozenset[str]:
        return self.positive | self.negative

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> EmoticonSet:
        """Parse the two-section config format: `[positive]` / `[negative]`
        headers, one emoticon token per line, '#' comments ignored."""
        sections: dict[str, set[str]] = {"positive": set(), "negative": set()}
        current: set[str] | None = None
        for number, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip().lower()
                if name not in sections:
                    raise ParseError(f"unknown section {name!r}", line=number)
                current = sections[name]
                continue
            if current is None:
                raise ParseError("emoticon before any section header", line=number)
            current.add(line)
        positive, negative = sections["positive"], sections["negative"]
        if not positive or not negative:
            raise ParseError("both emoticon sets must be non-empty")
        if positive & negative:
            raise ParseError(f"emoticons in both sets: {sorted(positive & negative)}")
        return cls(positive=frozenset(positive), negative=frozenset(negative))

    @classmethod
    def from_file(cls, path: str | Path) -> EmoticonSet:
        with naming(path):
            return cls.from_lines(read_lines(path))


@lru_cache(maxsize=1)
def default_emoticons() -> EmoticonSet:
    text = resources.files("slangsent").joinpath("data/emoticons.txt").read_text("utf-8")
    return EmoticonSet.from_lines(text.splitlines())


@dataclass(frozen=True)
class LabeledDocument:
    document: Document
    gold: Polarity


def _strip_emoticons(doc: Document, emoticons: frozenset[str]) -> Document:
    """The document with every chunk whose token is in `emoticons` removed,
    by the token rule `_label` decides by. Kept chunks keep their tokens, so
    the kept text is not tokenized again."""
    chunks, tokens = [], []
    for chunk in doc.text.split():
        chunk_tokens = tokenize(chunk)
        if emoticons.isdisjoint(chunk_tokens):
            chunks.append(chunk)
            tokens += chunk_tokens
    return Document(doc.id, " ".join(chunks), tuple(tokens))


def _label(doc: Document, emoticons: EmoticonSet) -> LabeledDocument | str:
    """The labeled document, or why it is discarded: "conflict" (emoticons
    of both polarities) or "unmarked" (none at all)."""
    has_positive = any(t in emoticons.positive for t in doc.tokens)
    has_negative = any(t in emoticons.negative for t in doc.tokens)
    if has_positive == has_negative:
        return "conflict" if has_positive else "unmarked"
    gold = Polarity.POSITIVE if has_positive else Polarity.NEGATIVE
    return LabeledDocument(_strip_emoticons(doc, emoticons.all_tokens), gold)


@dataclass
class DistantReport:
    total: int = 0
    labeled: int = 0
    discarded_conflict: int = 0
    discarded_unmarked: int = 0


def build_eval_corpus(
    documents: Iterable[Document], emoticons: EmoticonSet
) -> tuple[list[LabeledDocument], DistantReport]:
    """Label a document stream, preserving input order; discards are tallied
    by reason in the report. Each labeled document has every token from
    either set removed, in text and tokens alike."""
    labeled: list[LabeledDocument] = []
    report = DistantReport()
    for doc in documents:
        report.total += 1
        item = _label(doc, emoticons)
        if isinstance(item, LabeledDocument):
            labeled.append(item)
            report.labeled += 1
        elif item == "conflict":
            report.discarded_conflict += 1
        else:
            report.discarded_unmarked += 1
    return labeled, report


# --- labeled-corpus file: one {"id", "label", "text"} object per line -------


def save_labeled_corpus(documents: Iterable[LabeledDocument], path: str | Path) -> None:
    write_records(path, (
        {"id": item.document.id, "label": item.gold.value, "text": item.document.text}
        for item in documents
    ))


def load_labeled_corpus(path: str | Path) -> list[LabeledDocument]:
    polarities = {p.value: p for p in Polarity}
    items: list[LabeledDocument] = []
    with naming(path):
        for number, record, document in read_documents(path):
            label = record.get("label")
            if label not in polarities:
                raise ParseError(f"bad label {label!r}", line=number)
            items.append(LabeledDocument(document, polarities[label]))
    return items
